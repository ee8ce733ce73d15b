//! The labelled transition system of Table 3.
//!
//! Transitions split into two families:
//!
//! * **step moves** (`τ` and outputs) — the autonomous moves a closed
//!   system makes by itself; computed by [`Lts::step_transitions`]. This
//!   is where broadcast lives: when one parallel component emits on `a`,
//!   every component listening on `a` receives *in the same transition*
//!   (rules (12)–(13)) and every other component discards (rule (14)).
//!   Outputs stay visible through parallel composition and only become `τ`
//!   when their subject is restricted (rule (6)).
//! * **inputs** — offered to the environment; in the early style of the
//!   paper the objects are instantiated eagerly, so the full relation is
//!   infinite. [`Lts::input_transitions`] instantiates them over a finite
//!   *name pool*; see `bpi-equiv` for why a pool of the free names plus
//!   fresh representatives suffices. The listening interface
//!   ([`input_arities`]) is the one source of a state's input side
//!   ([`Lts::inputs`]): its (channel, arity) pairs are what gets
//!   instantiated, each derived once on its first tuple and refused for
//!   every tuple when that derivation is empty (the rules test only
//!   subject and arity, never the objects), and the pool channels
//!   outside it are exactly the ones the state discards.
//!
//! Scope extrusion (rule (5)) renames the extruded binder to a globally
//! fresh name, so the bound names of any action produced here are unique
//! across the whole run — the side conditions `bn(α) ∩ fn(p₂) = ∅` of
//! rules (13)–(14) then hold by construction.

use crate::discard::{discards as discards_rel, input_arities, unfold_guard};
use bpi_core::action::Action;
use bpi_core::builder::{new_many, par};
use bpi_core::name::{fresh_name, Name, NameSet};
use bpi_core::subst::{unfold_call, unfold_rec, Subst};
use bpi_core::syntax::{Defs, Prefix, Process, P};
use bpi_obs::{counter, Counter, Det};
use std::sync::LazyLock;

// Input-derivation work. Advisory: graph builds derive inputs, and a
// build the graph memo serves derives none, so what a call adds depends
// on what ran before it in the process.
static RECEIVES: LazyLock<&Counter> =
    LazyLock::new(|| counter("semantics.input.receives", Det::Advisory));
static BLOCKED: LazyLock<&Counter> =
    LazyLock::new(|| counter("semantics.input.blocked", Det::Advisory));

/// Transition-derivation engine, parameterised by a definition
/// environment for resolving `Call`s.
#[derive(Clone, Copy)]
pub struct Lts<'d> {
    pub defs: &'d Defs,
}

impl<'d> Lts<'d> {
    pub fn new(defs: &'d Defs) -> Lts<'d> {
        Lts { defs }
    }

    /// `p —a:→` (Table 2).
    pub fn discards(&self, p: &P, a: Name) -> bool {
        discards_rel(p, a, self.defs)
    }

    /// All `p'` with `p —chan(values)→ p'`: the ways `p` can receive the
    /// broadcast `chan⟨values⟩` (rules (3), (7)–(12), (14) restricted to
    /// inputs).
    pub fn receives(&self, p: &P, chan: Name, values: &[Name]) -> Vec<P> {
        self.receives_at(p, chan, values, 0)
    }

    fn receives_at(&self, p: &P, chan: Name, values: &[Name], depth: usize) -> Vec<P> {
        unfold_guard(depth, "input transitions");
        match &**p {
            Process::Nil | Process::Act(Prefix::Tau, _) | Process::Act(Prefix::Output(..), _) => {
                Vec::new()
            }
            Process::Act(Prefix::Input(b, xs), cont) => {
                if *b == chan && xs.len() == values.len() {
                    vec![Subst::parallel(xs, values).apply_process(cont)]
                } else {
                    Vec::new()
                }
            }
            Process::Sum(l, r) => {
                let mut out = self.receives_at(l, chan, values, depth);
                out.extend(self.receives_at(r, chan, values, depth));
                out
            }
            Process::Match(x, y, l, r) => {
                self.receives_at(if x == y { l } else { r }, chan, values, depth)
            }
            Process::New(x, inner) => {
                // Rule (7) requires x ∉ n(α); α-convert if the incoming
                // subject or objects collide with the binder.
                let (x2, inner2) = if *x == chan || values.contains(x) {
                    let f = fresh_name(x.spelling());
                    (f, Subst::single(*x, f).apply_process(inner))
                } else {
                    (*x, inner.clone())
                };
                self.receives_at(&inner2, chan, values, depth)
                    .into_iter()
                    .map(|c| Process::New(x2, c).rc())
                    .collect()
            }
            Process::Par(l, r) => {
                let rl = self.receives_at(l, chan, values, depth);
                let rr = self.receives_at(r, chan, values, depth);
                let mut out = Vec::new();
                // Rule (12): both components receive the same broadcast.
                for a in &rl {
                    for b in &rr {
                        out.push(par(a.clone(), b.clone()));
                    }
                }
                // Rule (14) and its symmetric: one receives, the other
                // discards and stays put.
                if self.discards(r, chan) {
                    for a in &rl {
                        out.push(par(a.clone(), r.clone()));
                    }
                }
                if self.discards(l, chan) {
                    for b in &rr {
                        out.push(par(l.clone(), b.clone()));
                    }
                }
                out
            }
            Process::Rec(def, args) => {
                self.receives_at(&unfold_rec(def, args), chan, values, depth + 1)
            }
            Process::Call(id, args) => {
                let u = unfold_call(self.defs, *id, args)
                    .unwrap_or_else(|| panic!("call to undefined process identifier {id}"));
                self.receives_at(&u, chan, values, depth + 1)
            }
            Process::Var(id, _) => {
                panic!("free recursion variable {id} reached the semantics")
            }
        }
    }

    /// All step moves of `p`: transitions labelled `τ` or an output
    /// (free or bound). These are the autonomous moves of a closed system.
    ///
    /// One broadcast reaches every listener in a single transition:
    ///
    /// ```
    /// use bpi_core::{parse_process, syntax::Defs, alpha_eq};
    /// use bpi_semantics::Lts;
    /// let defs = Defs::new();
    /// let sys = parse_process("a<v> | a(x).x<> | a(y).y<>").unwrap();
    /// let ts = Lts::new(&defs).step_transitions(&sys);
    /// assert_eq!(ts.len(), 1);
    /// let expected = parse_process("0 | v<> | v<>").unwrap();
    /// assert!(alpha_eq(&ts[0].1, &expected));
    /// ```
    pub fn step_transitions(&self, p: &P) -> Vec<(Action, P)> {
        self.steps_at(p, 0)
    }

    fn steps_at(&self, p: &P, depth: usize) -> Vec<(Action, P)> {
        unfold_guard(depth, "step transitions");
        match &**p {
            Process::Nil | Process::Act(Prefix::Input(..), _) => Vec::new(),
            Process::Act(Prefix::Tau, cont) => vec![(Action::Tau, cont.clone())],
            Process::Act(Prefix::Output(a, ys), cont) => {
                vec![(Action::free_output(*a, ys.clone()), cont.clone())]
            }
            Process::Sum(l, r) => {
                let mut out = self.steps_at(l, depth);
                out.extend(self.steps_at(r, depth));
                out
            }
            Process::Match(x, y, l, r) => self.steps_at(if x == y { l } else { r }, depth),
            Process::New(x, inner) => self
                .steps_at(inner, depth)
                .into_iter()
                .map(|(act, cont)| self.restrict_transition(*x, act, cont))
                .collect(),
            Process::Par(l, r) => {
                let mut out = Vec::new();
                for (act, l2) in self.steps_at(l, depth) {
                    self.compose_broadcast(act, l2, r, true, &mut out);
                }
                for (act, r2) in self.steps_at(r, depth) {
                    self.compose_broadcast(act, r2, l, false, &mut out);
                }
                out
            }
            Process::Rec(def, args) => self.steps_at(&unfold_rec(def, args), depth + 1),
            Process::Call(id, args) => {
                let u = unfold_call(self.defs, *id, args)
                    .unwrap_or_else(|| panic!("call to undefined process identifier {id}"));
                self.steps_at(&u, depth + 1)
            }
            Process::Var(id, _) => {
                panic!("free recursion variable {id} reached the semantics")
            }
        }
    }

    /// Pushes a step transition of `inner` through the binder `νx`
    /// (rules (5), (6), (7) of Table 3).
    fn restrict_transition(&self, x: Name, act: Action, cont: P) -> (Action, P) {
        match act {
            Action::Tau => (Action::Tau, Process::New(x, cont).rc()),
            Action::Output {
                chan,
                objects,
                bound,
            } => {
                if chan == x {
                    // Rule (6): broadcasting on a restricted channel is an
                    // internal step; the extruded names fold back under
                    // the restriction, scoped over the whole derivative.
                    (Action::Tau, Process::New(x, new_many(bound, cont)).rc())
                } else if objects.contains(&x) {
                    // Rule (5): scope extrusion. Rename the binder to a
                    // globally fresh name so bound action names are unique
                    // run-wide.
                    let f = fresh_name(x.spelling());
                    let s = Subst::single(x, f);
                    let objects = objects
                        .into_iter()
                        .map(|o| if o == x { f } else { o })
                        .collect();
                    let mut bound = bound;
                    bound.push(f);
                    (
                        Action::Output {
                            chan,
                            objects,
                            bound,
                        },
                        s.apply_process(&cont),
                    )
                } else {
                    // Rule (7): x untouched by the action.
                    (
                        Action::Output {
                            chan,
                            objects,
                            bound,
                        },
                        Process::New(x, cont).rc(),
                    )
                }
            }
            Action::Input { .. } | Action::Discard { .. } => {
                unreachable!("step transitions carry only τ/output labels")
            }
        }
    }

    /// Composes a step move of one parallel component with the other side
    /// (rules (13) and (14) of Table 3).
    fn compose_broadcast(
        &self,
        act: Action,
        moved: P,
        other: &P,
        moved_is_left: bool,
        out: &mut Vec<(Action, P)>,
    ) {
        let assemble = |a: P, b: P| if moved_is_left { par(a, b) } else { par(b, a) };
        match &act {
            Action::Tau => {
                // sub(τ) is discarded by every process (the paper's
                // convention p —τ:→ p).
                out.push((act.clone(), assemble(moved, other.clone())));
            }
            Action::Output { chan, objects, .. } => {
                // Rule (13): the other side receives the broadcast.
                for recv in self.receives(other, *chan, objects) {
                    out.push((act.clone(), assemble(moved.clone(), recv)));
                }
                // Rule (14): the other side is not listening and stays.
                if self.discards(other, *chan) {
                    out.push((act.clone(), assemble(moved, other.clone())));
                }
            }
            Action::Input { .. } | Action::Discard { .. } => {
                unreachable!("step transitions carry only τ/output labels")
            }
        }
    }

    /// Input transitions of `p` with objects drawn from `pool`: for each
    /// channel/arity `p` listens on, every tuple over the pool, in
    /// interface order, then arity order, then pool order. The input
    /// half of [`Lts::inputs`].
    pub fn input_transitions(&self, p: &P, pool: &[Name]) -> Vec<(Action, P)> {
        self.inputs(p, pool).transitions
    }

    /// The input side of `p` over `pool`, off one walk of its listening
    /// interface ([`input_arities`]): the input transitions, and the
    /// channels `p` listens on, whose complement in the pool is what `p`
    /// discards (`p —a:→` iff `a ∉ In(p)`; [`Inputs::discards`]).
    ///
    /// Each (channel, arity) pair of the interface is derived on its
    /// first pool tuple. Whether [`Lts::receives`] derives anything never
    /// depends on the objects: an input prefix compares only subject and
    /// arity, a match tests names already in the term, a restriction
    /// whose binder collides is α-renamed, and a parallel composition
    /// combines its sides through [`Lts::discards`]. So an empty first
    /// derivation refuses that arity for every tuple (a sibling listening
    /// at another arity blocks it), and a non-empty one is kept and the
    /// remaining tuples derived in turn.
    pub fn inputs(&self, p: &P, pool: &[Name]) -> Inputs {
        let interface = input_arities(p, self.defs);
        let listening = interface.keys().copied().collect();
        let mut transitions = Vec::new();
        for (chan, arities) in interface {
            for arity in arities {
                // The first tuple in pool order, without enumerating the rest.
                let head = match pool.first() {
                    Some(&n) => vec![n; arity],
                    None if arity == 0 => Vec::new(),
                    None => continue,
                };
                let conts = self.receives_counted(p, chan, &head);
                if conts.is_empty() {
                    BLOCKED.inc();
                    continue;
                }
                push_inputs(&mut transitions, chan, &head, conts);
                for tuple in tuples(pool, arity).iter().skip(1) {
                    let conts = self.receives_counted(p, chan, tuple);
                    push_inputs(&mut transitions, chan, tuple, conts);
                }
            }
        }
        Inputs {
            transitions,
            listening,
        }
    }

    /// [`Lts::receives`], counted into `semantics.input.receives`.
    fn receives_counted(&self, p: &P, chan: Name, values: &[Name]) -> Vec<P> {
        RECEIVES.inc();
        self.receives(p, chan, values)
    }

    /// All transitions: step moves plus pool-instantiated inputs.
    pub fn transitions(&self, p: &P, pool: &[Name]) -> Vec<(Action, P)> {
        let mut out = self.step_transitions(p);
        out.extend(self.input_transitions(p, pool));
        out
    }
}

/// The input side of a state over a name pool ([`Lts::inputs`]).
#[derive(Clone, Debug)]
pub struct Inputs {
    /// `p —a(b̃)→ p'` for each channel `a` and arity of the listening
    /// interface and each pool tuple `b̃` ([`Lts::input_transitions`]).
    pub transitions: Vec<(Action, P)>,
    /// `In(p)`: the channels of the listening interface, sorted and
    /// distinct (they are the interface map's keys).
    pub listening: Box<[Name]>,
}

impl Inputs {
    /// The channels of `pool` that `p` discards: those outside `In(p)`.
    pub fn discards(&self, pool: &[Name]) -> NameSet {
        NameSet::from_iter(
            pool.iter()
                .copied()
                .filter(|a| self.listening.binary_search(a).is_err()),
        )
    }
}

fn push_inputs(out: &mut Vec<(Action, P)>, chan: Name, objects: &[Name], conts: Vec<P>) {
    for cont in conts {
        let objects = objects.to_vec();
        out.push((Action::Input { chan, objects }, cont));
    }
}

/// The top-level parallel components of `p`: the leaves of its outermost
/// `‖`-spine, left to right. A process that is not a parallel
/// composition is its own single component. This is the decomposition
/// the compositional graph engine of `bpi-equiv` minimizes component by
/// component (expansion law, Table 8): a restriction *above* the spine
/// deliberately stops the flattening, because its scope spans every
/// component and component-wise analysis would lose the shared binder.
pub fn par_components(p: &P) -> Vec<P> {
    fn go(p: &P, out: &mut Vec<P>) {
        if let Process::Par(l, r) = &**p {
            go(l, out);
            go(r, out);
        } else {
            out.push(p.clone());
        }
    }
    let mut out = Vec::new();
    go(p, &mut out);
    out
}

/// All tuples of length `arity` over `pool` (cartesian power, pool-order).
pub fn tuples(pool: &[Name], arity: usize) -> Vec<Vec<Name>> {
    if arity == 0 {
        return vec![Vec::new()];
    }
    let mut out: Vec<Vec<Name>> = vec![Vec::new()];
    for _ in 0..arity {
        let mut next = Vec::with_capacity(out.len() * pool.len());
        for t in &out {
            for &n in pool {
                let mut t2 = t.clone();
                t2.push(n);
                next.push(t2);
            }
        }
        out = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpi_core::builder::*;
    use bpi_core::canon::alpha_eq;
    use bpi_core::syntax::Defs;

    fn lts_of(defs: &Defs) -> Lts<'_> {
        Lts::new(defs)
    }

    #[test]
    fn output_prefix_fires() {
        let defs = Defs::new();
        let [a, v] = names(["a", "v"]);
        let ts = lts_of(&defs).step_transitions(&out_(a, [v]));
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].0, Action::free_output(a, vec![v]));
        assert_eq!(*ts[0].1, Process::Nil);
    }

    #[test]
    fn broadcast_reaches_all_listeners_atomically() {
        let defs = Defs::new();
        let [a, v, x, y] = names(["a", "v", "x", "y"]);
        // āv ‖ a(x).x̄ ‖ a(y).ȳ  —āv→  nil ‖ v̄ ‖ v̄  (single transition)
        let p = par_of([
            out_(a, [v]),
            inp(a, [x], out_(x, [])),
            inp(a, [y], out_(y, [])),
        ]);
        let ts = lts_of(&defs).step_transitions(&p);
        assert_eq!(ts.len(), 1, "broadcast must be a single atomic step");
        let (act, cont) = &ts[0];
        assert_eq!(*act, Action::free_output(a, vec![v]));
        let expected = par_of([nil(), out_(v, []), out_(v, [])]);
        assert!(alpha_eq(cont, &expected), "got {cont}");
    }

    #[test]
    fn non_listeners_discard() {
        let defs = Defs::new();
        let [a, b, v, x] = names(["a", "b", "v", "x"]);
        // āv ‖ b(x)  —āv→  nil ‖ b(x)
        let p = par(out_(a, [v]), inp_(b, [x]));
        let ts = lts_of(&defs).step_transitions(&p);
        assert_eq!(ts.len(), 1);
        assert!(alpha_eq(&ts[0].1, &par(nil(), inp_(b, [x]))));
    }

    #[test]
    fn output_is_never_blocked() {
        let defs = Defs::new();
        let [a, v] = names(["a", "v"]);
        // An output with no receiver at all still fires.
        let p = par(out_(a, [v]), nil());
        let ts = lts_of(&defs).step_transitions(&p);
        assert_eq!(ts.len(), 1);
    }

    #[test]
    fn sum_of_receivers_branches() {
        let defs = Defs::new();
        let [a, v, x, y] = names(["a", "v", "x", "y"]);
        let p = sum(inp(a, [x], out_(x, [])), inp(a, [y], out_(y, [y])));
        let rs = lts_of(&defs).receives(&p, a, &[v]);
        assert_eq!(rs.len(), 2);
        assert!(rs.iter().any(|r| alpha_eq(r, &out_(v, []))));
        assert!(rs.iter().any(|r| alpha_eq(r, &out_(v, [v]))));
    }

    #[test]
    fn scope_extrusion_binds_output() {
        let defs = Defs::new();
        let [a, x] = names(["a", "x"]);
        // νx āx.x̄ emits a bound output and the continuation uses the
        // extruded (fresh) name.
        let p = new(x, out(a, [x], out_(x, [])));
        let ts = lts_of(&defs).step_transitions(&p);
        assert_eq!(ts.len(), 1);
        match &ts[0].0 {
            Action::Output {
                chan,
                objects,
                bound,
            } => {
                assert_eq!(*chan, a);
                assert_eq!(bound.len(), 1);
                assert_eq!(objects, bound);
                assert_ne!(bound[0], x, "extruded name must be fresh");
                assert!(alpha_eq(&ts[0].1, &out_(bound[0], [])));
            }
            other => panic!("expected bound output, got {other}"),
        }
    }

    #[test]
    fn restricted_subject_becomes_tau() {
        let defs = Defs::new();
        let [a, v, x] = names(["a", "v", "x"]);
        // νa (āv ‖ a(x).x̄) —τ→ νa (nil ‖ v̄)
        let p = new(a, par(out_(a, [v]), inp(a, [x], out_(x, []))));
        let ts = lts_of(&defs).step_transitions(&p);
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].0, Action::Tau);
        assert!(alpha_eq(&ts[0].1, &new(a, par(nil(), out_(v, [])))));
    }

    #[test]
    fn extruded_name_refolds_under_tau() {
        let defs = Defs::new();
        let [a, x, y] = names(["a", "x", "y"]);
        // νa νx (āx ‖ a(y).ȳ) —τ→ νa νx' (nil ‖ x̄') : the private name x
        // travels and is re-restricted over the whole derivative (rule 6).
        let p = new(a, new(x, par(out_(a, [x]), inp(a, [y], out_(y, [])))));
        let ts = lts_of(&defs).step_transitions(&p);
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].0, Action::Tau);
        let expected = new(a, new(x, par(nil(), out_(x, []))));
        assert!(alpha_eq(&ts[0].1, &expected), "got {}", ts[0].1);
    }

    #[test]
    fn receive_under_restriction_avoids_capture() {
        let defs = Defs::new();
        let [a, x, z] = names(["a", "x", "z"]);
        // νx a(z).z̄x̄… receiving the *outer* name x must not capture it.
        let p = new(x, inp(a, [z], par(out_(z, []), out_(x, []))));
        let rs = lts_of(&defs).receives(&p, a, &[x]);
        assert_eq!(rs.len(), 1);
        // Result: νx' (x̄ ‖ x̄') — the received free x and the local one
        // are distinct.
        match &*rs[0] {
            Process::New(x2, inner) => {
                assert_ne!(*x2, x);
                assert!(alpha_eq(inner, &par(out_(x, []), out_(*x2, []))));
            }
            other => panic!("expected New, got {other:?}"),
        }
    }

    #[test]
    fn tau_interleaves_in_parallel() {
        let defs = Defs::new();
        let p = par(tau(tau_()), tau_());
        let ts = lts_of(&defs).step_transitions(&p);
        assert_eq!(ts.len(), 2);
        assert!(ts.iter().all(|(a, _)| *a == Action::Tau));
    }

    #[test]
    fn input_transitions_over_pool() {
        let defs = Defs::new();
        let [a, v, w, x] = names(["a", "v", "w", "x"]);
        let p = inp(a, [x], out_(x, []));
        let ts = lts_of(&defs).input_transitions(&p, &[v, w]);
        assert_eq!(ts.len(), 2);
        for (act, cont) in &ts {
            match act {
                Action::Input { chan, objects } => {
                    assert_eq!(*chan, a);
                    assert!(alpha_eq(cont, &out_(objects[0], [])));
                }
                other => panic!("expected input, got {other}"),
            }
        }
    }

    #[test]
    fn broadcast_synchronises_receivers_in_receives() {
        // Both parallel receivers receive simultaneously (rule 12): the
        // composed process has exactly the both-receive and stay-put
        // combinations allowed by discards.
        let defs = Defs::new();
        let [a, v, x, y] = names(["a", "v", "x", "y"]);
        let p = par(inp(a, [x], out_(x, [])), inp(a, [y], out_(y, [y])));
        let rs = lts_of(&defs).receives(&p, a, &[v]);
        // Neither side discards a, so only rule (12) applies: 1 result.
        assert_eq!(rs.len(), 1);
        assert!(alpha_eq(&rs[0], &par(out_(v, []), out_(v, [v]))));
    }

    #[test]
    fn tuples_cartesian() {
        let [a, b] = names(["a", "b"]);
        assert_eq!(tuples(&[a, b], 0), vec![Vec::<Name>::new()]);
        assert_eq!(tuples(&[a, b], 2).len(), 4);
    }

    #[test]
    fn match_guards_transitions() {
        let defs = Defs::new();
        let [a, b] = names(["a", "b"]);
        let p = mat(a, a, out_(a, []), out_(b, []));
        let ts = lts_of(&defs).step_transitions(&p);
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].0.subject(), Some(a));
        let q = mat(a, b, out_(a, []), out_(b, []));
        let ts = lts_of(&defs).step_transitions(&q);
        assert_eq!(ts[0].0.subject(), Some(b));
    }
}
