//! Reachable-state-space construction for closed broadcast systems.
//!
//! States are quotiented by α-equivalence *and* by injective renaming of
//! extruded names: scope extrusion (rule (5)) mints globally fresh names,
//! so without the extra normalisation a system that repeatedly extrudes
//! (like Example 1's `Edge_manager`, which broadcasts a private token)
//! would never revisit a state. [`normalize_state`] renames every free
//! name outside the protected set to a canonical `#e0, #e1, …` sequence in
//! first-occurrence order, which is sound because injective renamings
//! preserve strong bisimilarity (Lemma 18).

use crate::budget::{Budget, EngineError};
use crate::lts::Lts;
use bpi_core::action::Action;
use bpi_core::canon::canon;
use bpi_core::name::{Name, NameSet};
use bpi_core::subst::Subst;
use bpi_core::syntax::{Defs, Prefix, Process, P};
use bpi_obs::{counter, Counter, Det, Value};
use std::collections::HashMap;
use std::sync::LazyLock;

// Deterministic counters are derived from the *result* graph; state/edge
// totals are only counted for complete graphs, because a truncated
// graph's extent depends on discovery order. The truncation *event* for
// a state ceiling is a property of the reachable space (it either fits
// or it does not), so it is deterministic too; deadline/cancellation are
// wall clock and stay advisory.
static EXPLORE_RUNS: LazyLock<&Counter> =
    LazyLock::new(|| counter("semantics.explore.runs", Det::Deterministic));
static EXPLORE_STATES: LazyLock<&Counter> =
    LazyLock::new(|| counter("semantics.explore.states", Det::Deterministic));
static EXPLORE_EDGES: LazyLock<&Counter> =
    LazyLock::new(|| counter("semantics.explore.edges", Det::Deterministic));
static EXPLORE_EXHAUSTED: LazyLock<&Counter> =
    LazyLock::new(|| counter("semantics.explore.exhausted", Det::Deterministic));
static EXPLORE_INTERRUPTED: LazyLock<&Counter> =
    LazyLock::new(|| counter("semantics.explore.interrupted", Det::Advisory));

/// Exit bookkeeping of an exploration.
fn record_explore(g: &StateGraph) {
    if bpi_obs::metrics_enabled() {
        EXPLORE_RUNS.inc();
        match &g.interrupted {
            None => {
                EXPLORE_STATES.add(g.len() as u64);
                EXPLORE_EDGES.add(g.edge_count() as u64);
            }
            Some(EngineError::StateBudgetExceeded { .. }) => EXPLORE_EXHAUSTED.inc(),
            Some(_) => EXPLORE_INTERRUPTED.inc(),
        }
    }
    bpi_obs::emit("semantics.explore", "done", || {
        vec![
            ("states", Value::from(g.len())),
            ("edges", Value::from(g.edge_count())),
            ("truncated", Value::from(g.truncated)),
        ]
    });
}

/// Options controlling exploration.
#[derive(Clone, Copy, Debug)]
pub struct ExploreOpts {
    /// Stop after this many distinct states (the graph is then marked
    /// [`StateGraph::truncated`]).
    pub max_states: usize,
    /// Rename extruded/free names outside the initial free-name set to a
    /// canonical sequence, folding renaming-equivalent states together.
    pub normalize_extruded: bool,
}

impl Default for ExploreOpts {
    fn default() -> ExploreOpts {
        ExploreOpts {
            max_states: 100_000,
            normalize_extruded: true,
        }
    }
}

/// The reachable step-move transition graph of a closed system.
#[derive(Clone, Debug)]
pub struct StateGraph {
    /// Normalised state representatives; index 0 is the initial state.
    pub states: Vec<P>,
    /// `edges[i]` — outgoing `(label, target)` step transitions of state `i`.
    pub edges: Vec<Vec<(Action, usize)>>,
    /// Whether exploration stopped before exhausting the state space.
    pub truncated: bool,
    /// Why exploration stopped early, when it did: the graph is still
    /// usable (every recorded state and edge is real), just incomplete.
    pub interrupted: Option<EngineError>,
}

impl StateGraph {
    /// A graph covering the full reachable space (no early stop).
    pub fn is_complete(&self) -> bool {
        !self.truncated
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Total number of transitions.
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// States with no outgoing step transition (terminated or waiting
    /// forever on input).
    pub fn deadlocks(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.edges[i].is_empty())
            .collect()
    }

    /// Whether any reachable transition is an output with subject `a` —
    /// "the system can eventually broadcast on `a`".
    pub fn can_output_on(&self, a: Name) -> bool {
        self.edges
            .iter()
            .flatten()
            .any(|(act, _)| act.is_output() && act.subject() == Some(a))
    }

    /// All output subjects occurring anywhere in the graph.
    pub fn output_subjects(&self) -> NameSet {
        let mut s = NameSet::new();
        for (act, _) in self.edges.iter().flatten() {
            if act.is_output() {
                if let Some(a) = act.subject() {
                    s.insert(a);
                }
            }
        }
        s
    }

    /// A shortest path (sequence of labels) from the initial state to a
    /// state satisfying `pred` on its outgoing edge, if any: used to
    /// extract witness traces.
    pub fn trace_to_output(&self, a: Name) -> Option<Vec<Action>> {
        // BFS storing back-pointers.
        let mut prev: Vec<Option<(usize, Action)>> = vec![None; self.len()];
        let mut seen = vec![false; self.len()];
        let mut queue = std::collections::VecDeque::from([0usize]);
        seen[0] = true;
        while let Some(i) = queue.pop_front() {
            for (act, j) in &self.edges[i] {
                if act.is_output() && act.subject() == Some(a) {
                    // Reconstruct path to i, then append this action.
                    let mut path = vec![act.clone()];
                    let mut cur = i;
                    while let Some((p, a2)) = prev[cur].clone() {
                        path.push(a2);
                        cur = p;
                    }
                    path.reverse();
                    return Some(path);
                }
                if !seen[*j] {
                    seen[*j] = true;
                    prev[*j] = Some((i, act.clone()));
                    queue.push_back(*j);
                }
            }
        }
        None
    }
}

/// Free names of `p` in order of first (left-to-right) occurrence.
pub fn free_names_in_order(p: &P) -> Vec<Name> {
    fn add(n: Name, bound: &[Name], out: &mut Vec<Name>) {
        if !bound.contains(&n) && !out.contains(&n) {
            out.push(n);
        }
    }
    fn go(p: &P, bound: &mut Vec<Name>, out: &mut Vec<Name>) {
        match &**p {
            Process::Nil => {}
            Process::Act(pre, cont) => match pre {
                Prefix::Tau => go(cont, bound, out),
                Prefix::Output(a, ys) => {
                    add(*a, bound, out);
                    for y in ys {
                        add(*y, bound, out);
                    }
                    go(cont, bound, out);
                }
                Prefix::Input(a, xs) => {
                    add(*a, bound, out);
                    let depth = bound.len();
                    bound.extend(xs.iter().copied());
                    go(cont, bound, out);
                    bound.truncate(depth);
                }
            },
            Process::Sum(l, r) | Process::Par(l, r) => {
                go(l, bound, out);
                go(r, bound, out);
            }
            Process::New(x, cont) => {
                bound.push(*x);
                go(cont, bound, out);
                bound.pop();
            }
            Process::Match(x, y, l, r) => {
                add(*x, bound, out);
                add(*y, bound, out);
                go(l, bound, out);
                go(r, bound, out);
            }
            Process::Call(_, args) | Process::Var(_, args) => {
                for a in args {
                    add(*a, bound, out);
                }
            }
            Process::Rec(def, args) => {
                for a in args {
                    add(*a, bound, out);
                }
                let depth = bound.len();
                bound.extend(def.params.iter().copied());
                go(&def.body, bound, out);
                bound.truncate(depth);
            }
        }
    }
    let mut bound = Vec::new();
    let mut out = Vec::new();
    go(p, &mut bound, &mut out);
    out
}

/// Renames every free name of `p` outside `protected` to `#e0, #e1, …` in
/// first-occurrence order, then α-canonicalises. Two states that differ
/// only by an injective renaming of their non-protected free names map to
/// the same representative.
pub fn normalize_state(p: &P, protected: &NameSet) -> P {
    // Structural GC first: inert nil husks and dead restrictions would
    // otherwise make looping systems grow without bound.
    let p = &bpi_core::prune(p);
    let mut subst = Subst::identity();
    let mut i = 0usize;
    for n in free_names_in_order(p) {
        if !protected.contains(n) {
            subst.bind(n, Name::extruded(i));
            i += 1;
        }
    }
    canon(&subst.apply_process(p))
}

/// Sequential breadth-first exploration of the step-move graph of `p`.
///
/// ```
/// use bpi_core::{parse_process, syntax::Defs};
/// use bpi_semantics::{explore, ExploreOpts};
/// let defs = Defs::new();
/// let p = parse_process("a<>.b<> + b<>").unwrap();
/// let g = explore(&p, &defs, ExploreOpts::default());
/// assert_eq!(g.len(), 3); // {a<>.b<> + b<>, b<>, nil}
/// assert!(!g.truncated);
/// assert!(g.can_output_on(bpi_core::Name::new("b")));
/// ```
pub fn explore(p: &P, defs: &Defs, opts: ExploreOpts) -> StateGraph {
    explore_budgeted(p, defs, opts, &Budget::unlimited())
}

/// [`explore`] under an explicit [`Budget`]. The effective state ceiling
/// is the smaller of `opts.max_states` and the budget's; deadline and
/// cancellation are polled once per expanded state. Exhaustion never
/// panics: the partial graph comes back with [`StateGraph::truncated`]
/// set and the reason in [`StateGraph::interrupted`].
pub fn explore_budgeted(p: &P, defs: &Defs, opts: ExploreOpts, budget: &Budget) -> StateGraph {
    let _span = bpi_obs::span("semantics.explore", "sequential");
    let lts = Lts::new(defs);
    let protected = p.free_names();
    let prot = opts.normalize_extruded.then_some(&protected);
    let norm = |q: &P| crate::cache::normalize_state_cached(q, prot);
    let cap = opts.max_states.min(budget.max_states());
    // Keys are hash-consed term ids of the normalised states: hashing and
    // equality become O(1) id comparisons instead of tree walks, and
    // revisited successors hit the interner's pointer fast path. (The
    // cell's interior OnceLocks never feed Hash/Eq, so the key is stable.)
    #[allow(clippy::mutable_key_type)]
    let mut index: HashMap<bpi_core::Consed, usize> = HashMap::new();
    let mut states = Vec::new();
    let mut edges: Vec<Vec<(Action, usize)>> = Vec::new();
    let mut interrupted: Option<EngineError> = None;

    let p0 = norm(p);
    index.insert(bpi_core::cons(&p0), 0);
    states.push(p0);
    edges.push(Vec::new());
    let mut frontier = vec![0usize];

    while let Some(i) = frontier.pop() {
        if let Err(e) = budget.check(states.len().min(cap)) {
            interrupted = Some(e);
            break;
        }
        let src = states[i].clone();
        let mut out = Vec::new();
        for (act, succ) in crate::cache::step_transitions_cached(&lts, &src).iter() {
            let state = norm(succ);
            let key = bpi_core::cons(&state);
            let j = match index.get(&key) {
                Some(&j) => j,
                None => {
                    if states.len() >= cap {
                        interrupted.get_or_insert(EngineError::StateBudgetExceeded { limit: cap });
                        continue;
                    }
                    let j = states.len();
                    index.insert(key, j);
                    states.push(state);
                    edges.push(Vec::new());
                    frontier.push(j);
                    j
                }
            };
            out.push((act.clone(), j));
        }
        edges[i] = out;
    }
    let g = StateGraph {
        states,
        edges,
        truncated: interrupted.is_some(),
        interrupted,
    };
    record_explore(&g);
    g
}

/// Early-exit reachability: is an output with subject `a` reachable from
/// `p` through step moves? Returns `Some(true)` as soon as one is found,
/// `Some(false)` if the full space was exhausted without one, and `None`
/// if the state budget ran out first.
pub fn output_reachable(p: &P, defs: &Defs, a: Name, opts: ExploreOpts) -> Option<bool> {
    output_reachable_budgeted(p, defs, a, opts, &Budget::unlimited()).ok()
}

/// [`output_reachable`] with a typed verdict: `Ok(true)`/`Ok(false)` are
/// definite answers, `Err` carries *why* the search was inconclusive
/// (state ceiling, deadline, or cancellation).
pub fn output_reachable_budgeted(
    p: &P,
    defs: &Defs,
    a: Name,
    opts: ExploreOpts,
    budget: &Budget,
) -> Result<bool, EngineError> {
    let lts = Lts::new(defs);
    let protected = p.free_names();
    let prot = opts.normalize_extruded.then_some(&protected);
    let norm = |q: &P| crate::cache::normalize_state_cached(q, prot);
    let cap = opts.max_states.min(budget.max_states());
    // Consed hashes by class id; its interior OnceLocks never feed Hash/Eq.
    #[allow(clippy::mutable_key_type)]
    let mut seen: std::collections::HashSet<bpi_core::Consed> = std::collections::HashSet::new();
    let mut work = vec![norm(p)];
    seen.insert(bpi_core::cons(&work[0]));
    let mut interrupted: Option<EngineError> = None;
    while let Some(q) = work.pop() {
        if let Err(e) = budget.check(0) {
            // Deadline/cancellation only here — the state ceiling is
            // handled below so a positive answer can still surface from
            // the already-discovered frontier.
            interrupted = Some(e);
            break;
        }
        for (act, succ) in crate::cache::step_transitions_cached(&lts, &q).iter() {
            if act.is_output() && act.subject() == Some(a) {
                return Ok(true);
            }
            let state = norm(succ);
            let key = bpi_core::cons(&state);
            if !seen.contains(&key) {
                if seen.len() >= cap {
                    interrupted.get_or_insert(EngineError::StateBudgetExceeded { limit: cap });
                    continue;
                }
                seen.insert(key);
                work.push(state);
            }
        }
    }
    match interrupted {
        Some(e) => Err(e),
        None => Ok(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpi_core::builder::*;

    #[test]
    fn explores_linear_system() {
        let defs = Defs::new();
        let [a, b] = names(["a", "b"]);
        let p = out(a, [], out_(b, []));
        let g = explore(&p, &defs, ExploreOpts::default());
        assert_eq!(g.len(), 3);
        assert_eq!(g.edge_count(), 2);
        assert!(!g.truncated);
        assert!(g.can_output_on(b));
        assert_eq!(g.deadlocks().len(), 1);
    }

    #[test]
    fn extrusion_loops_fold_to_finite_graph() {
        // (rec X(a). νt āt.X⟨a⟩)⟨a⟩ extrudes a fresh token forever; with
        // normalisation the graph is a single self-loop state.
        let defs = Defs::new();
        let [a, t] = names(["a", "t"]);
        let xid = bpi_core::syntax::Ident::new("ExtrudeLoop");
        let p = rec(xid, [a], new(t, out(a, [t], var(xid, [a]))), [a]);
        let g = explore(&p, &defs, ExploreOpts::default());
        assert_eq!(g.len(), 1, "states: {:?}", g.states);
        assert!(!g.truncated);
    }

    #[test]
    fn truncation_reported() {
        // A process that accumulates parallel components forever:
        // (rec X(b). τ.(X⟨b⟩ ‖ b̄))⟨b⟩ reaches X ‖ b̄ⁿ for every n.
        let defs = Defs::new();
        let b = bpi_core::Name::new("b");
        let xid = bpi_core::syntax::Ident::new("Grow");
        let p = rec(xid, [b], tau(par(var(xid, [b]), out_(b, []))), [b]);
        let g = explore(
            &p,
            &defs,
            ExploreOpts {
                max_states: 16,
                normalize_extruded: true,
            },
        );
        assert!(g.truncated);
        assert!(g.len() <= 16);
    }

    #[test]
    fn trace_extraction() {
        let defs = Defs::new();
        let [a, b, c] = names(["a", "b", "c"]);
        let p = sum(out(a, [], out_(c, [])), out_(b, []));
        let g = explore(&p, &defs, ExploreOpts::default());
        let tr = g.trace_to_output(c).expect("c is reachable");
        assert_eq!(tr.len(), 2);
        assert_eq!(tr[0].subject(), Some(a));
        assert_eq!(tr[1].subject(), Some(c));
        assert!(g.trace_to_output(Name::new("zzz")).is_none());
    }

    #[test]
    fn free_names_in_order_is_first_occurrence() {
        let [a, b, x] = names(["a", "b", "x"]);
        let p = par(out_(b, [a]), inp(a, [x], out_(x, [b])));
        assert_eq!(free_names_in_order(&p), vec![b, a]);
    }

    /// An unbounded pump used by the budget/degradation tests.
    fn grow_pump() -> P {
        let b = bpi_core::Name::new("b");
        let xid = bpi_core::syntax::Ident::new("Grow");
        rec(xid, [b], tau(par(var(xid, [b]), out_(b, []))), [b])
    }

    #[test]
    fn truncation_records_typed_reason() {
        let defs = Defs::new();
        let g = explore(
            &grow_pump(),
            &defs,
            ExploreOpts {
                max_states: 16,
                normalize_extruded: true,
            },
        );
        assert!(g.truncated);
        assert!(!g.is_complete());
        assert_eq!(
            g.interrupted,
            Some(EngineError::StateBudgetExceeded { limit: 16 })
        );
    }

    #[test]
    fn cancellation_interrupts_sequential_exploration() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let defs = Defs::new();
        let flag = Arc::new(AtomicBool::new(true));
        let budget = Budget::unlimited().with_cancel_flag(flag);
        let g = explore_budgeted(&grow_pump(), &defs, ExploreOpts::default(), &budget);
        assert!(g.truncated);
        assert_eq!(g.interrupted, Some(EngineError::Cancelled));
        // Still usable: the initial state is present.
        assert!(!g.is_empty());
    }

    #[test]
    fn output_reachable_budgeted_is_typed() {
        let defs = Defs::new();
        let b = bpi_core::Name::new("b");
        let zzz = bpi_core::Name::new("zzz");
        let opts = ExploreOpts {
            max_states: 8,
            normalize_extruded: true,
        };
        // Reachable output found even under a tiny budget.
        assert_eq!(
            output_reachable_budgeted(&grow_pump(), &defs, b, opts, &Budget::unlimited()),
            Ok(true)
        );
        // Unreachable output on an unbounded space: typed exhaustion.
        assert_eq!(
            output_reachable_budgeted(&grow_pump(), &defs, zzz, opts, &Budget::unlimited()),
            Err(EngineError::StateBudgetExceeded { limit: 8 })
        );
        // The Option API degrades to None, as before.
        assert_eq!(output_reachable(&grow_pump(), &defs, zzz, opts), None);
    }
}
