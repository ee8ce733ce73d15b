//! Compositional graph construction: minimize-then-compose with
//! symmetry reduction (ISSUE 8).
//!
//! The paper's expansion law (Table 8) and congruence theorems license
//! analysing a top-level parallel composition component-wise: build
//! each component's graph separately, quotient each by strong labelled
//! bisimilarity — the finest of the six variants, and a congruence for
//! `‖` — and then form the *synchronized product* of the minimized
//! graphs under the broadcast rules (12)–(14) of Table 3:
//!
//! * a `τ` of one component interleaves;
//! * an output `ā⟨ṽ⟩` of one component is matched in **every** other
//!   component simultaneously — each either takes an input edge
//!   labelled exactly `a⟨ṽ⟩` or stays put if it discards `a`, and a
//!   component that can do neither *blocks* the broadcast;
//! * an environment input `a⟨ṽ⟩` likewise fans out over all
//!   components, and exists only if at least one component actually
//!   receives (otherwise the composed state discards `a`).
//!
//! On top of the product sits a **symmetry reduction**: syntactically
//! identical components (the many-identical-node shape of every
//! ring/election topology) share one hash-consed term, hence one
//! quotiented graph, and permuting them is a graph automorphism of the
//! product. Product states are therefore kept *orbit-canonical* — per
//! class of interchangeable components, a sorted multiset of local
//! states — which turns the `2^N`/`3^N` monolithic ladders into
//! `O(N^k)` products (BENCH_8, EXPERIMENTS.md B15).
//!
//! ## Soundness gate
//!
//! The construction falls back to the monolithic build ([`try_compose_pair`]
//! returns `None`) unless a conservative gate holds, checked jointly
//! over *both* systems of a comparison:
//!
//! * the root is a top-level parallel composition on at least one side
//!   (a restriction above the spine scopes over every component, so
//!   component-wise analysis would lose the shared binder);
//! * no component graph of a product side carries a bound-output label
//!   — scope extrusion across the product would need the restriction
//!   pushed over it;
//! * no component graph of a product side has a *silent blocker* (a
//!   state that neither discards nor visibly listens on some pool
//!   channel, [`Graph::covers_pool`]) — such a state is labelled-
//!   bisimilar to a discarding one, yet blocks broadcasts the
//!   discarding one lets through, so quotienting before composing
//!   would not be sound;
//! * input arities are uniform per channel across every participating
//!   graph, and output arities match them — the mixed-arity regime
//!   where the pairwise relation itself is non-transitive (module docs
//!   of [`crate::partition`]) and where an arity-mismatched broadcast
//!   would block exactly the states the quotient just merged away.
//!
//! Under the gate every broadcast matches the listeners' arity, every
//! state either receives or discards, and strong labelled bisimilarity
//! is a congruence for the product — so tuple ↦ `s₁‖…‖sₖ` is a
//! functional bisimulation and the composed graph is strongly
//! labelled-bisimilar to the monolithic one. Verdicts for all six
//! variants (all coarser than strong labelled) therefore agree
//! pointwise at the roots; `compose_oracle.rs` checks exactly that
//! differentially against the monolithic engine.

use crate::bisim::Variant;
use crate::graph::Graph;
use crate::partition::quotient;
use bpi_core::action::Action;
use bpi_core::name::{Name, NameSet};
use bpi_core::syntax::{Defs, P};
use bpi_core::Consed;
use bpi_obs::{counter, Counter, Det, Value};
use bpi_semantics::budget::{Budget, EngineError};
use bpi_semantics::par_components;
use parking_lot::RwLock;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::{Arc, LazyLock};

// All deterministic: the gate is a pure function of the two terms, the
// product construction is sequential with canonical BFS numbering, and
// the component builds/quotients are thread-independent.
static COMPOSE_BUILDS: LazyLock<&Counter> =
    LazyLock::new(|| counter("equiv.compose.builds", Det::Deterministic));
static COMPOSE_COMPONENTS: LazyLock<&Counter> =
    LazyLock::new(|| counter("equiv.compose.components", Det::Deterministic));
static COMPOSE_CLASSES: LazyLock<&Counter> =
    LazyLock::new(|| counter("equiv.compose.classes", Det::Deterministic));
static COMPOSE_STATES: LazyLock<&Counter> =
    LazyLock::new(|| counter("equiv.compose.states", Det::Deterministic));

/// The `BPI_COMPOSE` override, re-read on every dispatch (tests flip it
/// mid-process): `1`/`true`/`on` route [`crate::Checker`] fixpoints
/// through the compositional engine (with the monolithic build as the
/// automatic fallback when the gate fails); empty, unset, `0`,
/// `false`, `off` or `auto` keep the monolithic default; anything else
/// warns once and stays monolithic, mirroring the `BPI_ENGINE` /
/// `BPI_THREADS` env-parse hardening.
pub fn compose_enabled() -> bool {
    parse_compose(std::env::var("BPI_COMPOSE").ok().as_deref())
}

fn parse_compose(raw: Option<&str>) -> bool {
    let Some(raw) = raw else {
        return false;
    };
    match raw.trim().to_ascii_lowercase().as_str() {
        "1" | "true" | "on" => true,
        "" | "0" | "false" | "off" | "auto" => false,
        other => {
            bpi_obs::warn_once(
                "equiv.compose",
                &format!(
                    "ignoring unrecognised BPI_COMPOSE value {other:?} \
                     (expected 1/0, true/false, on/off or auto)"
                ),
            );
            false
        }
    }
}

/// One side of a comparison, decomposed: the top-level parallel
/// components and their graphs over the shared pool.
struct Side {
    comps: Vec<P>,
    graphs: Vec<Arc<Graph>>,
}

impl Side {
    fn build(
        p: &P,
        defs: &Defs,
        pool: &[Name],
        opts: crate::graph::Opts,
        budget: &Budget,
        threads: usize,
    ) -> Result<Side, EngineError> {
        let comps = par_components(p);
        let graphs = comps
            .iter()
            .map(|c| Graph::build_cached_threads(c, defs, pool, opts, budget, threads))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Side { comps, graphs })
    }

    fn is_product(&self) -> bool {
        self.comps.len() >= 2
    }
}

/// The joint soundness gate over every participating graph (module
/// docs): per-side product preconditions plus cross-side arity
/// coherence.
fn gate_ok(sides: &[&Side]) -> bool {
    for side in sides {
        if side.is_product() {
            for g in &side.graphs {
                if g.has_bound_output_labels() || !g.covers_pool() {
                    return false;
                }
            }
        }
    }
    let mut in_arity: BTreeMap<Name, usize> = BTreeMap::new();
    let mut out_arities: BTreeMap<Name, BTreeSet<usize>> = BTreeMap::new();
    for side in sides {
        for g in &side.graphs {
            for act in g.csr().labels() {
                match act {
                    Action::Input { chan, objects } => match in_arity.get(chan) {
                        Some(&k) if k != objects.len() => return false,
                        Some(_) => {}
                        None => {
                            in_arity.insert(*chan, objects.len());
                        }
                    },
                    Action::Output { chan, objects, .. } => {
                        out_arities.entry(*chan).or_default().insert(objects.len());
                    }
                    _ => {}
                }
            }
        }
    }
    for (a, outs) in &out_arities {
        if let Some(&k) = in_arity.get(a) {
            if outs.iter().any(|&j| j != k) {
                return false;
            }
        }
    }
    true
}

/// A symmetry class: one quotiented component graph shared by `count`
/// syntactically identical (hash-cons-equal) components.
struct Class {
    g: Arc<Graph>,
    count: usize,
}

/// Groups components into symmetry classes by hash-consed identity
/// (order of first occurrence) and minimizes one graph per class by
/// the strong labelled quotient — the finest variant, sound for
/// checking any of the six afterwards.
fn classes_of(comps: &[P], graphs: &[Arc<Graph>]) -> Vec<Class> {
    let mut ids: Vec<Consed> = Vec::new();
    let mut classes: Vec<Class> = Vec::new();
    for (c, g) in comps.iter().zip(graphs) {
        let id = bpi_core::cons(c);
        if let Some(k) = ids.iter().position(|x| *x == id) {
            classes[k].count += 1;
        } else {
            ids.push(id);
            classes.push(Class {
                g: Arc::new(quotient(Variant::StrongLabelled, g)),
                count: 1,
            });
        }
    }
    classes
}

/// The in-flight product state space: orbit-canonical tuples interned
/// in discovery order (canonical BFS numbering, same discipline as the
/// monolithic builder).
struct ProductSpace {
    /// Per class, the `[start, end)` slice of tuple positions it owns.
    bounds: Vec<(usize, usize)>,
    index: HashMap<Vec<u32>, usize>,
    tuples: Vec<Vec<u32>>,
    frontier: VecDeque<usize>,
    cap: usize,
}

impl ProductSpace {
    /// Sorts each class segment: the orbit-canonical representative.
    fn canon(&self, t: &mut [u32]) {
        for &(s, e) in &self.bounds {
            t[s..e].sort_unstable();
        }
    }

    /// Interns an (uncanonicalized) tuple, enqueuing it on first sight.
    fn intern(&mut self, mut t: Vec<u32>) -> Result<usize, EngineError> {
        self.canon(&mut t);
        if let Some(&i) = self.index.get(&t) {
            return Ok(i);
        }
        if self.tuples.len() >= self.cap {
            return Err(EngineError::StateBudgetExceeded { limit: self.cap });
        }
        let i = self.tuples.len();
        self.index.insert(t.clone(), i);
        self.tuples.push(t);
        self.frontier.push_back(i);
        Ok(i)
    }
}

/// Every combination of one choice per option set, in lexicographic
/// order of the option indices (deterministic).
fn cartesian(
    opts: &[Vec<u32>],
    mut f: impl FnMut(&[u32]) -> Result<(), EngineError>,
) -> Result<(), EngineError> {
    let mut idx = vec![0usize; opts.len()];
    let mut choice: Vec<u32> = opts.iter().map(|o| o[0]).collect();
    loop {
        f(&choice)?;
        let mut k = opts.len();
        loop {
            if k == 0 {
                return Ok(());
            }
            k -= 1;
            idx[k] += 1;
            if idx[k] < opts[k].len() {
                choice[k] = opts[k][idx[k]];
                break;
            }
            idx[k] = 0;
            choice[k] = opts[k][0];
        }
    }
}

/// The synchronized product of the minimized class graphs, up to
/// permutation of interchangeable components. `Err` — never a panic —
/// when the (already symmetry-reduced) product exceeds the state cap.
fn product(
    classes: &[Class],
    pool: &[Name],
    cap: usize,
    budget: &Budget,
) -> Result<Graph, EngineError> {
    let m: usize = classes.iter().map(|c| c.count).sum();
    let mut pos_class: Vec<usize> = Vec::with_capacity(m);
    let mut bounds: Vec<(usize, usize)> = Vec::with_capacity(classes.len());
    for (k, c) in classes.iter().enumerate() {
        let start = pos_class.len();
        pos_class.extend(std::iter::repeat_n(k, c.count));
        bounds.push((start, start + c.count));
    }
    // The joint environment-input alphabet: every input label of every
    // class graph (all built over the same pool, so labels align).
    let joint_inputs: Vec<Action> = classes
        .iter()
        .flat_map(|c| c.g.csr().labels().iter().filter(|a| a.is_input()).cloned())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();

    let mut space = ProductSpace {
        bounds,
        index: HashMap::new(),
        tuples: Vec::new(),
        frontier: VecDeque::new(),
        cap,
    };
    space.intern(vec![0; m])?;
    let mut edges: Vec<Vec<(Action, usize)>> = Vec::new();
    let mut discarding: Vec<NameSet> = Vec::new();

    // The receive-or-stay option set of position `j` for label `act`
    // (an input label): its input-edge targets on exactly `act`, or
    // itself if it discards the subject — mutually exclusive by Table 2.
    // An empty set blocks the broadcast.
    let options = |t: &[u32], j: usize, act: &Action, chan: Name| -> Vec<u32> {
        let g = &classes[pos_class[j]].g;
        let s = t[j] as usize;
        if g.state_discards(s, chan) {
            return vec![t[j]];
        }
        let Some(lid) = g.csr().label_id(act) else {
            return Vec::new();
        };
        let set: BTreeSet<u32> = g
            .edge_ids(s)
            .filter(|&(l, _)| l == lid)
            .map(|(_, tgt)| tgt as u32)
            .collect();
        set.into_iter().collect()
    };

    while let Some(i) = space.frontier.pop_front() {
        budget.check(0)?;
        let t = space.tuples[i].clone();
        let mut seen: BTreeSet<(Action, usize)> = BTreeSet::new();
        let mut es: Vec<(Action, usize)> = Vec::new();

        // τ of any component interleaves. Identical positions (same
        // class, same local state) yield the same orbit, so only the
        // first of a run moves.
        for pos in 0..m {
            if pos > 0 && pos_class[pos] == pos_class[pos - 1] && t[pos] == t[pos - 1] {
                continue;
            }
            let g = &classes[pos_class[pos]].g;
            for tgt in g.tau_succs(t[pos] as usize) {
                let mut nt = t.clone();
                nt[pos] = tgt as u32;
                let ni = space.intern(nt)?;
                if seen.insert((Action::Tau, ni)) {
                    es.push((Action::Tau, ni));
                }
            }
        }

        // Broadcast: an output of one component reaches every other
        // simultaneously (rules (12)–(14)); any other component that
        // neither receives nor discards blocks it.
        for pos in 0..m {
            if pos > 0 && pos_class[pos] == pos_class[pos - 1] && t[pos] == t[pos - 1] {
                continue;
            }
            let g = &classes[pos_class[pos]].g;
            let outs: Vec<(Action, usize)> = g
                .out_edges(t[pos] as usize)
                .map(|(a, tgt)| (a.clone(), tgt))
                .collect();
            for (act, tgt) in outs {
                let chan = act.subject().expect("output labels have a subject");
                let recv = Action::Input {
                    chan,
                    objects: act.objects().to_vec(),
                };
                let others: Vec<usize> = (0..m).filter(|&j| j != pos).collect();
                let opts: Vec<Vec<u32>> = others
                    .iter()
                    .map(|&j| options(&t, j, &recv, chan))
                    .collect();
                if opts.iter().any(|o| o.is_empty()) {
                    continue; // blocked broadcast
                }
                cartesian(&opts, |choice| {
                    let mut nt = t.clone();
                    nt[pos] = tgt as u32;
                    for (&j, &c) in others.iter().zip(choice) {
                        nt[j] = c;
                    }
                    let ni = space.intern(nt)?;
                    if seen.insert((act.clone(), ni)) {
                        es.push((act.clone(), ni));
                    }
                    Ok(())
                })?;
            }
        }

        // Environment input: all components react; the label exists
        // only if some component actually receives (all-discard is the
        // composed discard, not an input).
        for act in &joint_inputs {
            let chan = act.subject().expect("input labels have a subject");
            let opts: Vec<Vec<u32>> = (0..m).map(|j| options(&t, j, act, chan)).collect();
            if opts.iter().any(|o| o.is_empty()) {
                continue; // blocked
            }
            let receives =
                (0..m).any(|j| !classes[pos_class[j]].g.state_discards(t[j] as usize, chan));
            if !receives {
                continue; // every component discards: so does the product
            }
            cartesian(&opts, |choice| {
                let ni = space.intern(choice.to_vec())?;
                if seen.insert((act.clone(), ni)) {
                    es.push((act.clone(), ni));
                }
                Ok(())
            })?;
        }

        // Rule (14) composed: the product discards exactly the channels
        // every component discards.
        let mut disc = NameSet::new();
        for &a in pool {
            if (0..m).all(|j| classes[pos_class[j]].g.state_discards(t[j] as usize, a)) {
                disc.insert(a);
            }
        }
        if edges.len() <= i {
            edges.resize(i + 1, Vec::new());
            discarding.resize(i + 1, NameSet::new());
        }
        edges[i] = es;
        discarding[i] = disc;
    }
    let n = space.tuples.len();
    edges.resize(n, Vec::new());
    discarding.resize(n, NameSet::new());

    // Display states: the parallel recomposition of the class
    // representatives, in position order. Kept unnormalised — the
    // tuple, not the term, is the state identity here.
    let states: Vec<P> = space
        .tuples
        .iter()
        .map(|t| {
            bpi_core::builder::par_of(
                t.iter()
                    .enumerate()
                    .map(|(pos, &s)| classes[pos_class[pos]].g.states[s as usize].clone()),
            )
        })
        .collect();
    Ok(Graph::from_parts_record(
        states,
        edges,
        discarding,
        pool.to_vec(),
        false,
    ))
}

/// Memo for composed graphs, keyed like the monolithic graph memo —
/// *(consed seed, defs generation, pool)* — but kept separate from it:
/// a composed graph has a different (smaller) state space than the
/// monolithic graph of the same term, and the two must never answer
/// for each other. Cleared wholesale on overflow.
type ComposeKey = (Consed, u64, Vec<Name>);
static COMPOSE_MEMO: LazyLock<RwLock<HashMap<ComposeKey, Arc<Graph>>>> =
    LazyLock::new(|| RwLock::new(HashMap::new()));
const COMPOSE_MEMO_CAP: usize = 1 << 10;

fn composed_graph(
    p: &P,
    side: &Side,
    defs: &Defs,
    pool: &[Name],
    opts: crate::graph::Opts,
    budget: &Budget,
) -> Result<Arc<Graph>, EngineError> {
    let cap = opts.max_states.min(budget.max_states());
    let key = (bpi_core::cons(p), defs.generation(), pool.to_vec());
    if let Some(g) = COMPOSE_MEMO.read().get(&key) {
        if g.len() > cap {
            return Err(EngineError::StateBudgetExceeded { limit: cap });
        }
        return Ok(g.clone());
    }
    let classes = classes_of(&side.comps, &side.graphs);
    let num_classes = classes.len();
    let g = if side.is_product() {
        Arc::new(product(&classes, pool, cap, budget)?)
    } else {
        classes
            .into_iter()
            .next()
            .map(|c| c.g)
            .expect("par_components is never empty")
    };
    if bpi_obs::metrics_enabled() {
        COMPOSE_BUILDS.inc();
        COMPOSE_COMPONENTS.add(side.comps.len() as u64);
        COMPOSE_CLASSES.add(num_classes as u64);
        COMPOSE_STATES.add(g.len() as u64);
    }
    bpi_obs::emit("equiv.compose", "built", || {
        vec![
            ("components", Value::from(side.comps.len())),
            ("classes", Value::from(num_classes)),
            ("states", Value::from(g.len())),
        ]
    });
    let mut memo = COMPOSE_MEMO.write();
    if memo.len() >= COMPOSE_MEMO_CAP {
        memo.clear();
    }
    memo.insert(key, g.clone());
    Ok(g)
}

/// The two composed graphs [`try_compose_pair`] hands back to the
/// checker in place of the monolithic pair.
pub type ComposedPair = (Arc<Graph>, Arc<Graph>);

/// The compositional path of [`crate::Checker::try_fixpoint`]: both
/// systems decomposed, gated jointly, minimized per symmetry class and
/// recomposed as synchronized products. `Ok(None)` means the gate
/// declined (not a top-level parallel shape, scope extrusion, silent
/// blockers, or mixed arities) and the caller should build
/// monolithically; `Err` is a budget error, exactly as the monolithic
/// build would report it.
///
/// The returned graphs are strongly labelled-bisimilar to the
/// monolithic graphs of `p` and `q`, so [`crate::refine_auto`] over
/// them yields the same root verdict for every variant —
/// `compose_oracle.rs` holds this pointwise against the monolithic
/// engine.
pub fn try_compose_pair(
    p: &P,
    q: &P,
    defs: &Defs,
    pool: &[Name],
    opts: crate::graph::Opts,
    budget: &Budget,
    threads: usize,
) -> Result<Option<ComposedPair>, EngineError> {
    let s1 = Side::build(p, defs, pool, opts, budget, threads)?;
    let s2 = Side::build(q, defs, pool, opts, budget, threads)?;
    if !s1.is_product() && !s2.is_product() {
        return Ok(None);
    }
    if !gate_ok(&[&s1, &s2]) {
        return Ok(None);
    }
    let g1 = composed_graph(p, &s1, defs, pool, opts, budget)?;
    let g2 = composed_graph(q, &s2, defs, pool, opts, budget)?;
    Ok(Some((g1, g2)))
}

/// The compositional build of a single system (the BENCH_8 ladders and
/// the oracle tests drive this directly): `Ok(None)` when the gate
/// declines, otherwise the symmetry-reduced synchronized product of
/// the minimized components.
pub fn build_composed(
    p: &P,
    defs: &Defs,
    pool: &[Name],
    opts: crate::graph::Opts,
    budget: &Budget,
    threads: usize,
) -> Result<Option<Arc<Graph>>, EngineError> {
    let side = Side::build(p, defs, pool, opts, budget, threads)?;
    if !side.is_product() || !gate_ok(&[&side]) {
        return Ok(None);
    }
    composed_graph(p, &side, defs, pool, opts, budget).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bisim::refine;
    use crate::graph::{shared_pool, Opts};
    use bpi_core::builder::*;

    const ALL: [Variant; 6] = [
        Variant::StrongBarbed,
        Variant::WeakBarbed,
        Variant::StrongStep,
        Variant::WeakStep,
        Variant::StrongLabelled,
        Variant::WeakLabelled,
    ];

    #[test]
    fn parse_compose_accepts_documented_forms_only() {
        for on in ["1", "true", "on", " ON ", "True"] {
            assert!(parse_compose(Some(on)), "{on:?} must enable");
        }
        for off in ["0", "false", "off", "auto", "", "  "] {
            assert!(!parse_compose(Some(off)), "{off:?} must disable");
        }
        assert!(!parse_compose(None));
    }

    #[test]
    fn parse_compose_warns_once_on_garbage() {
        // First sighting of a distinct garbage value warns; repeats are
        // deduplicated. Either way the engine stays monolithic.
        assert!(!parse_compose(Some("yes-please")));
        let warned = bpi_obs::warn_once(
            "equiv.compose",
            "ignoring unrecognised BPI_COMPOSE value \"yes-please\" \
             (expected 1/0, true/false, on/off or auto)",
        );
        assert!(!warned, "parse_compose must have consumed the first warn");
    }

    /// Two identical broadcasters over shared channels: the composed
    /// graph must be bisimilar to the monolithic one for every variant,
    /// and the symmetry reduction must keep the orbit space below the
    /// full ordered product.
    #[test]
    fn composed_product_is_bisimilar_to_monolithic() {
        let [a, b] = names(["a", "b"]);
        let station = sum(out_(a, []), tau(out(b, [], inp_(a, []))));
        let p = par(station.clone(), par(station.clone(), station));
        let defs = Defs::new();
        let opts = Opts::default();
        let pool = shared_pool(&p, &p, opts.fresh_inputs);
        let mono = Graph::build(&p, &defs, &pool, opts).expect("finite");
        let comp = build_composed(&p, &defs, &pool, opts, &Budget::unlimited(), 1)
            .expect("within budget")
            .expect("top-level par passes the gate");
        assert!(comp.len() <= mono.len(), "symmetry must not inflate");
        for v in ALL {
            let rel = refine(v, &mono, &comp);
            assert!(rel.holds(0, 0), "{v:?}: composed ≁ monolithic");
        }
    }

    /// A non-Par root and a restriction above the spine decline the
    /// gate rather than mis-compose.
    #[test]
    fn gate_declines_non_product_shapes() {
        let [a, b] = names(["a", "b"]);
        let defs = Defs::new();
        let opts = Opts::default();
        let single = out(a, [b], nil());
        let pool = shared_pool(&single, &single, opts.fresh_inputs);
        assert!(
            build_composed(&single, &defs, &pool, opts, &Budget::unlimited(), 1)
                .unwrap()
                .is_none()
        );
        let scoped = new(a, par(out_(a, []), inp_(a, [b])));
        let pool = shared_pool(&scoped, &scoped, opts.fresh_inputs);
        assert!(
            build_composed(&scoped, &defs, &pool, opts, &Budget::unlimited(), 1)
                .unwrap()
                .is_none()
        );
    }

    /// Scope extrusion across components (a bound-output label) forces
    /// the monolithic fallback.
    #[test]
    fn gate_declines_scope_extrusion() {
        let [a, b, x] = names(["a", "b", "x"]);
        let extruder = new(b, out(a, [b], inp_(b, [x])));
        let p = par(extruder, inp_(a, [x]));
        let defs = Defs::new();
        let opts = Opts::default();
        let pool = shared_pool(&p, &p, opts.fresh_inputs);
        assert!(
            build_composed(&p, &defs, &pool, opts, &Budget::unlimited(), 1)
                .unwrap()
                .is_none()
        );
    }

    /// Mixed input arities on one channel across the two sides decline
    /// the joint gate: the quotient would merge states the other
    /// side's arity profile can still tell apart.
    #[test]
    fn gate_declines_mixed_arities_jointly() {
        let [a, b, x, y] = names(["a", "b", "x", "y"]);
        let p = par(inp_(a, [x]), out_(b, []));
        let q = par(inp_(a, [x, y]), out_(b, []));
        let defs = Defs::new();
        let opts = Opts::default();
        let pool = shared_pool(&p, &q, opts.fresh_inputs);
        let got = try_compose_pair(&p, &q, &defs, &pool, opts, &Budget::unlimited(), 1)
            .expect("within budget");
        assert!(got.is_none(), "joint arity mix must fall back");
    }

    /// A blocked broadcast (a listener the output can never reach at
    /// its arity) must not silently vanish: the silent-blocker /
    /// arity gate declines instead.
    #[test]
    fn gate_declines_silent_blockers() {
        let [a, x, y] = names(["a", "x", "y"]);
        // `a(x).0 | a(y,z).0` has an inner component that neither
        // receives monadic broadcasts nor discards them.
        let blocker = par(inp_(a, [x]), inp_(a, [x, y]));
        let p = par(blocker, out_(a, [x]));
        let defs = Defs::new();
        let opts = Opts::default();
        let pool = shared_pool(&p, &p, opts.fresh_inputs);
        assert!(
            build_composed(&p, &defs, &pool, opts, &Budget::unlimited(), 1)
                .unwrap()
                .is_none()
        );
    }

    /// The orbit reduction is polynomial where the monolithic space is
    /// exponential: N identical `ā + τ.b̄` components over shared
    /// channels have ~2^(N+1) monolithic states but only C(N+2, 2)
    /// orbit states.
    #[test]
    fn symmetry_reduction_is_polynomial_on_identical_components() {
        let [a, b] = names(["a", "b"]);
        let n = 8usize;
        let station = || sum(out_(a, []), tau(out_(b, [])));
        let p = par_of((0..n).map(|_| station()));
        let defs = Defs::new();
        let opts = Opts::default();
        let pool = shared_pool(&p, &p, opts.fresh_inputs);
        let comp = build_composed(&p, &defs, &pool, opts, &Budget::unlimited(), 1)
            .expect("within budget")
            .expect("gate passes");
        let orbit_bound = (n + 1) * (n + 2) / 2;
        assert!(
            comp.len() <= orbit_bound,
            "expected ≤ {orbit_bound} orbit states, got {}",
            comp.len()
        );
        let mono = Graph::build(&p, &defs, &pool, opts).expect("finite");
        assert!(
            mono.len() > comp.len() * 4,
            "monolithic must stay exponential"
        );
        for v in ALL {
            assert!(refine(v, &mono, &comp).holds(0, 0), "{v:?} diverged");
        }
    }
}
