//! ε-approximate bisimilarity: a quantitative relaxation of the six
//! exact relations of [`crate::bisim`].
//!
//! The exact refiners kill a pair `(i, j)` as soon as *one* obligation
//! of the transfer property fails. Under a quantitative fault model
//! (lossy broadcast, `bpi-semantics::prob`) that is too brittle: a
//! system that matches its specification on all but a sliver of its
//! behaviour is "almost" equivalent, and the interesting question is
//! *how far* apart the two processes are. This module measures that
//! distance per pair with [`defect`]: the fraction of `(i, ·)`'s
//! transfer obligations (moves to match, discards to mirror) that `(j,
//! ·)` cannot answer into the current relation. Missing an *observable*
//! — a barb `i` has and `j` lacks — is a categorical failure, not an
//! approximately-matched one, and scores the full `1.0`.
//!
//! [`refine_epsilon`] then computes the greatest relation in which
//! every pair's defect (in both directions) stays `≤ ε`, by the same
//! chaotic iteration as the exact engines: a predecessor-indexed
//! worklist over the product graph with the naive-sweep cutover on
//! small products. Shrinking the relation can only *raise* defects
//! (matches disappear, none appear), so the kill operator is monotone
//! and every re-examination schedule converges to the same greatest
//! fixpoint.
//!
//! **The exact engines stay the oracle.** By construction `defect > 0 ⟺
//! ¬direction` against the same relation, so at `ε = 0` the kill
//! condition coincides with the exact one and [`refine_epsilon`]
//! reproduces [`refine`](crate::bisim::refine)'s fixpoint *bit for bit*
//! (`epsilon_oracle.rs` enforces this on the regression-seed corpus,
//! all six variants). [`epsilon_distance`] inverts the check: the least
//! `ε` (to a tolerance) at which the roots stay related — `0` exactly
//! on bisimilar pairs, `1` when an observable separates them.

use crate::bisim::{PairRelation, RelView, Variant, NAIVE_MAX_PAIRS};
use crate::graph::{shared_pool, Graph, Opts};
use bpi_core::action::Action;
use bpi_core::syntax::{Defs, P};
use bpi_obs::{counter, Counter, Det, Value};
use bpi_semantics::budget::{Budget, EngineError};
use std::collections::{BTreeSet, VecDeque};
use std::sync::LazyLock;

// Result-derived metrics are deterministic (every schedule reaches the
// same fixpoint); pop counts are schedule-dependent and advisory.
static EPSILON_RUNS: LazyLock<&Counter> =
    LazyLock::new(|| counter("equiv.epsilon.runs", Det::Deterministic));
static EPSILON_SURVIVORS: LazyLock<&Counter> =
    LazyLock::new(|| counter("equiv.epsilon.survivors", Det::Deterministic));
static EPSILON_POPS: LazyLock<&Counter> =
    LazyLock::new(|| counter("equiv.epsilon.pops", Det::Advisory));

fn record_epsilon(engine: &'static str, pr: &PairRelation, n1: usize, n2: usize, eps: f64) {
    if !bpi_obs::metrics_enabled() && !bpi_obs::tracing_enabled() {
        return;
    }
    let pairs = n1 * n2;
    let survivors: usize = pr
        .rel
        .iter()
        .map(|row| row.iter().filter(|&&b| b).count())
        .sum();
    if bpi_obs::metrics_enabled() {
        EPSILON_RUNS.inc();
        EPSILON_SURVIVORS.add(survivors as u64);
    }
    bpi_obs::emit("equiv.epsilon", "done", || {
        vec![
            ("engine", Value::from(engine)),
            ("eps", Value::from(format!("{eps}"))),
            ("pairs", Value::from(pairs)),
            ("survivors", Value::from(survivors)),
        ]
    });
}

/// Obligation tally for one direction of one pair: how many transfer
/// obligations the pair carries and how many went unmatched.
struct Tally {
    total: usize,
    failed: usize,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            total: 0,
            failed: 0,
        }
    }

    fn note(&mut self, matched: bool) {
        self.total += 1;
        if !matched {
            self.failed += 1;
        }
    }

    /// The unmatched fraction; `0.0` for an obligation-free state (a
    /// terminal state trivially satisfies the transfer property).
    fn fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.failed as f64 / self.total as f64
        }
    }
}

/// One direction of the ε-transfer property, quantified: the fraction
/// of `(ga, i)`'s obligations that `(gb, j)` fails to match into `rel`,
/// or `1.0` outright when `j` misses a barb `i` exposes.
///
/// Obligations mirror [`direction`] clause for clause — every boolean
/// check the exact predicate performs becomes one tallied obligation —
/// so `defect(..) > 0.0` exactly when `direction(..)` is `false`
/// against the same `rel`. The exact engines remain the `ε = 0` oracle
/// for this function, not the other way around.
pub fn defect(v: Variant, ga: &Graph, i: usize, gb: &Graph, j: usize, rel: RelView<'_>) -> f64 {
    match v {
        Variant::StrongBarbed => {
            let ba = ga.strong_barbs(i);
            let bb = gb.strong_barbs(j);
            if !ba.iter().all(|a| bb.contains(a)) {
                return 1.0;
            }
            let mut t = Tally::new();
            for i2 in ga.tau_succs(i) {
                t.note(gb.tau_succs(j).any(|j2| rel.holds(i2, j2)));
            }
            t.fraction()
        }
        Variant::WeakBarbed => {
            let ba = ga.weak_barbs(i);
            let bb = gb.weak_barbs(j);
            if !ba.iter().all(|a| bb.contains(a)) {
                return 1.0;
            }
            let mut t = Tally::new();
            for i2 in ga.tau_succs(i) {
                t.note(gb.tau_closure(j).iter().any(|&j2| rel.holds(i2, j2)));
            }
            t.fraction()
        }
        Variant::StrongStep => {
            let ba = ga.strong_barbs(i);
            let bb = gb.strong_barbs(j);
            if !ba.iter().all(|a| bb.contains(a)) {
                return 1.0;
            }
            let mut t = Tally::new();
            for (_, i2) in ga.step_edges(i) {
                t.note(gb.step_edges(j).any(|(_, j2)| rel.holds(i2, j2)));
            }
            t.fraction()
        }
        Variant::WeakStep => {
            let ba = ga.weak_step_barbs(i);
            let bb = gb.weak_step_barbs(j);
            if !ba.iter().all(|a| bb.contains(a)) {
                return 1.0;
            }
            let mut t = Tally::new();
            for (_, i2) in ga.step_edges(i) {
                t.note(gb.step_closure(j).iter().any(|&j2| rel.holds(i2, j2)));
            }
            t.fraction()
        }
        Variant::StrongLabelled => strong_labelled_defect(ga, i, gb, j, rel),
        Variant::WeakLabelled => weak_labelled_defect(ga, i, gb, j, rel),
    }
}

fn strong_labelled_defect(ga: &Graph, i: usize, gb: &Graph, j: usize, rel: RelView<'_>) -> f64 {
    let mut t = Tally::new();
    for (lid, i2) in ga.edge_ids(i) {
        let act = ga.label(lid);
        let blid = gb.csr().label_id(act);
        let matched = match act {
            Action::Tau => gb.tau_succs(j).any(|j2| rel.holds(i2, j2)),
            Action::Output { .. } => match blid {
                Some(bl) => gb.edge_ids(j).any(|(l, j2)| l == bl && rel.holds(i2, j2)),
                None => false,
            },
            Action::Input { chan, .. } => {
                let real = match blid {
                    Some(bl) => gb.edge_ids(j).any(|(l, j2)| l == bl && rel.holds(i2, j2)),
                    None => false,
                };
                real || (gb.state_discards(j, *chan) && rel.holds(i2, j))
            }
            Action::Discard { .. } => true,
        };
        t.note(matched);
    }
    for a in &ga.discarding[i] {
        if gb.state_discards(j, a) {
            t.note(true);
            continue;
        }
        let mut labels: BTreeSet<u32> = BTreeSet::new();
        for (lid, _) in gb.edge_ids(j) {
            let act = gb.label(lid);
            if act.is_input() && act.subject() == Some(a) {
                labels.insert(lid);
            }
        }
        if labels.is_empty() {
            t.note(false);
            continue;
        }
        for lab in labels {
            t.note(gb.edge_ids(j).any(|(l, j2)| l == lab && rel.holds(i, j2)));
        }
    }
    t.fraction()
}

fn weak_labelled_defect(ga: &Graph, i: usize, gb: &Graph, j: usize, rel: RelView<'_>) -> f64 {
    let mut t = Tally::new();
    for (lid, i2) in ga.edge_ids(i) {
        let act = ga.label(lid);
        let matched = match act {
            Action::Tau => gb.tau_closure(j).iter().any(|&j2| rel.holds(i2, j2)),
            Action::Output { .. } => gb.weak_label(j, act).iter().any(|&j2| rel.holds(i2, j2)),
            Action::Input { chan, .. } => {
                gb.weak_label(j, act).iter().any(|&j2| rel.holds(i2, j2))
                    || gb
                        .weak_discard(j, *chan)
                        .iter()
                        .any(|&j2| rel.holds(i2, j2))
            }
            Action::Discard { .. } => true,
        };
        t.note(matched);
    }
    for a in &ga.discarding[i] {
        let labels = gb.weak_input_labels(j, a);
        let wdisc = gb.weak_discard(j, a);
        let wdisc_related = wdisc.iter().any(|&j2| rel.holds(i, j2));
        for lab in labels.iter() {
            t.note(wdisc_related || gb.weak_label(j, lab).iter().any(|&j2| rel.holds(i, j2)));
        }
        let ar_cov: BTreeSet<usize> = labels.iter().map(|l| l.objects().len()).collect();
        let ar_a = ga.arities_on(a);
        let ar_b = gb.arities_on(a);
        let uncovered = (ar_a.is_empty() && ar_b.is_empty())
            || ar_a.iter().chain(ar_b.iter()).any(|n| !ar_cov.contains(n));
        if uncovered {
            t.note(wdisc_related);
        }
    }
    t.fraction()
}

/// The symmetric pair defect: the worse of the two directions.
pub fn pair_defect(
    v: Variant,
    g1: &Graph,
    i: usize,
    g2: &Graph,
    j: usize,
    rel: &PairRelation,
) -> f64 {
    let fwd = defect(v, g1, i, g2, j, RelView::new(&rel.rel, false));
    let bwd = defect(v, g2, j, g1, i, RelView::new(&rel.rel, true));
    fwd.max(bwd)
}

/// Whether a pair violates the ε-transfer property against `rel`. The
/// backward direction is only computed when the forward one passes,
/// mirroring the exact engines' short-circuit.
fn violates(
    v: Variant,
    g1: &Graph,
    i: usize,
    g2: &Graph,
    j: usize,
    rel: &[Vec<bool>],
    eps: f64,
) -> bool {
    if defect(v, g1, i, g2, j, RelView::new(rel, false)) > eps {
        return true;
    }
    defect(v, g2, j, g1, i, RelView::new(rel, true)) > eps
}

/// NaN and negative tolerances collapse to the exact check.
fn clamp_eps(eps: f64) -> f64 {
    eps.max(0.0)
}

/// Naive-sweep ε-refinement: deletes every pair whose defect exceeds
/// `eps` in either direction until a sweep deletes nothing. The
/// reference oracle for [`refine_epsilon`], exactly as
/// [`refine`](crate::bisim::refine) is for the exact worklist.
pub fn refine_epsilon_naive(v: Variant, g1: &Graph, g2: &Graph, eps: f64) -> PairRelation {
    let eps = clamp_eps(eps);
    let (n1, n2) = (g1.len(), g2.len());
    let mut pr = PairRelation {
        rel: vec![vec![true; n2]; n1],
    };
    loop {
        let mut kills = Vec::new();
        for i in 0..n1 {
            for j in 0..n2 {
                if pr.rel[i][j] && violates(v, g1, i, g2, j, &pr.rel, eps) {
                    kills.push((i, j));
                }
            }
        }
        if kills.is_empty() {
            record_epsilon("naive", &pr, n1, n2, eps);
            return pr;
        }
        for (i, j) in kills {
            pr.rel[i][j] = false;
        }
    }
}

/// Predecessor-indexed worklist ε-refinement over the product graph:
/// the greatest relation in which every surviving pair's defect stays
/// `≤ ε` both ways. Killing a pair re-enqueues only the pairs whose
/// defect could have referenced it (the same dependency sets as the
/// exact worklist — defects read the relation at exactly the states the
/// exact predicate does). Small products cut over to the naive sweep,
/// at the crossover the exact engines use.
pub fn refine_epsilon(v: Variant, g1: &Graph, g2: &Graph, eps: f64) -> PairRelation {
    let eps = clamp_eps(eps);
    if eps == 0.0 {
        // At ε = 0 the defect predicate degenerates to the exact
        // direction check, so the quantitative sweep would just redo
        // what the exact engines do pair by pair. Route through the
        // adaptive exact dispatch instead (partition refiner above the
        // naive cutover): the fixpoint is bit-for-bit the same and the
        // seed-corpus oracle pins it.
        let pr = crate::bisim::refine_auto(v, g1, g2, 1);
        record_epsilon("exact", &pr, g1.len(), g2.len(), 0.0);
        return pr;
    }
    if g1.len() * g2.len() <= NAIVE_MAX_PAIRS {
        return refine_epsilon_naive(v, g1, g2, eps);
    }
    let (n1, n2) = (g1.len(), g2.len());
    let mut pr = PairRelation {
        rel: vec![vec![true; n2]; n1],
    };
    if n1 == 0 || n2 == 0 {
        record_epsilon("worklist", &pr, n1, n2, eps);
        return pr;
    }
    let dep1 = g1.dependents(v.is_weak());
    let dep2 = g2.dependents(v.is_weak());
    let mut queued = vec![vec![true; n2]; n1];
    let mut work: VecDeque<(usize, usize)> =
        (0..n1).flat_map(|i| (0..n2).map(move |j| (i, j))).collect();
    let mut pops = 0u64;
    while let Some((i, j)) = work.pop_front() {
        pops += 1;
        queued[i][j] = false;
        if !pr.rel[i][j] {
            continue;
        }
        if !violates(v, g1, i, g2, j, &pr.rel, eps) {
            continue;
        }
        pr.rel[i][j] = false;
        for &pi in &dep1[i] {
            for &pj in &dep2[j] {
                if pr.rel[pi][pj] && !queued[pi][pj] {
                    queued[pi][pj] = true;
                    work.push_back((pi, pj));
                }
            }
        }
    }
    EPSILON_POPS.add(pops);
    record_epsilon("worklist", &pr, n1, n2, eps);
    pr
}

/// The ε-bisimulation distance between the two roots: the least `ε`
/// (within `tol`) at which the roots survive [`refine_epsilon`].
/// Survival is monotone in `ε` (a larger tolerance kills fewer pairs at
/// every stage of the same chaotic iteration), so plain bisection
/// brackets it: `0.0` exactly on bisimilar roots, at most `1.0` always
/// (every defect is a fraction, and nothing exceeds `1.0`).
pub fn epsilon_distance(v: Variant, g1: &Graph, g2: &Graph, tol: f64) -> f64 {
    let tol = tol.max(1e-9);
    if refine_epsilon(v, g1, g2, 0.0).holds(0, 0) {
        return 0.0;
    }
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    while hi - lo > tol {
        let mid = 0.5 * (lo + hi);
        if refine_epsilon(v, g1, g2, mid).holds(0, 0) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

fn build_pair(
    p: &P,
    q: &P,
    defs: &Defs,
) -> Result<(std::sync::Arc<Graph>, std::sync::Arc<Graph>), EngineError> {
    let opts = Opts::default();
    let budget = Budget::unlimited();
    let pool = shared_pool(p, q, opts.fresh_inputs);
    let g1 = Graph::build_cached(p, defs, &pool, opts, &budget)?;
    let g2 = Graph::build_cached(q, defs, &pool, opts, &budget)?;
    Ok((g1, g2))
}

/// Whether `p` and `q` are ε-bisimilar for the chosen variant: builds
/// both graphs (through the shared graph memo) and asks
/// [`refine_epsilon`] about the roots.
pub fn try_epsilon_bisimilar(
    v: Variant,
    p: &P,
    q: &P,
    defs: &Defs,
    eps: f64,
) -> Result<bool, EngineError> {
    let (g1, g2) = build_pair(p, q, defs)?;
    Ok(refine_epsilon(v, &g1, &g2, eps).holds(0, 0))
}

/// [`try_epsilon_bisimilar`] with graph-construction failure collapsed
/// to `false` (could not certify), matching the convention of
/// [`Checker::bisimilar`](crate::bisim::Checker::bisimilar).
pub fn epsilon_bisimilar(v: Variant, p: &P, q: &P, defs: &Defs, eps: f64) -> bool {
    try_epsilon_bisimilar(v, p, q, defs, eps).unwrap_or(false)
}

/// [`epsilon_distance`] straight from process terms.
pub fn try_bisimulation_distance(
    v: Variant,
    p: &P,
    q: &P,
    defs: &Defs,
    tol: f64,
) -> Result<f64, EngineError> {
    let (g1, g2) = build_pair(p, q, defs)?;
    Ok(epsilon_distance(v, &g1, &g2, tol))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bisim::{direction, refine};
    use bpi_core::builder::*;

    const ALL: [Variant; 6] = [
        Variant::StrongBarbed,
        Variant::WeakBarbed,
        Variant::StrongStep,
        Variant::WeakStep,
        Variant::StrongLabelled,
        Variant::WeakLabelled,
    ];

    fn graphs(p: &P, q: &P, defs: &Defs) -> (std::sync::Arc<Graph>, std::sync::Arc<Graph>) {
        build_pair(p, q, defs).expect("unbudgeted build")
    }

    use bpi_core::syntax::Defs;

    #[test]
    fn zero_epsilon_matches_the_exact_fixpoint() {
        let defs = Defs::new();
        let [a, b, c] = names(["a", "b", "c"]);
        let pairs = [
            (out(a, [], tau(out_(b, []))), tau(out_(b, []))),
            (sum(out_(a, []), out_(b, [])), sum(out_(b, []), out_(a, []))),
            (inp(a, [], out_(c, [])), inp(a, [], tau(out_(c, [])))),
            (par(out_(a, []), inp(a, [], nil())), out(a, [], nil())),
        ];
        for (p, q) in &pairs {
            let (g1, g2) = graphs(p, q, &defs);
            for v in ALL {
                let exact = refine(v, &g1, &g2);
                let approx = refine_epsilon(v, &g1, &g2, 0.0);
                assert_eq!(exact.rel, approx.rel, "{v:?} diverges at ε=0 on {p} vs {q}");
            }
        }
    }

    #[test]
    fn epsilon_relations_grow_monotonically() {
        let defs = Defs::new();
        let [a, b, c] = names(["a", "b", "c"]);
        let p = sum(out_(a, []), sum(out_(b, []), out_(c, [])));
        let q = sum(out_(a, []), out_(b, []));
        let (g1, g2) = graphs(&p, &q, &defs);
        for v in ALL {
            let mut prev: Option<PairRelation> = None;
            for eps in [0.0, 0.1, 0.25, 0.5, 1.0] {
                let cur = refine_epsilon(v, &g1, &g2, eps);
                if let Some(prev) = &prev {
                    for i in 0..g1.len() {
                        for j in 0..g2.len() {
                            assert!(
                                !prev.holds(i, j) || cur.holds(i, j),
                                "{v:?}: pair ({i},{j}) died when ε grew to {eps}"
                            );
                        }
                    }
                }
                prev = Some(cur);
            }
        }
    }

    #[test]
    fn a_dropped_branch_is_approximately_matched() {
        // p can broadcast on c, q cannot: exactly inequivalent, but the
        // unmatched move is a fraction of p's obligations — labelled
        // ε-bisimilar for a moderate ε, and at a distance strictly
        // between 0 and 1.
        let defs = Defs::new();
        let [a, b, c] = names(["a", "b", "c"]);
        let p = sum(out_(a, []), sum(out_(b, []), out_(c, [])));
        let q = sum(out_(a, []), out_(b, []));
        assert!(!epsilon_bisimilar(
            Variant::StrongLabelled,
            &p,
            &q,
            &defs,
            0.0
        ));
        assert!(epsilon_bisimilar(
            Variant::StrongLabelled,
            &p,
            &q,
            &defs,
            0.5
        ));
        let d = try_bisimulation_distance(Variant::StrongLabelled, &p, &q, &defs, 1e-3).unwrap();
        assert!(
            d > 1e-3 && d < 0.5,
            "distance {d} should be a small fraction"
        );
        // The missing barb makes the *barbed* distance categorical.
        let db = try_bisimulation_distance(Variant::StrongBarbed, &p, &q, &defs, 1e-3).unwrap();
        assert!(
            db > 0.99,
            "missing barb is a full-severity defect, got {db}"
        );
    }

    #[test]
    fn distance_is_zero_on_bisimilar_terms() {
        let defs = Defs::new();
        let [a, b] = names(["a", "b"]);
        let p = sum(out_(a, []), out_(b, []));
        let q = sum(out_(b, []), out_(a, []));
        for v in ALL {
            let d = try_bisimulation_distance(v, &p, &q, &defs, 1e-3).unwrap();
            assert_eq!(d, 0.0, "{v:?}");
        }
    }

    #[test]
    fn defect_is_the_exact_predicate_at_zero() {
        // On the full relation and on the fixpoint alike, defect > 0
        // must coincide with ¬direction — the property the ε=0
        // bit-for-bit guarantee rests on.
        let defs = Defs::new();
        let [a, b, c] = names(["a", "b", "c"]);
        let p = par(out_(a, []), inp(a, [], sum(out_(b, []), out_(c, []))));
        let q = tau(sum(out_(b, []), out_(c, [])));
        let (g1, g2) = graphs(&p, &q, &defs);
        for v in ALL {
            let full = PairRelation {
                rel: vec![vec![true; g2.len()]; g1.len()],
            };
            let fixpoint = refine(v, &g1, &g2);
            for rel in [&full, &fixpoint] {
                for i in 0..g1.len() {
                    for j in 0..g2.len() {
                        let view = RelView::new(&rel.rel, false);
                        let exact = direction(v, &g1, i, &g2, j, view);
                        let d = defect(v, &g1, i, &g2, j, view);
                        assert_eq!(
                            exact,
                            d == 0.0,
                            "{v:?} defect/direction disagree at ({i},{j}): {d}"
                        );
                    }
                }
            }
        }
    }
}
