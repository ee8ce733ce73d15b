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
//! every pair's defect (in both directions) stays `≤ ε`, on the exact
//! engines' own loops with the ε kill predicate in place of the exact
//! one: the naive sweep at or below their cutover, the pairwise round
//! engine above it. Shrinking the relation can only *raise* defects
//! (matches disappear, none appear), so the kill operator is monotone:
//! every re-examination schedule, from every start relation that
//! contains the fixpoint, converges to the same greatest fixpoint.
//! [`epsilon_distance`] leans on that: each bisection step starts from
//! the relation at its upper bracket.
//!
//! **The exact engines stay the oracle.** By construction `defect > 0 ⟺
//! ¬direction` against the same relation, so at `ε = 0` the kill
//! condition coincides with the exact one and [`refine_epsilon`]
//! reproduces [`refine`](crate::bisim::refine)'s fixpoint *bit for bit*
//! (`epsilon_oracle.rs` enforces this on the regression-seed corpus,
//! all six variants). [`epsilon_distance`] inverts the check: the least
//! `ε` (to a tolerance) at which the roots stay related — `0` exactly
//! on bisimilar pairs, `1` when an observable separates them.

use crate::bisim::{
    run_rounds, sweep, transfer, Note, PairRelation, RelView, Variant, NAIVE_MAX_PAIRS,
};
use crate::checkpoint::RefineCheckpoint;
use crate::graph::{shared_pool, Graph, Opts};
use bpi_core::action::Action;
use bpi_core::syntax::{Defs, P};
use bpi_obs::{counter, Counter, Det, Value};
use bpi_semantics::budget::{Budget, EngineError};
use bpi_semantics::checkpoint::CheckpointCfg;
use std::ops::ControlFlow::{self, Continue};
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

/// One direction of the ε-transfer property, quantified: the fraction
/// of `(ga, i)`'s obligations that `(gb, j)` fails to match into `rel`,
/// or `1.0` outright when `j` misses a barb `i` exposes.
///
/// This is the transfer walk of [`direction`](crate::bisim::direction),
/// scored by counting unmatched obligations instead of stopping at the
/// first, so `defect(..) > 0.0` exactly when `direction(..)` is `false`
/// against the same `rel`. An obligation-free state scores `0.0` (a
/// terminal state trivially satisfies the transfer property).
pub fn defect(v: Variant, ga: &Graph, i: usize, gb: &Graph, j: usize, rel: RelView<'_>) -> f64 {
    let mut count = Count {
        rel,
        total: 0,
        failed: 0,
    };
    if transfer(v, ga, i, gb, j, &mut count).is_break() {
        // Only a missing barb ends a counting walk.
        1.0
    } else if count.total == 0 {
        0.0
    } else {
        count.failed as f64 / count.total as f64
    }
}

/// The counting score of [`defect`]: every obligation, and those with no
/// candidate pair in `rel`.
struct Count<'a> {
    rel: RelView<'a>,
    total: usize,
    failed: usize,
}

impl Note for Count<'_> {
    fn note(
        &mut self,
        _: &Action,
        mut candidates: impl Iterator<Item = (usize, usize)>,
    ) -> ControlFlow<()> {
        self.total += 1;
        self.failed += usize::from(!candidates.any(|(i2, j2)| self.rel.holds(i2, j2)));
        Continue(())
    }
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

/// Naive-sweep ε-refinement: the naive sweep of
/// [`refine`](crate::bisim::refine) with the ε kill predicate, deleting
/// every pair whose defect exceeds `eps` in either direction until a
/// sweep deletes nothing. The reference oracle for [`refine_epsilon`],
/// as `refine` is for the exact engines.
pub fn refine_epsilon_naive(v: Variant, g1: &Graph, g2: &Graph, eps: f64) -> PairRelation {
    let eps = clamp_eps(eps);
    let mut pr = PairRelation::full(g1.len(), g2.len());
    sweep(&mut pr, |i, j, rel| violates(v, g1, i, g2, j, rel, eps));
    record_epsilon("naive", &pr, g1.len(), g2.len(), eps);
    pr
}

/// ε-refinement: the greatest relation in which every surviving pair's
/// defect stays `≤ ε` both ways. Products at or below the exact
/// dispatch's naive cutover run the naive sweep; larger ones run the
/// exact engines' pairwise round engine with the ε kill predicate
/// (defects read the relation at exactly the states the exact predicate
/// does, so the dependency sets carry over).
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
    refine_epsilon_from(v, g1, g2, eps, PairRelation::full(g1.len(), g2.len()))
}

/// [`refine_epsilon`] at a positive `eps`, iterating from `start`
/// instead of the full relation. Any `start` that contains the fixpoint
/// ends on it, such as the relation at a larger ε: relations only grow
/// with ε.
fn refine_epsilon_from(
    v: Variant,
    g1: &Graph,
    g2: &Graph,
    eps: f64,
    mut start: PairRelation,
) -> PairRelation {
    let (n1, n2) = (g1.len(), g2.len());
    let kill = |i: usize, j: usize, rel: &[Vec<bool>]| violates(v, g1, i, g2, j, rel, eps);
    if n1 * n2 <= NAIVE_MAX_PAIRS {
        sweep(&mut start, kill);
        record_epsilon("naive", &start, n1, n2, eps);
        return start;
    }
    let mut checks = 0u64;
    let unlimited = Budget::unlimited();
    let inert = CheckpointCfg::default();
    let start = RefineCheckpoint {
        rel: start.rel,
        rounds: 0,
    };
    let (pr, _) = run_rounds(v, g1, g2, &unlimited, &inert, start, |i, j, rel| {
        checks += 1;
        kill(i, j, rel)
    })
    .expect("inert config and unlimited budget cannot interrupt");
    EPSILON_POPS.add(checks);
    record_epsilon("worklist", &pr, n1, n2, eps);
    pr
}

/// The ε-bisimulation distance between the two roots: the least `ε`
/// (within `tol`) at which the roots survive [`refine_epsilon`].
/// Survival is monotone in `ε` (a larger tolerance kills fewer pairs at
/// every stage of the same chaotic iteration), so plain bisection
/// brackets it: `0.0` exactly on bisimilar roots, at most `1.0` always
/// (every defect is a fraction, and nothing exceeds `1.0`). Each step
/// starts from the relation at the upper bracket, which contains the
/// step's fixpoint; at `1.0` nothing dies, so the first step starts
/// from the full relation.
pub fn epsilon_distance(v: Variant, g1: &Graph, g2: &Graph, tol: f64) -> f64 {
    let tol = tol.max(1e-9);
    if refine_epsilon(v, g1, g2, 0.0).holds(0, 0) {
        return 0.0;
    }
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    let mut at_hi = PairRelation::full(g1.len(), g2.len());
    while hi - lo > tol {
        let mid = 0.5 * (lo + hi);
        let start = PairRelation {
            rel: at_hi.rel.clone(),
        };
        let at_mid = refine_epsilon_from(v, g1, g2, mid, start);
        if at_mid.holds(0, 0) {
            hi = mid;
            at_hi = at_mid;
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

    /// The bisection of [`epsilon_distance`] with every step refined
    /// from the full relation by the naive sweep.
    fn cold_distance(v: Variant, g1: &Graph, g2: &Graph, tol: f64) -> f64 {
        let tol = tol.max(1e-9);
        if refine_epsilon_naive(v, g1, g2, 0.0).holds(0, 0) {
            return 0.0;
        }
        let (mut lo, mut hi) = (0.0f64, 1.0f64);
        while hi - lo > tol {
            let mid = 0.5 * (lo + hi);
            if refine_epsilon_naive(v, g1, g2, mid).holds(0, 0) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }

    #[test]
    fn warm_started_distance_matches_a_cold_bisection() {
        let defs = Defs::new();
        let [a, b, c] = names(["a", "b", "c"]);
        let ladder = |end: P| (0..32).fold(end, |p, _| tau(p));
        let pairs = [
            (out(a, [], tau(out_(b, []))), tau(out_(b, []))),
            (sum(out_(a, []), out_(b, [])), sum(out_(b, []), out_(a, []))),
            (inp(a, [], out_(c, [])), inp(a, [], tau(out_(c, [])))),
            (par(out_(a, []), inp(a, [], nil())), out(a, [], nil())),
            (
                sum(out_(a, []), sum(out_(b, []), out_(c, []))),
                sum(out_(a, []), out_(b, [])),
            ),
            (
                par(out_(a, []), inp(a, [], sum(out_(b, []), out_(c, [])))),
                tau(sum(out_(b, []), out_(c, []))),
            ),
            // 34 × 34 pairs: above the naive cutover, so the steps run
            // the round engine.
            (ladder(out_(a, [])), ladder(sum(out_(a, []), out_(c, [])))),
        ];
        for (p, q) in &pairs {
            let (g1, g2) = graphs(p, q, &defs);
            for v in ALL {
                for tol in [1e-3, 1e-6] {
                    let warm = epsilon_distance(v, &g1, &g2, tol);
                    let cold = cold_distance(v, &g1, &g2, tol);
                    assert_eq!(
                        warm.to_bits(),
                        cold.to_bits(),
                        "{v:?} at tol {tol} on {p} vs {q}: {warm} vs {cold}"
                    );
                }
            }
        }
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
