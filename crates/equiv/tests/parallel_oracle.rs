//! Property tests for the [`Checker`]'s thread count, which drives the
//! frontier-parallel graph build (refinement is sequential): the
//! three-valued verdicts — including the exact typed resource error —
//! must be identical at every thread count.

use bpi_core::builder::*;
use bpi_core::syntax::Defs;
use bpi_equiv::arbitrary::{Gen, GenCfg};
use bpi_equiv::{Checker, Variant, Verdict};
use bpi_semantics::{Budget, EngineError};
use proptest::prelude::*;

const THREADS: [usize; 4] = [1, 2, 4, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    // Full Checker pipeline (graph memo + build + engine dispatch) under
    // a tight state budget: the three-valued verdict — Holds, Fails or
    // the exact Inconclusive(EngineError) — must be identical at every
    // thread count.
    #[test]
    fn checker_verdicts_match_across_thread_counts(seed in 0u64..1_000_000) {
        let cfg = GenCfg::finite_monadic(names(["a", "b", "c"]).to_vec());
        let mut gen = Gen::new(cfg, seed);
        let (p, q) = gen.related_pair();
        let defs = Defs::new();
        for v in [Variant::StrongLabelled, Variant::WeakLabelled] {
            let budget = Budget::states(12);
            let reference = Checker::new(&defs)
                .with_budget(budget.clone())
                .with_threads(1)
                .check(v, &p, &q);
            for threads in [2, 4, 8] {
                let got = Checker::new(&defs)
                    .with_budget(budget.clone())
                    .with_threads(threads)
                    .check(v, &p, &q);
                prop_assert_eq!(
                    &got, &reference,
                    "{:?} verdict diverged at {} threads on {} vs {}", v, threads, p, q
                );
            }
        }
    }
}

/// An unbounded pump exhausts any state budget; the typed error must be
/// bit-identical at every thread count (budget replay is a property of
/// the reachable set, not of the worker schedule).
#[test]
fn budget_exhaustion_error_matches_exactly_across_thread_counts() {
    let defs = Defs::new();
    let [a] = names(["a"]);
    let x = bpi_core::syntax::Ident::new("POPump");
    let p = rec(x, [a], tau(par(out_(a, []), var(x, [a]))), [a]);
    let expected = Verdict::Inconclusive(EngineError::StateBudgetExceeded { limit: 6 });
    for threads in THREADS {
        let c = Checker::new(&defs)
            .with_budget(Budget::states(6))
            .with_threads(threads);
        assert_eq!(
            c.check(Variant::WeakLabelled, &p, &nil()),
            expected,
            "budget error diverged at {threads} threads"
        );
        // The bool API degrades to false at every thread count too.
        assert!(!c.bisimilar(Variant::StrongLabelled, &p, &nil()));
    }
}
