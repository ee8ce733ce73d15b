//! Property tests for PR 2's performance layers.
//!
//! Two oracles anchor the optimisations to the unoptimised code paths:
//!
//! * the pairwise round engine ([`refine_budgeted`], which
//!   [`refine_worklist`] runs above the naive cutover) must compute
//!   exactly the relation of the naive global-sweep fixpoint
//!   ([`refine`]), for every variant — both are chaotic iterations of
//!   the same monotone transfer operator, so their greatest fixpoints
//!   coincide pointwise, not just at the root pair;
//! * the hash-consed store's cached `canon`/`free_names` must agree
//!   with fresh recomputation on arbitrary terms.

use bpi_core::builder::names;
use bpi_core::syntax::Defs;
use bpi_core::{cached_canon, cached_free_names, canon};
use bpi_equiv::arbitrary::{Gen, GenCfg};
use bpi_equiv::{refine, refine_budgeted, refine_worklist, shared_pool, Graph, Opts, Variant};
use bpi_semantics::{Budget, CheckpointCfg};
use proptest::prelude::*;

const ALL: [Variant; 6] = [
    Variant::StrongBarbed,
    Variant::StrongStep,
    Variant::StrongLabelled,
    Variant::WeakBarbed,
    Variant::WeakStep,
    Variant::WeakLabelled,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    // 40 random pairs x 6 variants = 240 full-relation agreements per
    // run (the ISSUE acceptance floor is 200).
    #[test]
    fn worklist_agrees_with_naive_refine(seed in 0u64..1_000_000) {
        let cfg = GenCfg::finite_monadic(names(["a", "b", "c"]).to_vec());
        let mut gen = Gen::new(cfg, seed);
        let (p, q) = gen.related_pair();
        let defs = Defs::new();
        let opts = Opts::default();
        let pool = shared_pool(&p, &q, opts.fresh_inputs);
        let g1 = Graph::build(&p, &defs, &pool, opts).expect("finite generator");
        let g2 = Graph::build(&q, &defs, &pool, opts).expect("finite generator");
        for v in ALL {
            let naive = refine(v, &g1, &g2);
            let fast = refine_worklist(v, &g1, &g2);
            prop_assert_eq!(
                &naive.rel, &fast.rel,
                "{:?} diverged on {} vs {}", v, p, q
            );
            // The round engine itself, below the cutover too.
            let rounds = refine_budgeted(v, &g1, &g2, &Budget::unlimited(), &CheckpointCfg::default())
                .expect("an unlimited run completes");
            prop_assert_eq!(
                &naive.rel, &rounds.rel,
                "round engine {:?} diverged on {} vs {}", v, p, q
            );
        }
    }

    #[test]
    fn consed_caches_agree_with_fresh_recomputation(seed in 0u64..1_000_000) {
        let cfg = GenCfg::finite_monadic(names(["a", "b", "c"]).to_vec());
        let mut gen = Gen::new(cfg, seed);
        let p = gen.process();
        prop_assert_eq!(cached_canon(&p), canon(&p));
        prop_assert_eq!(cached_free_names(&p), p.free_names());
        // A second lookup must serve the identical answers from cache.
        prop_assert_eq!(cached_canon(&p), canon(&p));
        prop_assert_eq!(cached_free_names(&p), p.free_names());
    }
}
