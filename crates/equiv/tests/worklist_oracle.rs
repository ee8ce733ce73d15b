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
//! * the hash-consed store's cached `canon`/`free_names` and state
//!   normal form must agree with fresh recomputation on arbitrary terms
//!   and their successors, and every subterm of a consed term must be
//!   consed itself.
//!
//! A deterministic sharing test pins what bottom-up consing buys: the
//! states of a τ-ladder share their subterms instead of each holding a
//! copy.

use bpi_core::builder::{names, out_, tau};
use bpi_core::syntax::{Defs, Process, P};
use bpi_core::{cached_canon, cached_free_names, canon, cons, prune};
use bpi_equiv::arbitrary::{Gen, GenCfg};
use bpi_equiv::{refine, refine_budgeted, refine_worklist, shared_pool, Graph, Opts, Variant};
use bpi_semantics::{normalize_state_cached, Budget, CheckpointCfg, Lts};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

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
        let (p, q) = gen.related_pair();
        prop_assert_eq!(cons(&p) == cons(&q), p == q);
        let defs = Defs::new();
        let lts = Lts::new(&defs);
        let pool = shared_pool(&p, &q, 1);
        let mut terms = vec![p.clone()];
        for (_, s) in lts.step_transitions(&p).into_iter().chain(lts.input_transitions(&p, &pool)) {
            terms.push(s);
        }
        for t in &terms {
            prop_assert_eq!(cached_canon(t), canon(t));
            prop_assert_eq!(cached_free_names(t), t.free_names());
            prop_assert_eq!(normalize_state_cached(t, None), canon(&prune(t)));
            // A second lookup must serve the identical answers from cache.
            prop_assert_eq!(cached_canon(t), canon(t));
            prop_assert_eq!(cached_free_names(t), t.free_names());
            prop_assert_eq!(normalize_state_cached(t, None), canon(&prune(t)));
            for sub in subterms(cons(t).term()) {
                prop_assert!(Arc::ptr_eq(cons(&sub).term(), &sub), "{} not consed", sub);
            }
        }
    }
}

/// The children of a node.
fn children(p: &P) -> Vec<&P> {
    match &**p {
        Process::Nil | Process::Call(..) | Process::Var(..) => vec![],
        Process::Act(_, k) | Process::New(_, k) => vec![k],
        Process::Rec(def, _) => vec![&def.body],
        Process::Sum(l, r) | Process::Par(l, r) | Process::Match(_, _, l, r) => vec![l, r],
    }
}

/// Every proper subterm of `p`, once per occurrence.
fn subterms(p: &P) -> Vec<P> {
    let mut out = Vec::new();
    let mut stack: Vec<&P> = children(p);
    while let Some(s) = stack.pop() {
        out.push(s.clone());
        stack.extend(children(s));
    }
    out
}

/// The states of a τ-ladder share their tails: the distinct `Process`
/// allocations reachable from the graph's states stay linear in the
/// number of states, where a copy per state would be quadratic (about
/// two million nodes here).
#[test]
fn tau_ladder_states_share_their_subterms() {
    let [a] = names(["a"]);
    let mut ladder = out_(a, []);
    for _ in 0..1998 {
        ladder = tau(ladder);
    }
    let defs = Defs::new();
    let opts = Opts {
        max_states: 4000,
        fresh_inputs: 1,
    };
    let pool = shared_pool(&ladder, &ladder, opts.fresh_inputs);
    let g = Graph::build(&ladder, &defs, &pool, opts).expect("the ladder fits");
    assert_eq!(g.len(), 2000);
    let mut seen: HashSet<*const Process> = HashSet::new();
    let mut stack: Vec<&P> = g.states.iter().collect();
    while let Some(s) = stack.pop() {
        if seen.insert(Arc::as_ptr(s)) {
            stack.extend(children(s));
        }
    }
    assert!(
        seen.len() <= 2 * g.len(),
        "{} allocations for {} states",
        seen.len(),
        g.len()
    );
}
