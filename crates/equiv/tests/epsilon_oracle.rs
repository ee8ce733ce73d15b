//! The ε-refiner anchored to the exact engines.
//!
//! At `ε = 0` the approximate kill condition (`defect > 0` in either
//! direction) must coincide with the exact one (`¬direction` in either
//! direction) against *any* relation, so the chaotic iterations compute
//! the same greatest fixpoint — not merely the same root verdict, the
//! same full relation, bit for bit. This suite enforces that:
//!
//! * on the promoted regression-seed corpus (`tests/regression_seeds.rs`
//!   at the workspace root: seeds 891, 1624, 45352, 9724 — the shapes
//!   that historically broke an engine), all six variants;
//! * on random generator pairs, together with `refine_epsilon` /
//!   `refine_epsilon_naive` agreement at random ε and the ε-monotonicity
//!   of the fixpoint. Those products stay below the naive cutover, where
//!   both sides run the naive sweep;
//! * above the cutover, where `refine_epsilon` runs the pairwise round
//!   engine: τ-ladders and a mixed-arity pair, all six variants, at
//!   ε ∈ {0.1, 0.25, 0.5}.

use bpi_core::builder::{inp, names, nil, out_, par, sum, tau};
use bpi_core::syntax::{Defs, P};
use bpi_equiv::arbitrary::{shuffle, Gen, GenCfg};
use bpi_equiv::{refine, refine_epsilon, refine_epsilon_naive, shared_pool, Graph, Opts, Variant};
use proptest::prelude::*;
use rand::SeedableRng;

const ALL: [Variant; 6] = [
    Variant::StrongBarbed,
    Variant::WeakBarbed,
    Variant::StrongStep,
    Variant::WeakStep,
    Variant::StrongLabelled,
    Variant::WeakLabelled,
];

fn assert_zero_eps_bit_for_bit(p: &P, q: &P) {
    let defs = Defs::new();
    let opts = Opts::default();
    let pool = shared_pool(p, q, opts.fresh_inputs);
    let g1 = Graph::build(p, &defs, &pool, opts).expect("finite corpus term");
    let g2 = Graph::build(q, &defs, &pool, opts).expect("finite corpus term");
    for v in ALL {
        let exact = refine(v, &g1, &g2);
        let eps0 = refine_epsilon(v, &g1, &g2, 0.0);
        assert_eq!(
            exact.rel, eps0.rel,
            "{v:?}: ε=0 fixpoint differs from the exact one on {p} vs {q}"
        );
        let naive0 = refine_epsilon_naive(v, &g1, &g2, 0.0);
        assert_eq!(
            exact.rel, naive0.rel,
            "{v:?}: naive ε=0 sweep differs from the exact fixpoint on {p} vs {q}"
        );
    }
}

/// The seed-891 blocks (`a<c> + a(g1)`-style same-channel summands,
/// the shape that trips input-set bugs), paired every way.
#[test]
fn epsilon_zero_matches_exact_on_seed_891_blocks() {
    let ns = names(["a", "b", "c"]).to_vec();
    let mut cfg = GenCfg::sequential(ns);
    cfg.max_depth = 2;
    let mut g = Gen::new(cfg, 891);
    let ps = [g.process(), g.process(), g.process()];
    for p in &ps {
        for q in &ps {
            assert_zero_eps_bit_for_bit(p, q);
        }
    }
}

/// The seed-1624 pair: a double-τ-guarded input against its own
/// shuffle — the reflexive pair where weak saturation and discard
/// handling historically disagreed across variants.
#[test]
fn epsilon_zero_matches_exact_on_seed_1624_shuffle() {
    let seed = 1624u64;
    let cfg = GenCfg::finite_monadic(names(["a", "b"]).to_vec());
    let mut g = Gen::new(cfg, seed);
    let p = g.process();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5151);
    let q = shuffle(&p, &mut rng);
    assert_zero_eps_bit_for_bit(&p, &q);
}

/// The seed-45352 and seed-9724 parser-corner terms (`|`-under-`+`,
/// polyadic inputs guarding multi-binder restrictions), paired with
/// each other and themselves.
#[test]
fn epsilon_zero_matches_exact_on_parser_corpus_seeds() {
    let cfg = GenCfg {
        names: names(["a", "b", "c"]).to_vec(),
        max_depth: 4,
        allow_restriction: true,
        allow_match: true,
        allow_par: true,
        max_arity: 3,
    };
    let p = Gen::new(cfg.clone(), 45352).process();
    let q = Gen::new(cfg, 9724).process();
    assert_zero_eps_bit_for_bit(&p, &q);
    assert_zero_eps_bit_for_bit(&p, &p);
    assert_zero_eps_bit_for_bit(&q, &q);
}

/// `k` τ-prefixes in front of `end`.
fn ladder(k: usize, end: P) -> P {
    (0..k).fold(end, |p, _| tau(p))
}

/// Pairs whose products lie above the naive cutover (1,024 pairs): a
/// 34-state τ-ladder against its `ne` perturbation (another final barb)
/// and its `sum` perturbation (an idempotent choice at the end), and a
/// τ-ladder beside a monadic listener against one beside a dyadic
/// listener on the same channel.
fn above_cutover_pairs() -> Vec<(P, P)> {
    let [a, b, c, x, y] = names(["a", "b", "c", "x", "y"]);
    vec![
        (ladder(32, out_(a, [])), ladder(32, out_(b, []))),
        (
            ladder(32, out_(a, [])),
            ladder(32, sum(out_(a, []), out_(a, []))),
        ),
        (
            par(ladder(5, nil()), inp(a, [x], out_(b, [x]))),
            par(ladder(5, nil()), inp(a, [x, y], out_(c, [y]))),
        ),
    ]
}

/// Above the naive cutover `refine_epsilon` runs the pairwise round
/// engine, and its relation must equal the naive sweep's, bit for bit.
#[test]
fn epsilon_round_engine_matches_naive_above_the_cutover() {
    let defs = Defs::new();
    let opts = Opts::default();
    for (p, q) in above_cutover_pairs() {
        let pool = shared_pool(&p, &q, opts.fresh_inputs);
        let g1 = Graph::build(&p, &defs, &pool, opts).expect("finite pair");
        let g2 = Graph::build(&q, &defs, &pool, opts).expect("finite pair");
        assert!(
            g1.len() * g2.len() > 1024,
            "{p} vs {q}: {} × {} pairs is not above the naive cutover",
            g1.len(),
            g2.len()
        );
        for v in ALL {
            for eps in [0.1, 0.25, 0.5] {
                let rounds = refine_epsilon(v, &g1, &g2, eps);
                let naive = refine_epsilon_naive(v, &g1, &g2, eps);
                assert_eq!(
                    rounds.rel, naive.rel,
                    "{v:?}: round engine and naive sweep diverged at ε={eps} on {p} vs {q}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Random pairs: ε=0 agreement with the exact fixpoint, agreement
    // with the naive sweep at a random tolerance, and monotone growth of
    // the surviving relation in ε.
    #[test]
    fn epsilon_engines_agree_and_grow(seed in 0u64..1_000_000) {
        // One generator seed drives both the pair and the tolerance.
        let eps = (seed % 1001) as f64 / 1000.0;
        let cfg = GenCfg::finite_monadic(names(["a", "b", "c"]).to_vec());
        let mut gen = Gen::new(cfg, seed);
        let (p, q) = gen.related_pair();
        let defs = Defs::new();
        let opts = Opts::default();
        let pool = shared_pool(&p, &q, opts.fresh_inputs);
        let g1 = Graph::build(&p, &defs, &pool, opts).expect("finite generator");
        let g2 = Graph::build(&q, &defs, &pool, opts).expect("finite generator");
        for v in ALL {
            let exact = refine(v, &g1, &g2);
            let eps0 = refine_epsilon(v, &g1, &g2, 0.0);
            prop_assert_eq!(
                &exact.rel, &eps0.rel,
                "{:?} ε=0 diverged on {} vs {}", v, p, q
            );
            let fast = refine_epsilon(v, &g1, &g2, eps);
            let slow = refine_epsilon_naive(v, &g1, &g2, eps);
            prop_assert_eq!(
                &fast.rel, &slow.rel,
                "{:?} refine_epsilon/naive diverged at ε={} on {} vs {}", v, eps, p, q
            );
            // ε-monotonicity: everything surviving at 0 survives at ε.
            for i in 0..g1.len() {
                for j in 0..g2.len() {
                    prop_assert!(
                        !eps0.holds(i, j) || fast.holds(i, j),
                        "{:?}: pair ({}, {}) died when ε grew 0 → {}", v, i, j, eps
                    );
                }
            }
        }
    }
}
