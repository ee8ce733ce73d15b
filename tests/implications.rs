//! Experiments E7 and E9 — the inclusion lemmas between the
//! equivalences.
//!
//! * Lemmas 10, 11 (+ Corollaries 3, 4): labelled bisimilarity implies
//!   barbed and step bisimilarity, and — being preserved by static
//!   contexts (Lemmas 8, 9) — their context closures;
//! * Lemma 5 / Corollary 2: step-equivalence implies barbed
//!   equivalence, made executable through the paper's tester `T`, which
//!   converts broadcast observations into barbs.

use bpi::core::builder::*;
use bpi::core::syntax::Defs;
use bpi::equiv::arbitrary::{shuffle, Gen, GenCfg};
use bpi::equiv::contexts::{lemma5_tester, StaticContext};
use bpi::equiv::{Checker, Variant};
use proptest::prelude::*;
use rand::SeedableRng;

mod common;
use common::{decide, strong};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn labelled_implies_everything(seed in 0u64..4_000) {
        // Whenever p ~ q (labelled), every other variant must agree,
        // and every sampled static context must preserve barbed/step
        // bisimilarity (Corollaries 3 and 4).
        let cfg = GenCfg::finite_monadic(names(["a", "b"]).to_vec());
        let mut g = Gen::new(cfg, seed);
        let p = g.process();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5151);
        let q = shuffle(&p, &mut rng);
        let defs = Defs::new();
        let c = Checker::new(&defs);
        prop_assert!(strong(&c, &p, &q), "shuffle must preserve ~");
        for v in [
            Variant::StrongBarbed,
            Variant::WeakBarbed,
            Variant::StrongStep,
            Variant::WeakStep,
            Variant::WeakLabelled,
        ] {
            prop_assert!(decide(&c, v, &p, &q), "{:?} must follow from ~", v);
        }
        let pool: Vec<bpi::core::Name> = p.free_names().union(&q.free_names()).to_vec();
        for k in 0..3u64 {
            let mut crng = rand::rngs::StdRng::seed_from_u64(seed.wrapping_mul(31) + k);
            let ctx = StaticContext::random(&mut crng, &pool, 2);
            prop_assert!(
                decide(&c, Variant::StrongBarbed, &ctx.apply(&p), &ctx.apply(&q)),
                "context closure failed (Cor. 3)"
            );
            prop_assert!(
                decide(&c, Variant::StrongStep, &ctx.apply(&p), &ctx.apply(&q)),
                "context closure failed (Cor. 4)"
            );
        }
    }

    #[test]
    fn sampled_separation_refutes_labelled(seed in 0u64..2_000) {
        // Soundness of the context sampler: if some static context
        // separates C[p] and C[q] under barbed bisimilarity, then p ≁ q.
        let cfg = GenCfg::finite_monadic(names(["a", "b"]).to_vec());
        let mut g = Gen::new(cfg, seed);
        let p = g.process();
        let q = g.process();
        let defs = Defs::new();
        let c = Checker::new(&defs);
        let separated = bpi::equiv::contexts::sampled_equivalence(
            Variant::StrongBarbed, &p, &q, &defs, 10, seed
        ).is_err();
        if separated {
            prop_assert!(!strong(&c, &p, &q), "separated pair cannot be ~: {} vs {}", p, q);
        }
    }
}

#[test]
fn lemma5_implication_on_curated_pairs() {
    // Lemma 5 proves: if p‖T ≈φ q‖T (step bisimilarity of the
    // compositions with the tester) then p ≈b q. We check the
    // implication and its contrapositive on a curated family.
    let defs = Defs::new();
    let checker = Checker::new(&defs);
    let [a, b, c, x] = names(["a", "b", "c", "x"]);
    let pairs: Vec<(bpi::core::syntax::P, bpi::core::syntax::P)> = vec![
        // Equivalent pairs.
        (out(a, [b], nil()), par(out_(a, [b]), nil())),
        (tau(out_(a, [])), out_(a, [])),
        (inp_(a, [x]), nil()),
        // Barbed-inequivalent pairs: T must propagate the difference
        // into step-inequivalence of the compositions.
        (out_(a, []), out_(b, [])),
        (out(a, [], out_(b, [])), out(a, [], out_(c, []))),
        (new(a, out(a, [b], out_(c, []))), nil()), // τ.c̄ vs inert
    ];
    for (p, q) in pairs {
        let fns = p.free_names().union(&q.free_names());
        let (t, _, _) = lemma5_tester(&fns);
        let composed_step = decide(
            &checker,
            Variant::WeakStep,
            &par(p.clone(), t.clone()),
            &par(q.clone(), t.clone()),
        );
        let barbed = decide(&checker, Variant::WeakBarbed, &p, &q);
        if composed_step {
            assert!(barbed, "Lemma 5 violated: {p}‖T ≈φ {q}‖T but p ≉b q");
        }
        if !barbed {
            assert!(!composed_step, "contrapositive violated for {p} vs {q}");
        }
    }
}

#[test]
fn lemma5_tester_exposes_hidden_reductions() {
    // A step-observer with T in parallel hears what a τ-only observer
    // cannot: āb vs āb.c̄d (the Remark 1 pair) are weakly *barbed*
    // bisimilar alone, but their T-compositions are not weakly
    // step-bisimilar — the broadcasts are steps, and after the first
    // one the barbs differ. This is why step-equivalence (which closes
    // over such compositions) is finer-grained "for free".
    let defs = Defs::new();
    let checker = Checker::new(&defs);
    let [a, b, c, e] = names(["a", "b", "c", "d"]);
    let p = out_(a, [b]);
    let q = out(a, [b], out_(c, [e]));
    assert!(decide(&checker, Variant::WeakBarbed, &p, &q));
    let fns = p.free_names().union(&q.free_names());
    let (t, _, _) = lemma5_tester(&fns);
    assert!(
        !decide(
            &checker,
            Variant::WeakStep,
            &par(p.clone(), t.clone()),
            &par(q.clone(), t.clone())
        ),
        "the compositions must be step-separated"
    );
    // Consistently, barbed *equivalence* (context closure) also fails —
    // Remark 1's restriction context νa [·] separates them.
    assert!(!decide(
        &checker,
        Variant::WeakBarbed,
        &new(a, p),
        &new(a, q)
    ));
}

#[test]
fn weak_is_coarser_than_strong() {
    // ≈ ⊋ ~ : τ-padding is invisible weakly, visible strongly — for all
    // three notions.
    let defs = Defs::new();
    let a = bpi::core::Name::new("a");
    let p = tau(tau(out_(a, [])));
    let q = out_(a, []);
    let c = Checker::new(&defs);
    for (strong, weak) in [
        (Variant::StrongBarbed, Variant::WeakBarbed),
        (Variant::StrongStep, Variant::WeakStep),
        (Variant::StrongLabelled, Variant::WeakLabelled),
    ] {
        assert!(!decide(&c, strong, &p, &q), "{strong:?} must see the τs");
        assert!(decide(&c, weak, &p, &q), "{weak:?} must absorb the τs");
    }
}
