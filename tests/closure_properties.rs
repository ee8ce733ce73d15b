//! Experiments E4 and E8 — closure properties of the equivalences.
//!
//! * Lemma 3: barbed bisimilarity (strong and weak) is preserved by
//!   parallel composition — the *opposite* of the π-calculus situation;
//! * Lemmas 8, 9: labelled bisimilarity is preserved by restriction and
//!   parallel composition;
//! * and the negative side (Remarks 1, 2): neither barbed nor step
//!   bisimilarity is preserved by restriction — checked exactly in
//!   `counterexamples.rs`, and probed here on random pairs (when `p ~ q`
//!   labelled, the closures must hold; randomised evidence).

use bpi::core::builder::*;
use bpi::core::syntax::Defs;
use bpi::equiv::arbitrary::{shuffle, Gen, GenCfg};
use bpi::equiv::{Checker, Variant};
use proptest::prelude::*;
use rand::SeedableRng;

mod common;
use common::{decide, strong, weak};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn lemma3_barbed_preserved_by_parallel(seed in 0u64..4_000) {
        // Take a pair known to be barbed-bisimilar (a shuffle of the
        // same process is even labelled-bisimilar, hence barbed), and a
        // random r: the compositions must stay barbed bisimilar.
        let cfg = GenCfg::finite_monadic(names(["a", "b"]).to_vec());
        let mut g = Gen::new(cfg, seed);
        let p = g.process();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xabc);
        let q = shuffle(&p, &mut rng);
        let r = g.process();
        let defs = Defs::new();
        let c = Checker::new(&defs);
        for v in [Variant::StrongBarbed, Variant::WeakBarbed] {
            prop_assert!(decide(&c, v, &p, &q));
            prop_assert!(
                decide(&c, v, &par(p.clone(), r.clone()), &par(q.clone(), r.clone())),
                "Lemma 3 failed for {:?}: {} vs {} with {}", v, p, q, r
            );
        }
    }

    #[test]
    fn lemma8_labelled_preserved_by_restriction(seed in 0u64..4_000) {
        let cfg = GenCfg::finite_monadic(names(["a", "b"]).to_vec());
        let mut g = Gen::new(cfg, seed);
        let p = g.process();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x123);
        let q = shuffle(&p, &mut rng);
        let defs = Defs::new();
        let c = Checker::new(&defs);
        let a = bpi::core::Name::new("a");
        prop_assert!(strong(&c, &p, &q));
        prop_assert!(
            strong(&c, &new(a, p.clone()), &new(a, q.clone())),
            "Lemma 8 failed: νa{} vs νa{}", p, q
        );
        prop_assert!(weak(&c, &new(a, p.clone()), &new(a, q.clone())));
    }

    #[test]
    fn lemma9_labelled_preserved_by_parallel(seed in 0u64..4_000) {
        let cfg = GenCfg::finite_monadic(names(["a", "b"]).to_vec());
        let mut g = Gen::new(cfg, seed);
        let p = g.process();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x777);
        let q = shuffle(&p, &mut rng);
        let r = g.process();
        let defs = Defs::new();
        let c = Checker::new(&defs);
        prop_assert!(
            strong(&c, &par(p.clone(), r.clone()), &par(q.clone(), r.clone())),
            "Lemma 9 failed: {}‖{} vs {}‖{}", p, r, q, r
        );
    }
}

#[test]
fn lemma3_on_discriminating_listener() {
    // The interesting case of Lemma 3: the composed r *listens* to what
    // p and q broadcast. p = āb + āb (dup) and q = āb are barbed
    // bisimilar; r = a(x).x̄ must not separate them.
    let defs = Defs::new();
    let [a, b, x] = names(["a", "b", "x"]);
    let p = sum(out_(a, [b]), out_(a, [b]));
    let q = out_(a, [b]);
    let r = inp(a, [x], out_(x, []));
    let c = Checker::new(&defs);
    assert!(decide(&c, Variant::StrongBarbed, &p, &q));
    assert!(decide(
        &c,
        Variant::StrongBarbed,
        &par(p.clone(), r.clone()),
        &par(q.clone(), r.clone())
    ));
    // And for the weak variant with a τ in front.
    let pt = tau(p);
    let qt = tau(q);
    assert!(decide(
        &c,
        Variant::WeakBarbed,
        &par(pt, r.clone()),
        &par(qt, r)
    ));
}

#[test]
fn congruence_closed_under_input_prefix_needs_substitutions() {
    // Input prefix is *not* a static context: a(y).p closes p under
    // substitutions of y. ~ is not preserved (Remark 3) but ~c is
    // (Lemma 13) — shown here on the match witness.
    let defs = Defs::new();
    let [a, x, y, cch] = names(["a", "x", "y", "c"]);
    let p = mat_(x, y, out_(cch, []));
    let q = nil();
    let c = Checker::new(&defs);
    assert!(strong(&c, &p, &q), "p ~ q");
    assert!(
        !strong(&c, &inp(a, [y], p.clone()), &inp(a, [y], q.clone())),
        "a(y).p ≁ a(y).q — receiving x awakens the match"
    );
}
