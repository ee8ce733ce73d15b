//! Experiment E3 — Lemmas 2, 4, and 6: the twelve structural laws
//! (a)–(l) hold for barbed, step and labelled bisimilarity.
//!
//! Each law is checked exactly on representative processes and
//! property-tested on random finite processes, for all three strong
//! bisimilarities (the labelled one implies the weak variants by
//! Lemma 10/11, which `implications.rs` checks separately).

use bpi::core::builder::*;
use bpi::core::name::Name;
use bpi::core::subst::Subst;
use bpi::core::syntax::{Defs, P};
use bpi::equiv::arbitrary::{Gen, GenCfg};
use bpi::equiv::{Checker, Variant};
use proptest::prelude::*;

mod common;
use common::{all_variants, decide, strong};

fn assert_all_strong(p: &P, q: &P, what: &str) {
    let defs = Defs::new();
    let c = Checker::new(&defs);
    for v in [
        Variant::StrongBarbed,
        Variant::StrongStep,
        Variant::StrongLabelled,
    ] {
        assert!(decide(&c, v, p, q), "{what} failed for {v:?}: {p} vs {q}");
    }
}

fn gen_triple(seed: u64) -> (P, P, P) {
    let cfg = GenCfg::finite_monadic(names(["a", "b"]).to_vec());
    let mut g = Gen::new(cfg, seed);
    (g.process(), g.process(), g.process())
}

#[test]
fn law_a_alpha_conversion() {
    let [a, x, y] = names(["a", "x", "y"]);
    let p = inp(a, [x], out_(x, []));
    let q = inp(a, [y], out_(y, []));
    assert!(bpi::core::alpha_eq(&p, &q));
    assert_all_strong(&p, &q, "(a) p =α q ⇒ p ~ q");
}

#[test]
fn laws_b_to_l_exact() {
    let [a, b, x, y, z] = names(["a", "b", "x", "y", "z"]);
    let p = out(a, [b], inp_(a, [x]));
    let q = tau(out_(b, []));
    let r = inp(b, [x], out_(x, []));

    // (b) p ‖ nil ~ p
    assert_all_strong(&par(p.clone(), nil()), &p, "(b)");
    // (c) p ‖ q ~ q ‖ p
    assert_all_strong(
        &par(p.clone(), q.clone()),
        &par(q.clone(), p.clone()),
        "(c)",
    );
    // (d) (p ‖ q) ‖ r ~ p ‖ (q ‖ r)
    assert_all_strong(
        &par(par(p.clone(), q.clone()), r.clone()),
        &par(p.clone(), par(q.clone(), r.clone())),
        "(d)",
    );
    // (e) p + nil ~ p
    assert_all_strong(&sum(p.clone(), nil()), &p, "(e)");
    // (f) p + q ~ q + p
    assert_all_strong(
        &sum(p.clone(), q.clone()),
        &sum(q.clone(), p.clone()),
        "(f)",
    );
    // (g) (p + q) + r ~ p + (q + r)
    assert_all_strong(
        &sum(sum(p.clone(), q.clone()), r.clone()),
        &sum(p.clone(), sum(q.clone(), r.clone())),
        "(g)",
    );
    // (h) νx p ~ p when x ∉ fn(p)
    let w = Name::new("unused");
    assert_all_strong(&new(w, p.clone()), &p, "(h)");
    // (i) νy νx p ~ νx νy p
    let inner = out(a, [x], out_(y, []));
    assert_all_strong(
        &new(y, new(x, inner.clone())),
        &new(x, new(y, inner.clone())),
        "(i)",
    );
    // (j) (νx p) ‖ q ~ νx (p ‖ q) when x ∉ fn(q)
    let px = out(a, [x], out_(x, []));
    let qq = out_(b, []);
    assert_all_strong(
        &par(new(x, px.clone()), qq.clone()),
        &new(x, par(px.clone(), qq.clone())),
        "(j)",
    );
    // (k) (νx p) + q ~ νx (p + q) when x ∉ fn(q)
    assert_all_strong(
        &sum(new(x, px.clone()), qq.clone()),
        &new(x, sum(px.clone(), qq.clone())),
        "(k)",
    );
    // (l) (y=z)(νx p), q ~ νx ((y=z)p, q) when x ∉ fn(q) ∪ {y,z}
    assert_all_strong(
        &mat(y, z, new(x, px.clone()), qq.clone()),
        &new(x, mat(y, z, px, qq)),
        "(l)",
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn laws_on_random_processes(seed in 0u64..5_000) {
        let (p, q, r) = gen_triple(seed);
        let defs = Defs::new();
        let c = Checker::new(&defs);
        // A representative subset across all six variants, using the
        // joint driver from bisim::all_variants.
        for (v, res) in all_variants(&par(p.clone(), nil()), &p, &defs) {
            prop_assert!(res, "(b) failed for {:?} on {}", v, p);
        }
        for v in [Variant::StrongLabelled, Variant::WeakLabelled] {
            prop_assert!(
                decide(&c, v, &par(p.clone(), q.clone()), &par(q.clone(), p.clone())),
                "(c) failed for {:?}", v
            );
            prop_assert!(
                decide(&c,
                    v,
                    &sum(sum(p.clone(), q.clone()), r.clone()),
                    &sum(p.clone(), sum(q.clone(), r.clone()))
                ),
                "(g) failed for {:?}", v
            );
        }
        // (h) with a name fresh for p.
        let u = Name::intern_raw("#hfresh");
        prop_assert!(!p.free_names().contains(u));
        prop_assert!(strong(&c, &new(u, p.clone()), &p), "(h) failed on {}", p);
    }

    #[test]
    fn substitution_respects_alpha_law(seed in 0u64..2_000) {
        // A sanity companion to (a): substituting then canonising equals
        // canonising then substituting, for binder-avoiding substitutions.
        let (p, _, _) = gen_triple(seed);
        let [a, b] = names(["a", "b"]);
        let s = Subst::single(a, b);
        let lhs = bpi::core::canon(&s.apply_process(&bpi::core::canon(&p)));
        let rhs = bpi::core::canon(&s.apply_process(&p));
        prop_assert_eq!(lhs, rhs);
    }
}
