//! Experiments E12–E14 — Section 4: the congruence `~c`.
//!
//! * Remark 4: `~c ⊊ ~₊ ⊊ ~`, all inclusions strict;
//! * Lemma 13 / Theorem 2: `~c` is preserved by every operator —
//!   prefix, restriction, sum, match, parallel (randomised closure);
//! * Theorem 3: `~c` coincides with barbed congruence — the `C₁`
//!   rebinding context plus a name feeder realises any substitution
//!   inside a context, so non-congruent pairs are barbed-separated by a
//!   context and congruent pairs survive the same battery.

use bpi::core::builder::*;
use bpi::core::name::Name;
use bpi::core::syntax::{Defs, P};
use bpi::equiv::arbitrary::{shuffle, Gen, GenCfg};
use bpi::equiv::contexts::theorem3_context;
use bpi::equiv::graph::identification_substs;
use bpi::equiv::{congruent_strong, congruent_weak, sim_plus, Checker, Opts, Variant};
use proptest::prelude::*;
use rand::SeedableRng;

mod common;
use common::{decide, strong, weak};

type CtxFn = Box<dyn Fn(&P) -> P>;

fn defs() -> Defs {
    Defs::new()
}

fn opts() -> Opts {
    Opts::default()
}

#[test]
fn remark4_strict_inclusion_chain() {
    let d = defs();
    let [x, y, c, a, b, v] = names(["x", "y", "c", "a", "b", "v"]);
    let checker = Checker::new(&d);

    // ~c ⊆ ~₊ ⊆ ~ on a positive witness.
    let p = out(a, [b], nil());
    let q = par(p.clone(), nil());
    assert!(congruent_strong(&p, &q, &d, opts()));
    assert!(sim_plus(&p, &q, &d, opts()));
    assert!(strong(&checker, &p, &q));

    // Strictness of ~c ⊊ ~₊ : the match witness.
    let m = mat_(x, y, out_(c, []));
    assert!(sim_plus(&m, &nil(), &d, opts()));
    assert!(!congruent_strong(&m, &nil(), &d, opts()));

    // Strictness of ~₊ ⊊ ~ : bare input prefixes.
    let pa = inp_(a, [v]);
    let pb = inp_(b, [v]);
    assert!(strong(&checker, &pa, &pb));
    assert!(!sim_plus(&pa, &pb, &d, opts()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn theorem2_congruence_closed_under_all_operators(seed in 0u64..3_000) {
        let d = defs();
        let cfg = GenCfg::finite_monadic(names(["a", "b"]).to_vec());
        let mut g = Gen::new(cfg, seed);
        let p = g.process();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x44);
        let q = shuffle(&p, &mut rng);
        let r = g.process();
        prop_assert!(congruent_strong(&p, &q, &d, opts()));
        let [a, b, x] = names(["a", "b", "x"]);
        let contexts: Vec<(&str, CtxFn)> = vec![
            ("tau prefix", Box::new(move |t: &P| tau(t.clone()))),
            ("output prefix", Box::new(move |t: &P| out(a, [b], t.clone()))),
            ("input prefix", Box::new(move |t: &P| inp(a, [x], t.clone()))),
            ("restriction", Box::new(move |t: &P| new(b, t.clone()))),
            ("match", Box::new(move |t: &P| mat(a, b, t.clone(), nil()))),
        ];
        for (label, ctx) in contexts {
            prop_assert!(
                congruent_strong(&ctx(&p), &ctx(&q), &d, opts()),
                "~c broken under {}: {} vs {}", label, p, q
            );
        }
        // Binary contexts with a random partner.
        prop_assert!(
            congruent_strong(&sum(p.clone(), r.clone()), &sum(q.clone(), r.clone()), &d, opts()),
            "~c broken under + with {}", r
        );
        prop_assert!(
            congruent_strong(&par(p.clone(), r.clone()), &par(q.clone(), r.clone()), &d, opts()),
            "~c broken under ‖ with {}", r
        );
    }
}

/// Feeds the `C₁` context of Theorem 3 a concrete tuple of names,
/// realising the substitution `[ỹ/x̃]` inside a static context. The
/// rebinding channel `u` is restricted so that the feeding handshakes
/// are `τ` steps — barbed observation can only walk silent moves, and
/// Theorem 3's context closure includes exactly this restriction.
fn feed_c1(plugged: &P, u: Name, values: &[Name]) -> P {
    let mut feeder = nil();
    for &v in values.iter().rev() {
        feeder = out(u, [v], feeder);
    }
    new(u, par(plugged.clone(), feeder))
}

#[test]
fn theorem3_c1_context_separates_non_congruent_pairs() {
    let d = defs();
    let [x, y, c] = names(["x", "y", "c"]);
    // The match witness: bisimilar, not congruent — the separating
    // substitution merges x and y.
    let p = mat_(x, y, out_(c, []));
    let q = nil();
    assert!(strong(&Checker::new(&d), &p, &q));
    assert!(!congruent_strong(&p, &q, &d, opts()));

    // Find the separating identification, then realise it with C₁.
    let fns = p.free_names().union(&q.free_names());
    let sep = identification_substs(&fns)
        .into_iter()
        .find(|s| {
            let ps = s.apply_process(&p);
            let qs = s.apply_process(&q);
            !sim_plus(&ps, &qs, &d, opts())
        })
        .expect("a separating identification exists");

    let (plug, u, _v) = theorem3_context(&fns);
    // Feed the collapsed values in the fixed order of the free names.
    let values: Vec<Name> = fns.iter().map(|n| sep.apply(n)).collect();
    let cp = feed_c1(&plug(&p), u, &values);
    let cq = feed_c1(&plug(&q), u, &values);
    let checker = Checker::new(&d);
    assert!(
        !decide(&checker, Variant::WeakBarbed, &cp, &cq),
        "C₁ plus the feeder must separate the non-congruent pair"
    );
}

#[test]
fn theorem3_c1_context_preserves_congruent_pairs() {
    let d = defs();
    let [a, b] = names(["a", "b"]);
    let p = out(a, [b], nil());
    let q = par(p.clone(), nil());
    assert!(congruent_strong(&p, &q, &d, opts()));
    let fns = p.free_names().union(&q.free_names());
    let (plug, u, _v) = theorem3_context(&fns);
    let checker = Checker::new(&d);
    // Any feeding of names from the free set keeps them barbed bisimilar.
    let name_list: Vec<Name> = fns.to_vec();
    for perm in [
        name_list.clone(),
        name_list.iter().rev().copied().collect::<Vec<_>>(),
        vec![name_list[0]; name_list.len()],
    ] {
        let cp = feed_c1(&plug(&p), u, &perm);
        let cq = feed_c1(&plug(&q), u, &perm);
        assert!(
            decide(&checker, Variant::WeakBarbed, &cp, &cq),
            "C₁ separated a congruent pair when fed {perm:?}"
        );
    }
}

#[test]
fn weak_congruence_mirrors_strong_shape() {
    // Theorems 4–5's relations behave analogously: ≈c is closed under
    // the operators and refines ≈.
    let d = defs();
    let [a, b] = names(["a", "b"]);
    let p = out(a, [], tau(out_(b, [])));
    let q = out(a, [], out_(b, []));
    assert!(congruent_weak(&p, &q, &d, opts()));
    for ctx in [
        |t: &P| tau(t.clone()),
        |t: &P| sum(t.clone(), out_(Name::new("zc"), [])),
        |t: &P| par(t.clone(), inp_(Name::new("a"), [])),
    ] {
        assert!(
            congruent_weak(&ctx(&p), &ctx(&q), &d, opts()),
            "≈c broken under a context"
        );
    }
    // And the initial-τ discriminator stays out of ≈c.
    let pt = tau(out_(a, []));
    let qt = out_(a, []);
    assert!(!congruent_weak(&pt, &qt, &d, opts()));
    assert!(weak(&Checker::new(&d), &pt, &qt));
}
