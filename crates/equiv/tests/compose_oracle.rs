//! Differential tests for the compositional engine (ISSUE 8),
//! mirroring `partition_oracle.rs`: the monolithic build is retained as
//! the oracle exactly as naive-vs-worklist was for PR 2.
//!
//! * minimize-then-compose vs the monolithic build: whenever
//!   [`try_compose_pair`] accepts a pair, the composed graphs must be
//!   bisimilar to the monolithic graphs side by side for **all six**
//!   variants, and the root verdict of every variant must agree with
//!   the monolithic engine pointwise — compose-then-minimize ≡
//!   minimize-then-compose;
//! * symmetry-reduction soundness: permuting interchangeable (hash-
//!   cons-identical) components is invisible — the permuted system is
//!   bisimilar to the original under every variant, through both the
//!   compositional and the monolithic path;
//! * the seed-corpus regressions of PR 4/PR 7 are promoted to
//!   multi-component systems (the 891 blocks, the 1624 shuffle pair,
//!   the 45352/9724 parser-corner terms — the latter decline the gate
//!   via mixed arities and scope extrusion, pinning the fallback);
//! * the deterministic compose counters depend only on the term's structure.
//!
//! The metrics registry is process-global and every test here records
//! deterministic counters, so every test serialises on [`LOCK`] — an
//! unserialised test would leak its counters into another's delta.

use bpi_core::builder::*;
use bpi_core::name::Name;
use bpi_core::syntax::{Defs, P};
use bpi_equiv::arbitrary::{shuffle, Gen, GenCfg};
use bpi_equiv::{refine, refine_auto, shared_pool, try_compose_pair, Graph, Opts, Variant};
use bpi_obs::CounterDelta;
use bpi_semantics::Budget;
use proptest::prelude::*;
use rand::SeedableRng;
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const ALL: [Variant; 6] = [
    Variant::StrongBarbed,
    Variant::StrongStep,
    Variant::StrongLabelled,
    Variant::WeakBarbed,
    Variant::WeakStep,
    Variant::WeakLabelled,
];

fn build_pair(p: &P, q: &P) -> (Graph, Graph) {
    let defs = Defs::new();
    let opts = Opts::default();
    let pool = shared_pool(p, q, opts.fresh_inputs);
    let g1 = Graph::build(p, &defs, &pool, opts).expect("finite test term");
    let g2 = Graph::build(q, &defs, &pool, opts).expect("finite test term");
    (g1, g2)
}

/// The core differential. Returns whether the gate accepted the pair,
/// so corpus tests can assert the compositional path actually ran.
fn assert_compose_matches_oracle(p: &P, q: &P) -> bool {
    let defs = Defs::new();
    let opts = Opts::default();
    let pool = shared_pool(p, q, opts.fresh_inputs);
    let composed =
        try_compose_pair(p, q, &defs, &pool, opts, &Budget::unlimited()).expect("finite test term");
    let Some((c1, c2)) = composed else {
        return false; // gate declined: the Checker takes the monolithic path
    };
    let (g1, g2) = build_pair(p, q);
    for v in ALL {
        // Pointwise: each composed graph is bisimilar to its
        // monolithic counterpart at the roots…
        assert!(
            refine(v, &g1, &c1).holds(0, 0),
            "{v:?}: composed left ≁ monolithic left on {p}"
        );
        assert!(
            refine(v, &g2, &c2).holds(0, 0),
            "{v:?}: composed right ≁ monolithic right on {q}"
        );
        // …so the verdicts agree for every variant.
        let mono = refine_auto(v, &g1, &g2, 1).holds(0, 0);
        let comp = refine_auto(v, &c1, &c2, 1).holds(0, 0);
        assert_eq!(
            mono, comp,
            "{v:?}: compositional verdict diverged from monolithic on {p} vs {q}"
        );
    }
    true
}

fn ns3() -> Vec<Name> {
    names(["a", "b", "c"]).to_vec()
}

/// The seed-891 blocks promoted to two- and three-component systems:
/// every ordered pair composed in parallel, compared against its swap
/// (the Par-commutativity instance the expansion law must respect).
#[test]
fn compose_matches_oracle_on_seed_891_blocks() {
    let _g = lock();
    let mut cfg = GenCfg::sequential(ns3());
    cfg.max_depth = 2;
    let mut g = Gen::new(cfg, 891);
    let ps = [g.process(), g.process(), g.process()];
    let mut accepted = 0usize;
    for p in &ps {
        for q in &ps {
            let sys = par(p.clone(), q.clone());
            let swapped = par(q.clone(), p.clone());
            if assert_compose_matches_oracle(&sys, &swapped) {
                accepted += 1;
            }
        }
    }
    let triple = par_of(ps.iter().cloned());
    let rotated = par_of(ps.iter().rev().cloned());
    assert_compose_matches_oracle(&triple, &rotated);
    assert!(accepted > 0, "the sequential corpus must pass the gate");
}

/// The seed-1624 double-τ-guarded input against its shuffle, as a
/// two-component broadcast system on each side.
#[test]
fn compose_matches_oracle_on_seed_1624_shuffle() {
    let _g = lock();
    let seed = 1624u64;
    let cfg = GenCfg::finite_monadic(names(["a", "b"]).to_vec());
    let mut g = Gen::new(cfg, seed);
    let p = g.process();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5151);
    let q = shuffle(&p, &mut rng);
    assert_compose_matches_oracle(&par(p.clone(), q.clone()), &par(q.clone(), p.clone()));
    assert_compose_matches_oracle(&par(p.clone(), p.clone()), &par(q.clone(), q));
}

/// The parser-corner seeds (polyadic inputs, restrictions, `|` under
/// `+`): these mix input arities and extrude scopes, so the joint gate
/// must decline rather than mis-compose — and the differential still
/// holds wherever it accepts.
#[test]
fn compose_matches_oracle_on_parser_corpus_seeds() {
    let _g = lock();
    let cfg = GenCfg {
        names: ns3(),
        max_depth: 4,
        allow_restriction: true,
        allow_match: true,
        allow_par: true,
        max_arity: 3,
    };
    let p = Gen::new(cfg.clone(), 45352).process();
    let q = Gen::new(cfg, 9724).process();
    assert_compose_matches_oracle(&par(p.clone(), q.clone()), &par(q.clone(), p.clone()));
    assert_compose_matches_oracle(&p, &q);
    assert_compose_matches_oracle(&par(p.clone(), p.clone()), &par(p.clone(), p));
}

/// Symmetry-reduction soundness on crafted identical components: any
/// permutation of a multiset of stations is bisimilar to any other,
/// and the compositional engine must both accept the shape and agree
/// with the monolithic verdict (`Holds`) for every variant.
#[test]
fn permuted_identical_components_hold_under_every_variant() {
    let _g = lock();
    let [a, b] = names(["a", "b"]);
    let station = || sum(out_(a, []), tau(out(b, [], inp_(a, []))));
    let relay = || inp(a, [], out_(b, []));
    let p = par_of([station(), station(), relay()]);
    let q = par_of([relay(), station(), station()]);
    assert!(
        assert_compose_matches_oracle(&p, &q),
        "identical-component systems must pass the gate"
    );
    let defs = Defs::new();
    let opts = Opts::default();
    let pool = shared_pool(&p, &q, opts.fresh_inputs);
    let (c1, c2) = try_compose_pair(&p, &q, &defs, &pool, opts, &Budget::unlimited())
        .expect("finite")
        .expect("gate accepts");
    for v in ALL {
        assert!(
            refine_auto(v, &c1, &c2, 1).holds(0, 0),
            "{v:?}: permuted multiset must be bisimilar"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(240))]

    // 240 random two/three-component systems × 6 variants: pointwise
    // agreement between minimize-then-compose and the monolithic
    // oracle (the ISSUE acceptance floor), with the second system a
    // seeded permutation/shuffle of the first's components.
    #[test]
    fn compose_agrees_with_monolithic(seed in 0u64..1_000_000) {
        let _g = lock();
        let cfg = GenCfg::finite_monadic(ns3());
        let mut gen = Gen::new(cfg, seed);
        let mut comps = vec![gen.process(), gen.process()];
        if seed % 2 == 0 {
            comps.push(gen.process());
        }
        let p = par_of(comps.iter().cloned());
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xC0C0);
        let q = if seed % 3 == 0 {
            // A component-wise shuffle: bisimilar by construction.
            par_of(comps.iter().map(|c| shuffle(c, &mut rng)))
        } else {
            // A rotation of the component list.
            par_of(comps.iter().cycle().skip(1).take(comps.len()).cloned())
        };
        assert_compose_matches_oracle(&p, &q);
    }
}

/// Runs `f` and returns the deterministic-counter delta it produced.
fn det_delta(f: impl FnOnce()) -> CounterDelta {
    let before = bpi_obs::snapshot();
    f();
    bpi_obs::snapshot().deterministic_delta(&before)
}

/// The deterministic compose counters (`equiv.compose.builds`,
/// `.components`, `.classes`, `.states`) are functions of the term's
/// structure: the same structure built twice under fresh channel names
/// (which defeat the memo) leaves identical deltas.
#[test]
fn compose_counters_repeat_on_fresh_names() {
    let _g = lock();
    let build = |tag: &str| {
        let [a, b] = names([format!("{tag}a").as_str(), format!("{tag}b").as_str()]);
        let station = || sum(out_(a, []), tau(out(b, [], inp_(a, []))));
        let p = par_of([station(), station(), station()]);
        let defs = Defs::new();
        let opts = Opts::default();
        let pool = shared_pool(&p, &p, opts.fresh_inputs);
        let g = bpi_equiv::build_composed(&p, &defs, &pool, opts, &Budget::unlimited())
            .expect("finite")
            .expect("gate accepts");
        assert!(!g.is_empty());
    };
    let d1 = det_delta(|| build("t1"));
    let d2 = det_delta(|| build("t2"));
    assert!(
        d1.contains_key("equiv.compose.builds"),
        "no compose trace: {d1:?}"
    );
    assert_eq!(d1, d2, "compose counters must not depend on channel names");
}
