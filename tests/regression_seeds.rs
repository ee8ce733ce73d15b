//! The `*.proptest-regressions` seeds, promoted to named tests.
//!
//! Proptest replays the seed files automatically, but only for whoever
//! runs the owning property — a shrunk counterexample deserves a named
//! test that states *what* it once broke and runs in every suite
//! configuration (including `--test regression_seeds` in isolation).
//! Each test below reproduces the generator state of the recorded seed
//! exactly (same `GenCfg`, same derived RNGs) and re-asserts the
//! property on it; the seed files stay checked in so proptest still
//! front-loads them.

use bpi::axioms::{Axiom, Blocks, ALL_AXIOMS};
use bpi::core::builder::*;
use bpi::core::syntax::{Defs, P};
use bpi::core::{canon, parse_process};
use bpi::equiv::arbitrary::{shuffle, Gen, GenCfg};
use bpi::equiv::contexts::StaticContext;
use bpi::equiv::{congruent_strong, Checker, Opts, Variant};
use rand::SeedableRng;

mod common;
use common::{decide, strong};

fn semantic_congruent(lhs: &P, rhs: &P) -> bool {
    let defs = Defs::new();
    congruent_strong(lhs, rhs, &defs, Opts::default())
}

/// `tests/axioms_sound.proptest-regressions`, shrunk to `seed = 891`.
///
/// The blocks this seed generates include `a<c> + a(g1)` — a summand
/// that *listens on the same channel it sends on*. That shape is
/// exactly what the side conditions of the input-saturating axioms
/// guard against ((H) requires `a ∉ In(p)`, (SP) saturates pointwise
/// over instantiations), so an instantiation bug that ignores a block's
/// input set is invisible on blander blocks and unsound here.
#[test]
fn axioms_sound_seed_891() {
    let ns = names(["a", "b", "c"]).to_vec();
    let mut cfg = GenCfg::sequential(ns.clone());
    cfg.max_depth = 2;
    let mut g = Gen::new(cfg, 891);
    let blocks = Blocks {
        ps: vec![g.process(), g.process(), g.process()],
        ns,
    };
    for ax in ALL_AXIOMS {
        if ax == Axiom::Expansion {
            continue;
        }
        if let Some((lhs, rhs)) = ax.instantiate(&blocks) {
            assert!(
                semantic_congruent(&lhs, &rhs),
                "{ax:?} unsound on the seed-891 blocks: {lhs}  ≠  {rhs}"
            );
        }
    }
}

/// `tests/implications.proptest-regressions`, shrunk to `seed = 1624`.
///
/// The generated pair is `τ.τ.b(g1)` shuffled into *itself* — the
/// counterexample was never about the shuffle, but about the checkers:
/// a double-τ-guarded input is where the weak variants' saturation and
/// the sampled static contexts (which can add listeners on `b`) have to
/// agree with plain labelled bisimilarity, and a discard-handling bug
/// in any one variant breaks the inclusion lemmas on a literally
/// reflexive pair.
#[test]
fn implications_seed_1624() {
    let seed = 1624u64;
    let cfg = GenCfg::finite_monadic(names(["a", "b"]).to_vec());
    let mut g = Gen::new(cfg, seed);
    let p = g.process();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5151);
    let q = shuffle(&p, &mut rng);
    let defs = Defs::new();
    let c = Checker::new(&defs);
    assert!(strong(&c, &p, &q), "shuffle must preserve ~");
    for v in [
        Variant::StrongBarbed,
        Variant::WeakBarbed,
        Variant::StrongStep,
        Variant::WeakStep,
        Variant::WeakLabelled,
    ] {
        assert!(decide(&c, v, &p, &q), "{v:?} must follow from ~");
    }
    let pool: Vec<bpi::core::Name> = p.free_names().union(&q.free_names()).to_vec();
    for k in 0..3u64 {
        let mut crng = rand::rngs::StdRng::seed_from_u64(seed.wrapping_mul(31) + k);
        let ctx = StaticContext::random(&mut crng, &pool, 2);
        assert!(
            decide(&c, Variant::StrongBarbed, &ctx.apply(&p), &ctx.apply(&q)),
            "context closure failed (Cor. 3)"
        );
        assert!(
            decide(&c, Variant::StrongStep, &ctx.apply(&p), &ctx.apply(&q)),
            "context closure failed (Cor. 4)"
        );
    }
}

fn parser_gen_cfg() -> GenCfg {
    GenCfg {
        names: names(["a", "b", "c"]).to_vec(),
        max_depth: 4,
        allow_restriction: true,
        allow_match: true,
        allow_par: true,
        max_arity: 3,
    }
}

/// `tests/parser_roundtrip.proptest-regressions`, shrunk to
/// `seed = 45352`.
///
/// Generates `(c(g1,g2).new g3. 0 | c(g4)) + (a(g5) + (0 + 0) + b<b>.
/// (0 + 0))` — a parallel composition *inside* a sum, with a
/// restriction of an inert body and polyadic inputs. The `|`-under-`+`
/// nesting is the precedence corner where a printer that drops
/// parentheses re-associates the term, so the reparse compares unequal.
#[test]
fn parser_roundtrip_seed_45352() {
    let p = Gen::new(parser_gen_cfg(), 45352).process();
    let printed = p.to_string();
    let reparsed =
        parse_process(&printed).unwrap_or_else(|e| panic!("reparse of {printed:?} failed: {e}"));
    assert_eq!(p, reparsed, "round trip changed {printed}");
}

/// `tests/parser_roundtrip.proptest-regressions`, shrunk to
/// `seed = 9724`.
///
/// Generates `b(g1,g2).new g3,g4. tau` — a polyadic input guarding a
/// *multi-binder* restriction of a bare `τ`. The `new x,y.` list form
/// and a prefix-final `tau` keyword are both printer/parser special
/// cases; this seed also covers the canon-stability of that shape (the
/// same property the owning file checks at this range).
#[test]
fn parser_roundtrip_seed_9724() {
    let p = Gen::new(parser_gen_cfg(), 9724).process();
    let printed = p.to_string();
    let reparsed =
        parse_process(&printed).unwrap_or_else(|e| panic!("reparse of {printed:?} failed: {e}"));
    assert_eq!(p, reparsed, "round trip changed {printed}");

    let cfg = GenCfg::finite_monadic(names(["a", "b"]).to_vec());
    let p = Gen::new(cfg, 9724).process();
    let c = canon(&p);
    let reparsed = parse_process(&c.to_string()).unwrap();
    assert_eq!(canon(&reparsed), c, "canonical names must survive printing");
}

/// Every seed recorded in a `tests/*.proptest-regressions` file must
/// have a promoted named twin in this file. The seed files are checked
/// in next to this suite, so `include_str!` sees exactly what proptest
/// replays; when a property shrinks a new counterexample, this guard
/// fails until the seed is promoted (add it to `PROMOTED` along with
/// its named test).
#[test]
fn every_recorded_seed_has_a_named_twin() {
    const PROMOTED: &[u64] = &[891, 1624, 45352, 9724];
    const FILES: &[(&str, &str)] = &[
        (
            "axioms_sound.proptest-regressions",
            include_str!("axioms_sound.proptest-regressions"),
        ),
        (
            "implications.proptest-regressions",
            include_str!("implications.proptest-regressions"),
        ),
        (
            "parser_roundtrip.proptest-regressions",
            include_str!("parser_roundtrip.proptest-regressions"),
        ),
    ];
    for (file, text) in FILES {
        for line in text.lines() {
            let Some((_, rest)) = line.split_once("shrinks to seed = ") else {
                continue;
            };
            let seed: u64 = rest
                .trim()
                .parse()
                .unwrap_or_else(|e| panic!("unparsable seed in {file}: {rest:?} ({e})"));
            assert!(
                PROMOTED.contains(&seed),
                "{file} records seed {seed} with no promoted named test — \
                 add one to tests/regression_seeds.rs"
            );
        }
    }
}

/// The Glomers differential corpus: fault-plan seeds whose runs pin
/// behaviours the sweeps rely on. Unlike the shrunk generator seeds
/// above, these were *selected* (not shrunk) — each one is kept because
/// it exercises a branch a uniform sweep could silently stop covering:
/// a run where losses actually strike yet the pumped relay still
/// delivers, and a one-shot run killed by a single loss.
#[test]
fn glomers_fault_corpus() {
    use bpi::encodings::glomers::broadcast;
    use bpi::semantics::FaultPlan;

    // Seed 2 at 30% loss: the log records real losses, and the pumped
    // origin rides through every one of them.
    let plan = FaultPlan::new(2).with_default_loss(0.3).expect("in range");
    let (ok, log) = broadcast::delivered_under_faults(3, true, plan, 48);
    assert!(ok, "pumped relay failed to deliver on corpus seed 2");
    assert!(
        log.losses() > 0,
        "corpus seed 2 stopped producing losses — it no longer covers \
         the retry-after-loss branch; reselect the seed"
    );

    // The same seed with a one-shot origin: the first loss on the chain
    // is fatal, which is exactly the gap fault tolerance closes.
    let plan = FaultPlan::new(2).with_default_loss(0.3).expect("in range");
    let (ok, log) = broadcast::delivered_under_faults(3, false, plan, 48);
    assert!(
        !ok && log.losses() > 0,
        "corpus seed 2 one-shot run changed shape (delivered={ok}, \
         losses={}); reselect the seed",
        log.losses()
    );
}
