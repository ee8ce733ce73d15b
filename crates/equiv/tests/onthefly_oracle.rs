//! The oracle of the on-the-fly route: for the three strong variants,
//! `Checker::check`, which decides them from the root pair outward over
//! states derived on demand, must answer what the naive sweep (`refine`)
//! answers over the two complete graphs (`Graph::build`), whether the
//! search settles the pair or hands it back to the graph route.
//!
//! The property draws pairs from monadic and polyadic generators with
//! restriction, match and tail recursion: independent samples, a sample
//! against a near miss of itself, and both orders of each. The witnesses
//! pin what the route buys and where it stops: a pair with an infinite
//! graph refuted at the roots, a relay settled in one pair, a refutation
//! at depth 1,000, a product that falls back, a budget that stops the
//! check, and the three obligations a partial transfer walk would miss
//! (the backward direction, an input answered by a discard, and a
//! discard nobody can mirror).
//!
//! The metrics registry is process-global, so every test serialises on
//! [`LOCK`]: one that checks while another reads a counter delta would
//! leak into it.

use bpi_core::builder::*;
use bpi_core::parser::{parse_defs, parse_process};
use bpi_core::syntax::{Defs, Ident, P};
use bpi_equiv::arbitrary::{Gen, GenCfg};
use bpi_equiv::{refine, shared_pool, Checker, Graph, Opts, Variant, Verdict};
use bpi_obs::{CounterDelta, MemorySink, Value};
use bpi_semantics::{Budget, EngineError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    bpi_obs::set_metrics_enabled(true);
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Clears the `BPI_COMPOSE` override until dropped, then restores it,
/// so the witnesses that pin the default graph route (composed
/// products) also hold in a run that forces the monolithic graphs. Its
/// holders also hold [`LOCK`], and every test here that checks does.
struct DefaultDispatch(Option<std::ffi::OsString>);

impl DefaultDispatch {
    fn new() -> DefaultDispatch {
        let saved = std::env::var_os("BPI_COMPOSE");
        std::env::remove_var("BPI_COMPOSE");
        DefaultDispatch(saved)
    }
}

impl Drop for DefaultDispatch {
    fn drop(&mut self) {
        if let Some(v) = self.0.take() {
            std::env::set_var("BPI_COMPOSE", v);
        }
    }
}

const STRONG: [Variant; 3] = [
    Variant::StrongBarbed,
    Variant::StrongStep,
    Variant::StrongLabelled,
];

/// Runs `f` and returns the deterministic-counter delta it produced.
fn det_delta(f: impl FnOnce()) -> CounterDelta {
    let before = bpi_obs::snapshot();
    f();
    bpi_obs::snapshot().deterministic_delta(&before)
}

fn get(delta: &CounterDelta, name: &str) -> u64 {
    delta.get(name).copied().unwrap_or(0)
}

/// The naive sweep over both complete graphs, or `None` when a graph
/// does not fit `max_states`.
fn naive(v: Variant, p: &P, q: &P, defs: &Defs, max_states: usize) -> Option<bool> {
    let opts = Opts {
        max_states,
        ..Opts::default()
    };
    let pool = shared_pool(p, q, opts.fresh_inputs);
    let g1 = Graph::build(p, defs, &pool, opts).ok()?;
    let g2 = Graph::build(q, defs, &pool, opts).ok()?;
    Some(refine(v, &g1, &g2).holds(0, 0))
}

/// Asserts `check` against the naive sweep on every strong variant.
/// Returns how many of the checks the search settled and how many it
/// handed back.
fn assert_agrees(p: &P, q: &P, defs: &Defs) -> (u64, u64) {
    let (mut settled, mut handed_back) = (0, 0);
    for v in STRONG {
        let Some(want) = naive(v, p, q, defs, 400) else {
            continue;
        };
        let mut got = None;
        let delta = det_delta(|| got = Some(Checker::new(defs).check(v, p, q)));
        let got = got.expect("check ran");
        assert!(!got.is_inconclusive(), "{v:?} on {p} vs {q}: {got:?}");
        assert_eq!(got.holds(), want, "{v:?} on {p} vs {q}: {got:?}");
        settled += get(&delta, "equiv.check.onthefly");
        handed_back += get(&delta, "equiv.onthefly.fallbacks");
    }
    (settled, handed_back)
}

/// `rec X(a, b). (p + α.X⟨a, b⟩)` for a prefix `α` drawn by `rng`: a
/// tail recursion, so its graph stays finite.
fn recursive(p: P, rng: &mut StdRng) -> P {
    let [a, b, x] = names(["a", "b", "x"]);
    let id = Ident::new("OtfLoop");
    let again = var(id, [a, b]);
    let step = match rng.gen_range(0..3) {
        0 => tau(again),
        1 => out(a, [b], again),
        _ => inp(b, [x], again),
    };
    rec(id, [a, b], sum(p, step), [a, b])
}

/// A near miss of `p`: one more move at the top, a τ in front, or a
/// listener beside it.
fn near_miss(p: &P, rng: &mut StdRng) -> P {
    let [a, b, x] = names(["a", "b", "x"]);
    match rng.gen_range(0..4) {
        0 => sum(p.clone(), out_(a, [b])),
        1 => tau(p.clone()),
        2 => par(p.clone(), inp(a, [x], out_(x, []))),
        _ => sum(p.clone(), tau(p.clone())),
    }
}

/// One generated pair from `seed`.
fn generated_pair(seed: u64) -> (P, P) {
    let mut rng = StdRng::seed_from_u64(seed);
    let monadic = GenCfg::finite_monadic(names(["a", "b", "c"]).to_vec());
    let cfg = if rng.gen_bool(0.5) {
        monadic
    } else {
        GenCfg {
            max_arity: 2,
            ..monadic
        }
    };
    let mut gen = Gen::new(cfg, rng.gen());
    let p = gen.process();
    let q = if rng.gen_bool(0.5) {
        gen.process()
    } else {
        near_miss(&p, &mut rng)
    };
    let (p, q) = if rng.gen_bool(0.3) {
        (recursive(p, &mut rng), recursive(q, &mut rng))
    } else {
        (p, q)
    };
    // Both sides beside the same two processes: products whose pair
    // graphs outgrow their states, as the corpus's stations do.
    let (p, q) = if rng.gen_bool(0.25) {
        let (r, s) = (gen.process(), gen.process());
        (par_of([p, r.clone(), s.clone()]), par_of([q, r, s]))
    } else {
        (p, q)
    };
    if rng.gen_bool(0.5) {
        (q, p)
    } else {
        (p, q)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    #[test]
    fn check_agrees_with_the_naive_sweep(seed in 0u64..1_000_000) {
        let _g = lock();
        let (p, q) = generated_pair(seed);
        assert_agrees(&p, &q, &Defs::new());
    }
}

/// The generated pairs exercise both outcomes of the search: over a
/// fixed run of seeds, some checks settle on the fly and some are handed
/// back, and every one agrees with the naive sweep.
#[test]
fn generated_pairs_reach_both_outcomes() {
    let _g = lock();
    let defs = Defs::new();
    let (mut settled, mut handed_back) = (0, 0);
    for seed in 0..200 {
        let (p, q) = generated_pair(seed);
        let (s, h) = assert_agrees(&p, &q, &defs);
        settled += s;
        handed_back += h;
    }
    assert!(settled > 0, "no check settled on the fly");
    assert!(handed_back > 0, "no check was handed back");
}

/// `BPump(a) = τ.(ā ‖ BPump⟨a⟩)` has an infinite graph, so the graph
/// route exhausts any state ceiling; against `0` its τ has no answer,
/// and the search refutes the roots after deriving 3 states.
#[test]
fn an_infinite_graph_is_refuted_at_the_roots() {
    let _g = lock();
    let defs = Defs::new();
    let [a] = names(["a"]);
    let x = Ident::new("OtfPump");
    let pump = rec(x, [a], tau(par(out_(a, []), var(x, [a]))), [a]);
    let c = Checker::with_opts(
        &defs,
        Opts {
            max_states: 8,
            fresh_inputs: 1,
        },
    );
    for v in STRONG {
        assert_eq!(
            c.try_fixpoint(v, &pump, &nil()).err(),
            Some(EngineError::StateBudgetExceeded { limit: 8 }),
            "{v:?}"
        );
        let mut got = None;
        let delta = det_delta(|| got = Some(c.check(v, &pump, &nil())));
        assert!(matches!(got, Some(Verdict::Fails(_))), "{v:?}: {got:?}");
        assert_eq!(get(&delta, "equiv.onthefly.pairs"), 1, "{v:?}");
        assert_eq!(get(&delta, "equiv.onthefly.states"), 3, "{v:?}");
        assert_eq!(get(&delta, "equiv.graph.builds"), 0, "{v:?}");
    }
}

const FWD: &str = "Fwd(a,b) = a(x).b<x>.Fwd<a,b>;";

/// The corpus's relay of `n` `Fwd` links fed `value`, on the names of
/// `prefix`.
fn relay(prefix: &str, n: usize, value: &str) -> P {
    let mut parts: Vec<String> = (0..n)
        .map(|i| format!("Fwd<{prefix}x{i},{prefix}x{}>", i + 1))
        .collect();
    parts.push(format!("{prefix}x0<{prefix}{value}>"));
    parse_process(&parts.join(" | ")).expect("relay parses")
}

/// `relay/3/ne/strong-barbed`: neither side has a τ move and both
/// expose the barb `x0`, so the root pair has no obligation and the
/// search holds after one pair, where the graph route composes two
/// 1,024-state products.
#[test]
fn a_relay_holds_in_one_pair() {
    let _g = lock();
    let _default = DefaultDispatch::new();
    let defs = parse_defs(FWD).expect("Fwd parses");
    let c = Checker::new(&defs);
    let v = Variant::StrongBarbed;
    let (p, q) = (relay("otr", 3, "v"), relay("otr", 3, "w"));
    let graph = det_delta(|| {
        let (_, _, rel) = c.try_fixpoint(v, &p, &q).expect("the products fit");
        assert!(rel.holds(0, 0));
    });
    assert_eq!(get(&graph, "equiv.compose.states"), 2048);
    let (p, q) = (relay("ots", 3, "v"), relay("ots", 3, "w"));
    let mut got = None;
    let delta = det_delta(|| got = Some(c.check(v, &p, &q)));
    assert_eq!(got, Some(Verdict::Holds));
    assert_eq!(get(&delta, "equiv.check.onthefly"), 1);
    assert_eq!(get(&delta, "equiv.onthefly.pairs"), 1);
    assert_eq!(get(&delta, "equiv.compose.states"), 0);
    assert_eq!(get(&delta, "equiv.graph.builds"), 0);
}

/// `ladder/1000/ne/strong-barbed`: `τ¹⁰⁰⁰.a` against `τ¹⁰⁰⁰.b` differ
/// only in the barb at the bottom, so the search walks the diagonal to
/// depth 1,000 and propagates the refutation back to the roots.
#[test]
fn a_ladder_is_refuted_at_depth_one_thousand() {
    let _g = lock();
    let defs = Defs::new();
    let c = Checker::new(&defs);
    let v = Variant::StrongBarbed;
    let rungs = "tau.".repeat(1000);
    let p = parse_process(&format!("{rungs}otla<>")).expect("parses");
    let q = parse_process(&format!("{rungs}otlb<>")).expect("parses");
    let mut got = None;
    let delta = det_delta(|| got = Some(c.check(v, &p, &q)));
    assert!(matches!(got, Some(Verdict::Fails(_))), "{got:?}");
    assert_eq!(get(&delta, "equiv.onthefly.pairs"), 1001);
    assert_eq!(get(&delta, "equiv.onthefly.states"), 2004);
    assert_eq!(get(&delta, "equiv.onthefly.fallbacks"), 0);
    let (_, _, rel) = c.try_fixpoint(v, &p, &q).expect("the ladders fit");
    assert!(!rel.holds(0, 0));
}

/// `stations/5/ne/strong-step`: five stations on shared channels make a
/// pair graph far larger than its states, so the search hands the check
/// back to the graph route, which composes the products and gives the
/// verdict `try_fixpoint` gives; the verdict event names the fallback.
#[test]
fn stations_fall_back_with_the_same_verdict() {
    let _g = lock();
    let _default = DefaultDispatch::new();
    let defs = Defs::new();
    let c = Checker::new(&defs);
    let v = Variant::StrongStep;
    let station = "(ota<> + tau.otb<>.ota())";
    let mut left = [station; 5];
    let p = parse_process(&left.join(" | ")).expect("parses");
    left[4] = "(ota<> + tau.otb<>.otc())";
    let q = parse_process(&left.join(" | ")).expect("parses");
    let (_, _, rel) = c.try_fixpoint(v, &p, &q).expect("the products fit");
    let sink = MemorySink::new();
    bpi_obs::install_sink(sink.clone());
    let mut got = None;
    let delta = det_delta(|| got = Some(c.check(v, &p, &q)));
    bpi_obs::clear_sink();
    assert_eq!(got.map(|g| g.holds()), Some(rel.holds(0, 0)));
    assert_eq!(get(&delta, "equiv.onthefly.fallbacks"), 1);
    assert_eq!(get(&delta, "equiv.check.onthefly"), 0);
    let events = sink.take();
    let verdict = events
        .iter()
        .find(|e| e.target == "equiv.check" && e.name == "verdict")
        .expect("a verdict event");
    assert_eq!(
        verdict.field("onthefly"),
        Some(&Value::from("fallback pairs"))
    );
    assert_eq!(verdict.field("graphs"), Some(&Value::from("composed")));
}

/// A raised cancellation flag or a passed deadline stops a strong check
/// the search would otherwise settle.
#[test]
fn a_stopped_budget_is_inconclusive() {
    let _g = lock();
    let defs = Defs::new();
    let p = parse_process("tau.otca<>").expect("parses");
    let q = parse_process("tau.otcb<>").expect("parses");
    let flag = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
    let cancelled = Checker::new(&defs).with_budget(Budget::unlimited().with_cancel_flag(flag));
    let past = std::time::Instant::now() - std::time::Duration::from_millis(1);
    let late = Checker::new(&defs).with_budget(Budget::unlimited().with_deadline_at(past));
    for v in STRONG {
        assert!(!Checker::new(&defs).check(v, &p, &q).holds(), "{v:?}");
        assert_eq!(
            cancelled.check(v, &p, &q),
            Verdict::Inconclusive(EngineError::Cancelled)
        );
        assert_eq!(
            late.check(v, &p, &q),
            Verdict::Inconclusive(EngineError::DeadlineExceeded)
        );
    }
}

/// `0` against `τ.0`: the walk from `0` has no obligation at all, and
/// only the backward walk, from `τ.0`, refutes the pair.
#[test]
fn nil_against_tau_needs_the_backward_walk() {
    let _g = lock();
    let defs = Defs::new();
    for (p, q) in [(nil(), tau_()), (tau_(), nil())] {
        for v in STRONG {
            assert_eq!(naive(v, &p, &q, &defs, 10), Some(false));
            assert!(!Checker::new(&defs).check(v, &p, &q).holds(), "{v:?}");
        }
    }
}

/// `a(x).0 ~ 0`: the input is answered by the discard of `0`, whose
/// residual is `0` itself.
#[test]
fn an_input_is_answered_by_a_discard() {
    let _g = lock();
    let defs = Defs::new();
    let [a, x] = names(["ota", "x"]);
    let v = Variant::StrongLabelled;
    for (p, q) in [(inp_(a, [x]), nil()), (nil(), inp_(a, [x]))] {
        assert_eq!(naive(v, &p, &q, &defs, 10), Some(true));
        assert_eq!(Checker::new(&defs).check(v, &p, &q), Verdict::Holds);
    }
}

/// `0` against `a(x).0 ‖ a(x, y).0`: each listener refuses the other's
/// arity, so the right side neither receives nor discards on `a`, and
/// no move of it can mirror the discard of `0`. No other obligation
/// tells the two apart.
#[test]
fn a_silent_blocker_cannot_mirror_a_discard() {
    let _g = lock();
    let defs = Defs::new();
    let [a, x, y] = names(["ota", "x", "y"]);
    let blocker = par(inp_(a, [x]), inp_(a, [x, y]));
    let v = Variant::StrongLabelled;
    for (p, q) in [(nil(), blocker.clone()), (blocker, nil())] {
        assert_eq!(naive(v, &p, &q, &defs, 10), Some(false));
        assert!(matches!(
            Checker::new(&defs).check(v, &p, &q),
            Verdict::Fails(_)
        ));
    }
}
