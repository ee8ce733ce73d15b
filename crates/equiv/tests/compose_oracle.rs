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
//! * the deterministic compose counters depend only on the term's structure;
//! * the benchmark corpus's own shapes, recursion included: the graph
//!   route under the default dispatch composes every `relay` and
//!   `stations` pair and matches the pairwise reference, and the `mixed`
//!   pairs decline on their roots' arities before any component graph is
//!   built; `Checker::check` agrees on every one.
//!
//! The metrics registry is process-global and every test here records
//! deterministic counters, so every test serialises on [`LOCK`] — an
//! unserialised test would leak its counters into another's delta.

use bpi_core::builder::*;
use bpi_core::name::Name;
use bpi_core::parser::{parse_defs, parse_process};
use bpi_core::syntax::{Defs, P};
use bpi_equiv::arbitrary::{shuffle, Gen, GenCfg};
use bpi_equiv::{
    refine, refine_auto, refine_worklist, shared_pool, try_compose_pair, Checker, Graph, Opts,
    Variant,
};
use bpi_obs::{CounterDelta, MemorySink, TraceEvent, Value};
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
    let Ok((c1, c2)) = composed else {
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

/// The benchmark corpus's recursive definition and station shape.
const FWD: &str = "Fwd(a,b) = a(x).b<x>.Fwd<a,b>;";
const STATION: &str = "(a<> + tau.b<>.a())";

fn relay(n: usize, value: &str, reversed: bool) -> String {
    let mut parts: Vec<String> = (0..n).map(|i| format!("Fwd<x{i},x{}>", i + 1)).collect();
    if reversed {
        parts.reverse();
    }
    parts.push(format!("x0<{value}>"));
    parts.join(" | ")
}

fn stations(n: usize, last: &str) -> String {
    let mut parts = vec![STATION.to_string(); n - 1];
    parts.push(last.to_string());
    parts.join(" | ")
}

/// The corpus pair `family/n/pert`, parsed.
fn corpus_pair(family: &str, n: usize, pert: &str) -> (P, P) {
    let (left, right) = match (family, pert) {
        ("relay", "eq") => (relay(n, "v", false), relay(n, "v", true)),
        ("relay", "ne") => (relay(n, "v", false), relay(n, "w", false)),
        ("stations", "eq") => (stations(n, STATION), stations(n, &format!("tau.{STATION}"))),
        ("stations", "ne") => (stations(n, STATION), stations(n, "(a<> + tau.b<>.c())")),
        _ => panic!("no corpus pair {family}/{pert}"),
    };
    let parse = |src: &str| parse_process(src).unwrap_or_else(|e| panic!("{src}: {e}"));
    (parse(&left), parse(&right))
}

/// The pairwise reference on unmemoized monolithic graphs: `refine` up
/// to 1,024 pairs, `refine_worklist` above.
fn reference(v: Variant, g1: &Graph, g2: &Graph) -> bool {
    if g1.len() * g2.len() <= 1024 {
        refine(v, g1, g2).holds(0, 0)
    } else {
        refine_worklist(v, g1, g2).holds(0, 0)
    }
}

/// Clears the `BPI_COMPOSE` override until dropped, then restores it,
/// so the tests of the default dispatch also hold in a run that forces
/// the monolithic oracle. Only [`Checker`] reads the variable, and only
/// the tests holding this guard call it; they also hold [`LOCK`].
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

/// Runs `f` with a memory sink installed and returns the `equiv.check`
/// `verdict` events it emitted.
fn verdict_events(f: impl FnOnce()) -> Vec<TraceEvent> {
    let sink = MemorySink::new();
    bpi_obs::install_sink(sink.clone());
    f();
    bpi_obs::clear_sink();
    sink.take()
        .into_iter()
        .filter(|e| e.target == "equiv.check" && e.name == "verdict")
        .collect()
}

fn field<'e>(ev: &'e TraceEvent, key: &str) -> &'e Value {
    ev.field(key)
        .unwrap_or_else(|| panic!("verdict event has no {key}: {ev:?}"))
}

/// The corpus's `relay` pairs (n = 1–3, recursive `Fwd`) and `stations`
/// pairs (n = 2–5), `eq` and `ne`, across all six variants (the strong
/// three at relay n = 3, as in the corpus): 78 checks. The graph route
/// (`try_fixpoint`) composes every one of them and agrees with the
/// pairwise reference on the monolithic graphs. `Checker::check` agrees
/// too: it settles exactly the 15 `relay/*/eq` checks structurally (the
/// components in reverse order), searches the other 33 strong checks from
/// the root pair, where 19 settle and 14 fall back to the composed
/// products with `onthefly: fallback pairs`, and composes the 30 weak
/// ones.
#[test]
fn checker_composes_corpus_shapes_and_matches_the_reference() {
    let _g = lock();
    let _default = DefaultDispatch::new();
    let defs = parse_defs(FWD).expect("definitions parse");
    let strong = [
        Variant::StrongBarbed,
        Variant::StrongStep,
        Variant::StrongLabelled,
    ];
    let mut cases: Vec<(&str, usize, &str, &[Variant])> = Vec::new();
    for n in 1..=3 {
        let vs: &[Variant] = if n == 3 { &strong } else { &ALL };
        for pert in ["eq", "ne"] {
            cases.push(("relay", n, pert, vs));
        }
    }
    for n in 2..=5 {
        for pert in ["eq", "ne"] {
            cases.push(("stations", n, pert, &ALL));
        }
    }
    let checker = Checker::new(&defs);
    let opts = Opts::default();
    let (mut checks, mut accepted, mut structural, mut on_the_fly) = (0u64, 0u64, 0u64, 0u64);
    for (family, n, pert, vs) in cases {
        let (p, q) = corpus_pair(family, n, pert);
        let pool = shared_pool(&p, &q, opts.fresh_inputs);
        let g1 = Graph::build(&p, &defs, &pool, opts).expect("finite corpus term");
        let g2 = Graph::build(&q, &defs, &pool, opts).expect("finite corpus term");
        let settles = family == "relay" && pert == "eq";
        for &v in vs {
            let want = reference(v, &g1, &g2);
            let gate = det_delta(|| {
                let (_, _, rel) = checker
                    .try_fixpoint(v, &p, &q)
                    .expect("the composed products fit the cap");
                assert_eq!(
                    rel.holds(0, 0),
                    want,
                    "{family}/{n}/{pert} {v:?}: the graph route diverged from the reference"
                );
            });
            accepted += gate.get("equiv.compose.accepted").copied().unwrap_or(0);

            let mut got = None;
            let mut events = Vec::new();
            let settled = det_delta(|| {
                events = verdict_events(|| got = Some(checker.check(v, &p, &q)));
            });
            let got = got.expect("check ran");
            assert!(!got.is_inconclusive(), "{family}/{n}/{pert} {v:?}: {got:?}");
            assert_eq!(
                got.holds(),
                want,
                "{family}/{n}/{pert} {v:?}: check diverged from the reference"
            );
            let [ev] = &events[..] else {
                panic!("expected one verdict event, got {events:?}");
            };
            let searched = settled.get("equiv.check.onthefly").copied();
            let fell_back = settled.get("equiv.onthefly.fallbacks").copied();
            let (graphs, reason) = if settles {
                ("none", "structural")
            } else if searched.is_some() {
                ("none", "on-the-fly")
            } else {
                ("composed", "accepted")
            };
            assert_eq!(
                field(ev, "graphs"),
                &Value::from(graphs),
                "{family}/{n}/{pert}"
            );
            assert_eq!(
                field(ev, "reason"),
                &Value::from(reason),
                "{family}/{n}/{pert}"
            );
            if settles {
                let skipped = Value::from("skipped: structural");
                assert_eq!(field(ev, "prequotient"), &skipped, "{family}/{n}/{pert}");
            }
            // Every strong check the structural test leaves is searched
            // from the root pair first, and either settles there or falls
            // back to the composed products.
            if settles || v.is_weak() {
                assert_eq!(
                    (searched, fell_back),
                    (None, None),
                    "{family}/{n}/{pert} {v:?}"
                );
                assert!(ev.field("onthefly").is_none(), "{ev:?}");
            } else if fell_back.is_some() {
                assert_eq!((searched, fell_back), (None, Some(1)));
                assert_eq!(field(ev, "onthefly"), &Value::from("fallback pairs"));
            } else {
                assert_eq!(searched, Some(1), "{family}/{n}/{pert} {v:?}");
                let skipped = Value::from("skipped: on-the-fly");
                assert_eq!(field(ev, "prequotient"), &skipped, "{family}/{n}/{pert}");
                assert_eq!(settled.get("equiv.compose.builds"), None);
                assert_eq!(settled.get("equiv.graph.builds"), None);
            }
            on_the_fly += searched.unwrap_or(0);
            let by_structure = settled.get("equiv.check.structural").copied();
            assert_eq!(
                by_structure,
                settles.then_some(1),
                "{family}/{n}/{pert} {v:?}"
            );
            structural += by_structure.unwrap_or(0);
            checks += 1;
        }
    }
    assert_eq!(checks, 78);
    assert_eq!(
        accepted, checks,
        "every corpus compose shape must pass the gate"
    );
    assert_eq!(
        structural, 15,
        "exactly the relay eq checks settle structurally"
    );
    assert_eq!(on_the_fly, 19, "checks settled on the fly");
}

/// The corpus's `mixed` n = 10 pair, the decline case: its roots listen
/// on one channel at arities 1 and 2, so the gate declines with `arity`
/// before building any component graph — the only graphs the graph route
/// builds are the two monolithic ones — and the verdict still matches
/// the reference. `Checker::check` declines the same way on the weak
/// variants and settles the strong ones on the fly, before the gate.
#[test]
fn mixed_arity_roots_decline_before_any_component_build() {
    let _g = lock();
    let _default = DefaultDispatch::new();
    // Names of their own, so that no earlier test's memo entry hides a
    // build.
    let ladder = format!("{}ma<mv,mw>", "tau.".repeat(10));
    let p = parse_process(&format!("{ladder} | ma(x).mb<x> | ma(x,y).mc<y>")).expect("parses");
    let q = parse_process(&format!("{ladder} | ma(x).mb<x> | ma(x,y).mc<x>")).expect("parses");
    let defs = Defs::new();
    let opts = Opts::default();
    let pool = shared_pool(&p, &q, opts.fresh_inputs);
    let g1 = Graph::build(&p, &defs, &pool, opts).expect("finite");
    let g2 = Graph::build(&q, &defs, &pool, opts).expect("finite");
    let components = bpi_obs::histogram("equiv.compose.components.us");
    let spans_before = components.count();
    for v in ALL {
        let want = reference(v, &g1, &g2);
        let graph = det_delta(|| {
            let (_, _, rel) = Checker::new(&defs)
                .try_fixpoint(v, &p, &q)
                .expect("the pair fits");
            assert_eq!(rel.holds(0, 0), want, "{v:?} diverged");
        });
        assert_eq!(graph.get("equiv.compose.declined.arity"), Some(&1));
        assert_eq!(graph.get("equiv.compose.accepted"), None);
        let want_builds = if v == ALL[0] { Some(&2) } else { None };
        assert_eq!(
            graph.get("equiv.graph.builds"),
            want_builds,
            "{v:?}: only the two monolithic graphs may be built, once: {graph:?}"
        );

        // `check` settles the strong variants from the root pair, before
        // the gate; the weak ones take the graph route above.
        let mut got = None;
        let mut events = Vec::new();
        let checked = det_delta(|| {
            events = verdict_events(|| got = Some(Checker::new(&defs).check(v, &p, &q)));
        });
        assert_eq!(got.expect("check ran").holds(), want, "{v:?} diverged");
        assert_eq!(checked.get("equiv.graph.builds"), None, "{checked:?}");
        let [ev] = &events[..] else {
            panic!("expected one verdict event, got {events:?}");
        };
        if v.is_weak() {
            assert_eq!(checked.get("equiv.compose.declined.arity"), Some(&1));
            assert_eq!(field(ev, "graphs"), &Value::from("monolithic"));
            assert_eq!(field(ev, "reason"), &Value::from("arity"));
        } else {
            assert_eq!(checked.get("equiv.check.onthefly"), Some(&1), "{v:?}");
            assert_eq!(checked.get("equiv.compose.declined.arity"), None);
            assert_eq!(field(ev, "graphs"), &Value::from("none"));
            assert_eq!(field(ev, "reason"), &Value::from("on-the-fly"));
        }
    }
    assert_eq!(
        components.count(),
        spans_before,
        "a declined pair must not open the component-build span"
    );
}
