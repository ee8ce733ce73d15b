//! Differential tests for PR 4's observability contract.
//!
//! The metrics registry splits counters into **deterministic** ones —
//! pure functions of the engines' deterministic *results* (graph sizes,
//! fixpoint relations, typed budget errors) — and **advisory** ones that
//! may legitimately vary with scheduling (memo hit rates, sweep and
//! round counts). The contract locked down here: the deterministic
//! counter *deltas* of a run are pointwise bit-identical across the
//! pairwise refinement engines and, for graph builds, across plain
//! builds and the check pipeline's checkpointed ones, including runs
//! that end in budget exhaustion, and an active trace sink never
//! perturbs either the counters or the typed error semantics.
//!
//! The registry is process-global, so every test serialises on [`LOCK`].

use bpi_core::builder::*;
use bpi_core::parser::{parse_defs, parse_process};
use bpi_core::syntax::{Defs, Ident, P};
use bpi_equiv::{
    refine, refine_budgeted, refine_worklist, shared_pool, Checker, Graph, Opts, Variant,
};
use bpi_obs::{CounterDelta, MemorySink};
use bpi_semantics::{Budget, CheckpointCfg, EngineError};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

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

/// Six structurally distinct process pairs covering output, input, sum,
/// parallel, restriction and matching (the same shapes the hnf and
/// oracle suites use), and a seventh whose sides are structurally equal
/// (the last: `Checker::check` settles it without graphs).
fn variants() -> Vec<(P, P)> {
    let [a, b, c, x, y] = names(["a", "b", "c", "x", "y"]);
    vec![
        (out(a, [b], nil()), out(a, [c], nil())),
        (
            sum(inp(a, [x], out_(x, [])), tau(out_(b, []))),
            tau(out_(b, [])),
        ),
        (
            par(out_(a, [b]), inp(a, [x], out_(x, []))),
            out(a, [b], out_(b, [])),
        ),
        (new(x, out(a, [x], out_(x, []))), out_(a, [])),
        (
            mat(a, b, out_(a, []), out_(b, [])),
            mat(a, c, out_(a, []), out_(c, [])),
        ),
        (tau(tau(out_(a, []))), tau(out_(a, []))),
        (
            par(inp(a, [x], out_(x, [])), sum(out_(b, []), out_(b, []))),
            par(out_(b, []), inp(a, [y], out_(y, []))),
        ),
    ]
}

fn build_pair(p: &P, q: &P, defs: &Defs) -> (Graph, Graph) {
    let opts = Opts::default();
    let pool = shared_pool(p, q, opts.fresh_inputs);
    let g1 = Graph::build(p, defs, &pool, opts).expect("finite");
    let g2 = Graph::build(q, defs, &pool, opts).expect("finite");
    (g1, g2)
}

/// Runs `f` and returns the deterministic-counter delta it produced.
fn det_delta(f: impl FnOnce()) -> CounterDelta {
    let before = bpi_obs::snapshot();
    f();
    bpi_obs::snapshot().deterministic_delta(&before)
}

/// The tentpole differential: for each process pair and each of the six
/// bisimilarity variants, the deterministic counter delta of a
/// refinement run is pointwise identical across the naive sweep, the
/// worklist entry and the pairwise round engine with no cutover.
#[test]
fn deterministic_counters_identical_across_engines() {
    let _g = lock();
    let defs = Defs::new();
    for (p, q) in variants() {
        let (g1, g2) = build_pair(&p, &q, &defs);
        for v in ALL {
            let reference = det_delta(|| {
                refine(v, &g1, &g2);
            });
            // The delta must actually witness the run.
            assert_eq!(reference.get("equiv.refine.runs"), Some(&1));
            let worklist = det_delta(|| {
                refine_worklist(v, &g1, &g2);
            });
            assert_eq!(
                worklist, reference,
                "worklist {v:?} counter delta diverged on {p} vs {q}"
            );
            let rounds = det_delta(|| {
                refine_budgeted(v, &g1, &g2, &Budget::unlimited(), &CheckpointCfg::default())
                    .expect("an unlimited run completes");
            });
            assert_eq!(
                rounds, reference,
                "round engine {v:?} counter delta diverged on {p} vs {q}"
            );
        }
    }
}

/// Graph construction: two plain builds and the check pipeline's two
/// checkpointed builds (`Checker::run_with_checkpoint`) count the same
/// builds, states, edges, labels and channels — the CSR-freeze
/// statistics are functions of the finished graphs, not of the builder
/// that produced them.
#[test]
fn graph_build_counters_identical_across_builders() {
    let _g = lock();
    let defs = Defs::new();
    let graph_only = |d: CounterDelta| -> CounterDelta {
        d.into_iter()
            .filter(|(k, _)| k.starts_with("equiv.graph."))
            .collect()
    };
    for (p, q) in variants() {
        let opts = Opts::default();
        let pool = shared_pool(&p, &q, opts.fresh_inputs);
        let reference = graph_only(det_delta(|| {
            Graph::build(&p, &defs, &pool, opts).expect("finite");
            Graph::build(&q, &defs, &pool, opts).expect("finite");
        }));
        assert_eq!(reference.get("equiv.graph.builds"), Some(&2));
        assert!(reference.contains_key("equiv.graph.states"));
        let checkpointed = graph_only(det_delta(|| {
            Checker::with_opts(&defs, opts)
                .run_with_checkpoint(Variant::StrongLabelled, &p, &q, &CheckpointCfg::default())
                .expect("finite");
        }));
        assert_eq!(
            checkpointed, reference,
            "checkpointed build counter delta diverged on {p} vs {q}"
        );
    }
}

/// Budget exhaustion replays exactly: the same typed error and the same
/// deterministic counters up to the failure point on every rerun. A
/// failed build counts one `exhausted` and **no** completed
/// builds/states/edges.
#[test]
fn budget_exhaustion_replays_identical_counters() {
    let _g = lock();
    let defs = Defs::new();
    let [a] = names(["a"]);
    let x = Ident::new("MOPump");
    let pump = rec(x, [a], tau(par(out_(a, []), var(x, [a]))), [a]);
    let opts = Opts::default();
    let pool = shared_pool(&pump, &pump, opts.fresh_inputs);
    let budget = Budget::states(6);
    let expected_err = EngineError::StateBudgetExceeded { limit: 6 };

    let mut seq_err = None;
    let reference = det_delta(|| {
        seq_err = Graph::build_with_budget(&pump, &defs, &pool, opts, &budget).err();
    });
    assert_eq!(seq_err, Some(expected_err.clone()));
    assert_eq!(reference.get("equiv.graph.exhausted"), Some(&1));
    assert_eq!(reference.get("equiv.graph.builds"), None);
    assert_eq!(reference.get("equiv.graph.states"), None);

    for run in 1..=2 {
        let mut err = None;
        let delta = det_delta(|| {
            err = Graph::build_with_budget(&pump, &defs, &pool, opts, &budget).err();
        });
        assert_eq!(
            err,
            Some(expected_err.clone()),
            "typed error diverged on rerun {run}"
        );
        assert_eq!(
            delta, reference,
            "exhaustion counter delta diverged on rerun {run}"
        );
    }
}

/// Satellite 3: an active [`MemorySink`] must not perturb the engines —
/// the typed budget error from `build_with_budget` and the fixpoint from
/// the pairwise round engine are identical with tracing on, and the
/// sink actually observes the failure event.
#[test]
fn tracing_does_not_perturb_error_semantics() {
    let _g = lock();
    let defs = Defs::new();
    let [a] = names(["a"]);
    let x = Ident::new("MOPump2");
    let pump = rec(x, [a], tau(par(out_(a, []), var(x, [a]))), [a]);
    let opts = Opts::default();
    let pool = shared_pool(&pump, &pump, opts.fresh_inputs);
    let budget = Budget::states(5);

    let bare = Graph::build_with_budget(&pump, &defs, &pool, opts, &budget).err();
    assert_eq!(bare, Some(EngineError::StateBudgetExceeded { limit: 5 }));

    let sink = MemorySink::new();
    bpi_obs::install_sink(sink.clone());
    let traced = Graph::build_with_budget(&pump, &defs, &pool, opts, &budget).err();
    let events = sink.take();
    bpi_obs::clear_sink();
    assert_eq!(traced, bare, "trace sink perturbed the typed error");
    assert!(
        events
            .iter()
            .any(|e| e.target == "equiv.graph" && e.name == "build_failed"),
        "sink did not observe the build failure: {events:?}"
    );

    // Refinement under an active sink reaches the same fixpoint.
    let (p, q) = (tau(out_(a, [])), out_(a, []));
    let (g1, g2) = build_pair(&p, &q, &defs);
    let want = refine(Variant::WeakLabelled, &g1, &g2);
    let sink = MemorySink::new();
    bpi_obs::install_sink(sink.clone());
    let got = refine_budgeted(
        Variant::WeakLabelled,
        &g1,
        &g2,
        &Budget::unlimited(),
        &CheckpointCfg::default(),
    )
    .expect("an unlimited run completes");
    bpi_obs::clear_sink();
    assert_eq!(got.rel, want.rel, "trace sink perturbed the fixpoint");
    assert!(
        sink.events()
            .iter()
            .any(|e| e.target == "equiv.refine" && e.name == "done"),
        "sink did not observe the refinement"
    );
}

/// With metrics disabled the engines record nothing at all — the
/// zero-cost-when-disabled half of the contract.
#[test]
fn disabled_metrics_record_nothing() {
    let _g = lock();
    let defs = Defs::new();
    let (p, q) = variants().remove(0);
    bpi_obs::set_metrics_enabled(false);
    let delta = det_delta(|| {
        let (g1, g2) = build_pair(&p, &q, &defs);
        for v in ALL {
            refine_worklist(v, &g1, &g2);
        }
    });
    bpi_obs::set_metrics_enabled(true);
    assert!(delta.is_empty(), "metrics leaked while disabled: {delta:?}");
}

/// The counters of the routes that run before any dispatch.
const ROUTE_COUNTERS: [&str; 5] = [
    "equiv.check.structural",
    "equiv.check.onthefly",
    "equiv.onthefly.pairs",
    "equiv.onthefly.states",
    "equiv.onthefly.fallbacks",
];

/// `equiv.check.structural` counts the checks `Checker::check` settles
/// by structural normal forms: the last pair of [`variants`], once per
/// check, whatever `BPI_ENGINE` picks and with `BPI_COMPOSE=off`, since
/// the test runs before either is read. The on-the-fly search runs before
/// them too, so its counters read the same under every setting. The
/// environment is restored.
#[test]
fn structural_counter_is_the_same_under_every_dispatch() {
    let _g = lock();
    let defs = Defs::new();
    let saved = ["BPI_ENGINE", "BPI_COMPOSE"].map(|k| std::env::var(k).ok());
    let pairs = variants();
    let settled = pairs.len() - 1;
    let mut routes: BTreeMap<(usize, String), Vec<Option<u64>>> = BTreeMap::new();
    for engine in [None, Some("naive"), Some("worklist"), Some("partition")] {
        for compose in [None, Some("off")] {
            for (key, value) in [("BPI_ENGINE", engine), ("BPI_COMPOSE", compose)] {
                match value {
                    Some(v) => std::env::set_var(key, v),
                    None => std::env::remove_var(key),
                }
            }
            for (k, (p, q)) in pairs.iter().enumerate() {
                for v in ALL {
                    let delta = det_delta(|| {
                        Checker::new(&defs).check(v, p, q);
                    });
                    let want = (k == settled).then_some(&1);
                    assert_eq!(
                        delta.get("equiv.check.structural"),
                        want,
                        "{v:?} on {p} vs {q} under {engine:?}/{compose:?}"
                    );
                    let route = ROUTE_COUNTERS.map(|c| delta.get(c).copied()).to_vec();
                    let first = routes.entry((k, format!("{v:?}"))).or_insert(route.clone());
                    assert_eq!(
                        *first, route,
                        "{v:?} on {p} vs {q} under {engine:?}/{compose:?}"
                    );
                    if v.is_weak() || k == settled {
                        assert!(route[1..].iter().all(Option::is_none), "{v:?}: {route:?}");
                    }
                }
            }
        }
    }
    for (key, value) in ["BPI_ENGINE", "BPI_COMPOSE"].iter().zip(saved) {
        match value {
            Some(v) => std::env::set_var(key, v),
            None => std::env::remove_var(key),
        }
    }
}

/// Count and µs sum of every span histogram that `f` recorded into.
fn span_delta(f: impl FnOnce()) -> BTreeMap<&'static str, (u64, u64)> {
    let before = bpi_obs::snapshot().histograms;
    f();
    let after = bpi_obs::snapshot().histograms;
    after
        .into_iter()
        .filter(|(name, _)| name.ends_with(".us"))
        .filter_map(|(name, h)| {
            let (c0, s0) = before.get(name).map_or((0, 0), |b| (b.count, b.sum));
            (h.count > c0).then_some((name, (h.count - c0, h.sum - s0)))
        })
        .collect()
}

/// The refinement layers `Checker::check` runs under their own spans.
const LAYERS: [&str; 7] = [
    "equiv.check.structural.us",
    "equiv.check.onthefly.us",
    "equiv.partition.refine.us",
    "equiv.partition.refine_budgeted.us",
    "equiv.partition.expand.us",
    "equiv.refine.naive.us",
    "equiv.refine.rounds.us",
];

/// The corpus's costliest shape on the graph route,
/// `relay/3/ne/strong-labelled`, with metrics on. The graph route
/// (`try_fixpoint`) records exactly one refinement engine, once (the
/// partition refiner with its expansion into the pair relation under the
/// default dispatch), and no layer twice. `Checker::check` records the
/// structural test and the on-the-fly search, which refutes the roots'
/// first broadcast, and no engine. A structurally settled check records
/// only the structural span inside its own. `--nocapture` prints the
/// span splits against the wall clock.
#[test]
fn check_spans_each_refinement_layer_once() {
    let _g = lock();
    let defs = parse_defs("Fwd(a,b) = a(x).b<x>.Fwd<a,b>;").expect("Fwd parses");
    let relay = |order: [usize; 3], value: &str| {
        let mut parts: Vec<String> = order
            .iter()
            .map(|i| format!("Fwd<msx{i},msx{}>", i + 1))
            .collect();
        parts.push(format!("msx0<{value}>"));
        parse_process(&parts.join(" | ")).expect("relay parses")
    };
    let c = Checker::new(&defs);

    let (p, q) = (relay([0, 1, 2], "msv"), relay([0, 1, 2], "msw"));
    let start = Instant::now();
    let spans = span_delta(|| {
        let (_, _, rel) = c
            .try_fixpoint(Variant::StrongLabelled, &p, &q)
            .expect("the products fit");
        assert!(!rel.holds(0, 0));
    });
    let wall = start.elapsed().as_micros();
    println!("relay/3/ne/strong-labelled, try_fixpoint: {wall} us wall clock");
    for (name, (count, us)) in &spans {
        println!("  {name}: {count} x, {us} us");
    }
    let count = |name: &str| spans.get(name).map_or(0, |&(n, _)| n);
    for layer in LAYERS {
        assert!(count(layer) <= 1, "{layer} recorded twice: {spans:?}");
    }
    assert_eq!(count("equiv.check.structural.us"), 0);
    assert_eq!(count("equiv.check.onthefly.us"), 0);
    let engines = [
        "equiv.partition.refine.us",
        "equiv.refine.naive.us",
        "equiv.refine.rounds.us",
    ];
    assert_eq!(
        engines.iter().filter(|e| count(e) == 1).count(),
        1,
        "{spans:?}"
    );
    assert_eq!(
        count("equiv.partition.refine.us"),
        count("equiv.partition.expand.us")
    );
    if std::env::var("BPI_ENGINE").map_or(true, |e| e.is_empty() || e == "auto") {
        assert_eq!(count("equiv.partition.refine.us"), 1, "{spans:?}");
    }

    let (p, q) = (relay([0, 1, 2], "msx"), relay([0, 1, 2], "msy"));
    let start = Instant::now();
    let spans = span_delta(|| {
        assert!(!c.check(Variant::StrongLabelled, &p, &q).holds());
    });
    let wall = start.elapsed().as_micros();
    println!("relay/3/ne/strong-labelled, check: {wall} us wall clock");
    for (name, (count, us)) in &spans {
        println!("  {name}: {count} x, {us} us");
    }
    let names: Vec<&str> = spans.keys().copied().collect();
    assert_eq!(
        names,
        [
            "equiv.check.check.us",
            "equiv.check.onthefly.us",
            "equiv.check.structural.us"
        ]
    );

    let (p, q) = (relay([0, 1, 2], "msu"), relay([2, 1, 0], "msu"));
    let spans = span_delta(|| {
        assert!(c.check(Variant::StrongLabelled, &p, &q).holds());
    });
    let names: Vec<&str> = spans.keys().copied().collect();
    assert_eq!(names, ["equiv.check.check.us", "equiv.check.structural.us"]);
}

/// `all_variants` runs the structural test, and so `snf` on each side,
/// once for its six checks, each of which records its own check span.
#[test]
fn all_variants_runs_one_structural_test() {
    let _g = lock();
    let defs = Defs::new();
    for (p, q) in variants() {
        let spans = span_delta(|| {
            bpi_equiv::all_variants(&p, &q, &defs);
        });
        let count = |name: &str| spans.get(name).map_or(0, |&(n, _)| n);
        assert_eq!(
            count("equiv.check.structural.us"),
            1,
            "{p} vs {q}: {spans:?}"
        );
        assert_eq!(count("equiv.check.check.us"), 6, "{p} vs {q}: {spans:?}");
    }
}
