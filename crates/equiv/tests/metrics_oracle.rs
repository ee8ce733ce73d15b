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
use bpi_core::syntax::{Defs, Ident, P};
use bpi_equiv::{
    refine, refine_budgeted, refine_worklist, shared_pool, Checker, Graph, Opts, Variant,
};
use bpi_obs::{CounterDelta, MemorySink};
use bpi_semantics::{Budget, CheckpointCfg, EngineError};
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

/// Six structurally distinct process pairs covering output, input, sum,
/// parallel, restriction and matching (the same shapes the hnf and
/// oracle suites use).
fn variants() -> Vec<(P, P)> {
    let [a, b, c, x] = names(["a", "b", "c", "x"]);
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
