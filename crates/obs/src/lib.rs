//! # bpi-obs — observability for the bπ engines
//!
//! A small, dependency-free instrumentation layer threaded through
//! `bpi-semantics`, `bpi-equiv` and `bpi-axioms`:
//!
//! * [`metrics`] — a global registry of named counters, gauges and
//!   log₂-bucketed histograms backed by atomics. Counters carry a
//!   [`Det`] marker splitting them into **deterministic** counters
//!   (result-derived quantities that must be bit-identical across the
//!   naive/worklist/partition engines, checkpoint/resume and chaos —
//!   states, edges, surviving pairs, typed budget failures) and
//!   **advisory** stats (schedule-derived quantities: memo hit rates,
//!   sweep/pop/round counts, timings). The split is a
//!   *tested contract*: `crates/equiv/tests/metrics_oracle.rs` diffs
//!   deterministic snapshots across engines and builders.
//! * [`trace`] — a [`trace::TraceSink`] trait with JSON-lines and
//!   in-memory collectors, a process-global sink slot behind an atomic
//!   fast flag, and span-scoped timers feeding advisory histograms.
//! * [`json`] — the workspace's one JSON codec (value, depth-capped
//!   linear-time parser, writer): trace events, the daemon's protocol
//!   and journal, and the bench reports all go through it.
//!
//! The resilience layer (PR 5) reports exclusively through **advisory**
//! channels: `semantics.checkpoint` (snapshot/resume counters),
//! `semantics.chaos` (delay injections), plus the `equiv.check`
//! `resumed` trace event. Deterministic counters record once, at phase
//! completion, so an interrupted-and-resumed or chaos-disturbed run
//! leaves the same deterministic trail as a quiet one —
//! `checkpoint_resume.rs` pins that contract.
//!
//! Everything is **zero-cost when disabled**: with no sink installed and
//! metrics off, every instrumentation site reduces to one relaxed
//! atomic load and a branch. `BPI_TRACE=json` installs a JSON-lines
//! sink on stderr at first use, so any binary in the workspace can be
//! traced without code changes.

pub mod json;
pub mod metrics;
pub mod trace;

pub use json::Json;
pub use metrics::{
    counter, deterministic_counters, gauge, histogram, metrics_enabled, reset_for_tests,
    set_metrics_enabled, snapshot, Counter, CounterDelta, Det, Gauge, Histogram, HistogramSnapshot,
    MetricsSnapshot,
};
pub use trace::{
    clear_sink, emit, install_sink, span, tracing_enabled, warn_once, JsonLinesSink, MemorySink,
    Span, TraceEvent, TraceSink, Value,
};
