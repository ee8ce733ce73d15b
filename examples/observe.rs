//! The PR 4 observability layer, end to end.
//!
//! ```sh
//! cargo run --example observe
//! # or stream every event to stderr as JSON lines:
//! BPI_TRACE=json cargo run --example observe
//! ```
//!
//! Runs the Example 1 distributed cycle detector over a lossy broadcast
//! medium with an in-memory trace sink attached, then a budgeted
//! equivalence check, and shows what the instrumentation saw: the
//! structured fault events, the span timings, and the deterministic
//! counter delta of the whole run (the part that replays bit-identically
//! across engines — see `DESIGN.md` §9).

use bpi::core::builder::*;
use bpi::core::syntax::Defs;
use bpi::encodings::cycle::{detect_under_faults, Graph};
use bpi::equiv::{Checker, Opts, Variant, Verdict};
use bpi::obs::{self, MemorySink};
use bpi::semantics::{Budget, FaultPlan};
use std::collections::BTreeMap;

fn main() {
    // Attach an in-memory sink. (`BPI_TRACE=json` would instead stream
    // JSON lines to stderr without touching the code; installing a sink
    // explicitly overrides it for this process.)
    let sink = MemorySink::new();
    obs::install_sink(sink.clone());
    let before = obs::snapshot();

    // 1. A fault-injected cycle detection: every dropped broadcast and
    //    refused delivery becomes a structured trace event, and the
    //    per-run fault totals land in deterministic counters (the fault
    //    log replays from its seed, so its totals are result-derived).
    let g = Graph::new(&[("a", "b"), ("b", "c"), ("c", "a")]);
    let plan = FaultPlan::new(42).with_default_loss(0.5).unwrap();
    let (found, log) = detect_under_faults(&g, &plan, 4_000);
    println!(
        "cycle detected under 50% loss: {found} ({} broadcasts dropped)",
        log.losses()
    );

    // 2. A budgeted equivalence check on an unbounded pump: the typed
    //    Inconclusive verdict is also an event, and the exhausted build
    //    shows up in `equiv.graph.exhausted` — not in `builds`.
    let [b] = names(["b"]);
    let pump_id = bpi::core::syntax::Ident::new("Pump");
    let pump = rec(pump_id, [b], tau(par(out_(b, []), var(pump_id, [b]))), [b]);
    let defs = Defs::new();
    let checker = Checker::with_opts(&defs, Opts::default()).with_budget(Budget::states(64));
    match checker.check(Variant::StrongLabelled, &pump, &nil()) {
        Verdict::Inconclusive(reason) => println!("budgeted check: inconclusive ({reason})"),
        other => println!("budgeted check: {other:?}"),
    }

    // 3. What the sink saw, grouped by event kind.
    let events = sink.take();
    obs::clear_sink();
    let mut by_kind: BTreeMap<String, usize> = BTreeMap::new();
    for e in &events {
        *by_kind
            .entry(format!("{}/{}", e.target, e.name))
            .or_default() += 1;
    }
    println!("\ntrace: {} events", events.len());
    for (kind, n) in &by_kind {
        println!("  {kind:<40} x{n}");
    }
    println!("\nfirst fault event as a JSON line:");
    if let Some(e) = events
        .iter()
        .find(|e| e.target == "semantics.faults" && e.name == "message_lost")
    {
        println!("  {}", e.to_json());
    }

    // 4. The deterministic counter delta of everything above. Re-running
    //    this example — or re-running it on the naive instead of the
    //    worklist engine — produces exactly these numbers; the advisory
    //    side (memo hit rates, span timings) is deliberately excluded.
    let delta = obs::snapshot().deterministic_delta(&before);
    println!("\ndeterministic counter delta:");
    for (name, value) in &delta {
        println!("  {name:<40} {value}");
    }

    // 5. Advisory span timings recorded as log2-bucketed histograms.
    let snap = obs::snapshot();
    println!("\nadvisory span histograms (count, total us):");
    for (name, h) in &snap.histograms {
        if name.ends_with(".us") && h.count > 0 {
            println!("  {name:<40} x{:<6} {}us", h.count, h.sum);
        }
    }
}
