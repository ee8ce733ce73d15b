//! Pinned-size performance report — emits the machine-readable
//! `BENCH_6.json`, the `BENCH_7.json` partition-ladder series, the
//! `BENCH_8.json` compositional ladders and the `BENCH_9.json` Glomers
//! workload ladder tracked at the repo root, and regression-gates the
//! `BENCH_5.json` / `BENCH_6.json` baselines.
//!
//! Criterion gives the full statistical story (`cargo bench`); this bin
//! runs a small fixed set of measurements with `std::time::Instant`
//! medians so the perf trajectory can be diffed as JSON across PRs.
//! Sections:
//!
//! * **entries** — the PR 2 before/after pairs, re-measured on today's
//!   engines (naive `refine` oracle vs the adaptive worklist, fresh tree
//!   walks vs consed caches, cold vs warm exploration), PR 4's B11
//!   observability-overhead pair (metrics registry off vs on around the
//!   τ-ladder worklist refinement), and PR 5's B12 resilience pair
//!   (cold pipeline restart vs resume from a checkpoint taken at 50% of
//!   the pipeline's units);
//! * **reliability** — PR 6's B13 curves: the Monte-Carlo convergence
//!   probability of the cycle-detection ring (signal on `o`) and the
//!   leader election (a follower appears, the loss-sensitive barb) at
//!   two system sizes across a loss sweep, with Wilson 95% intervals.
//!   Fully deterministic in the pinned plan seeds, so the curves diff
//!   across PRs like every other recorded number;
//! * **metrics** (with `--metrics`) — the deterministic counter set of a
//!   pinned build+refine workload, measured from a reset registry. These
//!   values are bit-identical across engines (the
//!   `metrics_oracle` suite pins that), so they can be diffed across
//!   PRs like any other recorded number;
//! * **BENCH_9.json** — PR 9's B16 Glomers ladder: every Maelstrom
//!   challenge verdict (equivalence / HML / exhaustive-reachability)
//!   with its wall-clock cost at the pinned sizes, plus the
//!   fault-tolerance reliability points (one-shot vs retrying relay
//!   chain and G-counter under a pinned loss sweep), bit-reproducible
//!   from the pinned plan seeds.
//!
//! Usage:
//!   cargo run --release -p bpi-bench --bin bench_report [OUT.json]
//!   cargo run --release -p bpi-bench --bin bench_report -- --metrics
//!   cargo run --release -p bpi-bench --bin bench_report -- --check
//!
//! `--check` (the CI bench-smoke gate) writes nothing: it re-measures
//! the recorded entries at the pinned sizes and **fails** if any entry's
//! speedup regresses below 0.9× the value recorded in `BENCH_5.json` or
//! `BENCH_6.json` (up to three attempts per entry to ride out scheduler
//! noise), then re-measures the 1000-state partition-ladder rung and
//! fails unless the partition refiner beats the pairwise worklist by
//! the absolute 5× acceptance floor *and* reaches half the speedup
//! recorded in `BENCH_7.json`, re-measures the identical-stations
//! compositional rungs and fails unless minimize-then-compose beats the
//! monolithic build by the absolute 10× ISSUE 8 floor at the largest
//! monolithically-feasible size while a beyond-the-cap size still
//! completes compositionally *and* reaches half the n=8 speedup
//! recorded in `BENCH_8.json`, and finally replays the Glomers ladder
//! and fails if any verdict recorded in `BENCH_9.json` is no longer
//! measured or no longer holds (verdicts are engine-deterministic, so
//! this leg gets no retries and no tolerance).
//! Cold-start entries — whose recorded baseline is a single first-run
//! sample, dominated by allocator and page-cache state — gate at 0.5×
//! instead: that still trips if the memo layer stops serving warm runs
//! (the ratio collapses to ~1×) without tripping on host drift.

use bpi_bench::{
    deep_term, identical_stations_tagged, independent_components_tagged, scaled_pair,
    shared_components_tagged, tau_chain,
};
use bpi_core::syntax::Defs;
use bpi_equiv::{
    build_composed, refine, refine_partition, refine_worklist, shared_pool, Checker, Checkpoint,
    Graph, Opts, Variant,
};
use bpi_semantics::{explore, Budget, CheckpointCfg, ExploreOpts, FaultPlan};
use bpi_server::{json, Json};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

struct Entry {
    id: &'static str,
    baseline_us: f64,
    optimized_us: f64,
    note: &'static str,
}

impl Entry {
    fn speedup(&self) -> f64 {
        if self.optimized_us > 0.0 {
            self.baseline_us / self.optimized_us
        } else {
            f64::INFINITY
        }
    }
}

/// One JSON object per item, built by `row`.
fn rows<T>(items: &[T], row: impl Fn(&T) -> Vec<(&'static str, Json)>) -> Json {
    Json::Arr(items.iter().map(|x| Json::obj(row(x))).collect())
}

/// `x` rounded to `places` decimals, as a JSON number.
fn fixed(x: f64, places: i32) -> Json {
    let scale = 10f64.powi(places);
    Json::num((x * scale).round() / scale)
}

/// A BENCH document: one top-level field per line, and one item per
/// line in arrays of objects, so recorded files diff line by line.
fn render(fields: &[(&str, Json)]) -> String {
    let mut out = String::from("{\n");
    for (i, (k, v)) in fields.iter().enumerate() {
        out.push_str(&format!("  {}: ", Json::str(*k)));
        match v.as_arr() {
            Some(xs) if matches!(xs.first(), Some(Json::Obj(_))) => {
                let lines: Vec<String> = xs.iter().map(|x| format!("    {x}")).collect();
                out.push_str(&format!("[\n{}\n  ]", lines.join(",\n")));
            }
            _ => out.push_str(&v.to_string()),
        }
        out.push_str(if i + 1 == fields.len() { "\n" } else { ",\n" });
    }
    out.push_str("}\n");
    out
}

fn median_us(repeats: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..repeats.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn refine_pair(
    id: &'static str,
    p: &bpi_core::syntax::P,
    q: &bpi_core::syntax::P,
    v: Variant,
    repeats: usize,
    note: &'static str,
) -> Entry {
    let defs = Defs::new();
    let opts = Opts::default();
    let pool = shared_pool(p, q, opts.fresh_inputs);
    let g1 = Graph::build(p, &defs, &pool, opts).expect("pinned instance fits");
    let g2 = Graph::build(q, &defs, &pool, opts).expect("pinned instance fits");
    let baseline_us = median_us(repeats, || {
        assert!(refine(v, &g1, &g2).holds(0, 0));
    });
    let optimized_us = median_us(repeats, || {
        assert!(refine_worklist(v, &g1, &g2).holds(0, 0));
    });
    Entry {
        id,
        baseline_us,
        optimized_us,
        note,
    }
}

struct Sizes {
    ladder_n: usize,
    scaled_n: usize,
    explore_n: usize,
    depth: usize,
    reps: usize,
}

/// The PR 2 entry set, re-measured on the current engines. `tag`
/// uniquifies the cold-exploration term so repeated calls (the --check
/// retry loop) each see a genuinely cold first run.
fn measure_entries(s: &Sizes, tag: &str) -> Vec<Entry> {
    let mut entries: Vec<Entry> = Vec::new();

    // B9 — refinement engines on prebuilt graphs. The τ-ladder is the
    // largest pinned instance: kills propagate one step per naive
    // sweep, so the global fixpoint pays O(n) sweeps over the full
    // (n+1)^2 pair table where the worklist touches each pair O(deg)
    // times.
    let ladder = tau_chain(s.ladder_n);
    entries.push(refine_pair(
        "bisim/refine/tau-ladder/strong-labelled",
        &ladder,
        &ladder,
        Variant::StrongLabelled,
        s.reps,
        "naive refine oracle vs predecessor-indexed worklist, 49-state ladder",
    ));
    let (p, q) = scaled_pair(s.scaled_n);
    entries.push(refine_pair(
        "bisim/refine/scaled-sums/strong-labelled",
        &p,
        &q,
        Variant::StrongLabelled,
        s.reps,
        "tiny graph: the adaptive cutover keeps small products on the naive sweep",
    ));
    entries.push(refine_pair(
        "bisim/refine/scaled-sums/weak-labelled",
        &p,
        &q,
        Variant::WeakLabelled,
        s.reps,
        "weak dependency sets are inverse reachability",
    ));

    // B8 — exploration: the cold first run derives every transition and
    // conses every state; warm re-runs are served by the
    // (consed term, defs generation) successor memos.
    let defs = Defs::new();
    let sys = independent_components_tagged(s.explore_n, tag);
    let opts = ExploreOpts::default();
    let t = Instant::now();
    let cold_len = explore(&sys, &defs, opts).len();
    let cold_us = t.elapsed().as_secs_f64() * 1e6;
    let warm_us = median_us(s.reps, || {
        assert_eq!(explore(&sys, &defs, opts).len(), cold_len);
    });
    entries.push(Entry {
        id: "explore/independent-3^N/cold-vs-warm",
        baseline_us: cold_us,
        optimized_us: warm_us,
        note: "first run (derive + cons everything) vs memoized re-run, 3^8 states",
    });

    // B8 — term-level: canon / free_names fresh tree walks vs the
    // consed node's caches. A live handle pins the class — exactly what
    // the explorer's visited table and the graph memo do — otherwise
    // the weak cell dies between calls and every lookup is a miss.
    let term = deep_term(s.depth);
    let _pin = bpi_core::cons(&term);
    let _ = bpi_core::cached_canon(&term); // warm the consed node once
    entries.push(Entry {
        id: "normalize/canon/fresh-vs-cached",
        baseline_us: median_us(s.reps, || {
            std::hint::black_box(bpi_core::canon(&term));
        }),
        optimized_us: median_us(s.reps, || {
            std::hint::black_box(bpi_core::cached_canon(&term));
        }),
        note: "alpha-canonical form, depth-12 alternating term",
    });
    entries.push(Entry {
        id: "normalize/free-names/fresh-vs-cached",
        baseline_us: median_us(s.reps, || {
            std::hint::black_box(term.free_names());
        }),
        optimized_us: median_us(s.reps, || {
            std::hint::black_box(bpi_core::cached_free_names(&term));
        }),
        note: "free-name set, depth-12 alternating term",
    });

    // B11 — observability overhead. Same prebuilt τ-ladder refinement
    // with the metrics registry fully disabled (every counter is a
    // relaxed load + branch) vs enabled (the default, no trace sink).
    // baseline = registry off, optimized = registry on, so the speedup
    // is 1/(1+overhead): the ≤5% overhead budget of EXPERIMENTS.md B11
    // reads as speedup ≥ ~0.95, and the 0.9× check gate catches any
    // future instrumentation creeping into hot loops.
    let l_opts = Opts::default();
    let l_pool = shared_pool(&ladder, &ladder, l_opts.fresh_inputs);
    let lg1 = Graph::build(&ladder, &defs, &l_pool, l_opts).expect("ladder fits");
    let lg2 = Graph::build(&ladder, &defs, &l_pool, l_opts).expect("ladder fits");
    let was_on = bpi_obs::metrics_enabled();
    bpi_obs::set_metrics_enabled(false);
    let off_us = median_us(s.reps, || {
        assert!(refine_worklist(Variant::StrongLabelled, &lg1, &lg2).holds(0, 0));
    });
    bpi_obs::set_metrics_enabled(true);
    let on_us = median_us(s.reps, || {
        assert!(refine_worklist(Variant::StrongLabelled, &lg1, &lg2).holds(0, 0));
    });
    bpi_obs::set_metrics_enabled(was_on);
    entries.push(Entry {
        id: "obs/metrics/tau-ladder/off-vs-on",
        baseline_us: off_us,
        optimized_us: on_us,
        note: "worklist refinement with the metrics registry disabled vs enabled (no sink)",
    });

    // B12 — resume vs cold restart. Probe the checkpointed pipeline
    // once to learn its total unit count (explored states of both
    // builds plus refinement rounds), interrupt a fuelled run at half
    // that, then compare re-running the whole pipeline from scratch
    // against resuming from the checkpoint carried inside the typed
    // error. The checkpointed path bypasses the graph memo, so both
    // sides redo real construction work; the probe warms the semantic
    // successor caches for both sides equally.
    let checker = Checker::new(&defs);
    let tank = Arc::new(AtomicUsize::new(1 << 30));
    let probe: CheckpointCfg<Checkpoint> = CheckpointCfg::default().with_fuel(tank.clone());
    checker
        .run_with_checkpoint(Variant::StrongLabelled, &ladder, &ladder, &probe)
        .unwrap_or_else(|i| panic!("ladder pipeline fits: {}", i.error));
    let total_units = (1usize << 30) - tank.load(Ordering::SeqCst);
    let half = CheckpointCfg::fuelled((total_units / 2).max(1));
    let ck = match checker.run_with_checkpoint(Variant::StrongLabelled, &ladder, &ladder, &half) {
        Err(i) => i.checkpoint,
        Ok(_) => panic!("half fuel should interrupt mid-pipeline"),
    };
    let cold_us = median_us(s.reps, || {
        assert!(checker
            .run_with_checkpoint(Variant::StrongLabelled, &ladder, &ladder, &inert_pipeline())
            .unwrap_or_else(|i| panic!("inert run cannot interrupt: {}", i.error))
            .2
            .holds(0, 0));
    });
    let resume_us = median_us(s.reps, || {
        assert!(checker
            .resume_from(Variant::StrongLabelled, ck.clone(), &inert_pipeline())
            .unwrap_or_else(|i| panic!("inert resume cannot interrupt: {}", i.error))
            .2
            .holds(0, 0));
    });
    entries.push(Entry {
        id: "checkpoint/checker/tau-ladder/cold-restart-vs-resume",
        baseline_us: cold_us,
        optimized_us: resume_us,
        note: "full pipeline re-run vs resume from a checkpoint taken at 50% of its units",
    });
    entries
}

fn inert_pipeline() -> CheckpointCfg<Checkpoint> {
    CheckpointCfg::default()
}

/// One rung of the BENCH_7 state-size ladder.
struct LadderPoint {
    states: usize,
    partition_us: f64,
    /// `None` above the worklist measurement cap, where the O(pairs)
    /// engine is too slow to time repeatedly.
    worklist_us: Option<f64>,
}

impl LadderPoint {
    fn speedup(&self) -> Option<f64> {
        self.worklist_us
            .filter(|_| self.partition_us > 0.0)
            .map(|w| w / self.partition_us)
    }
}

/// BENCH_7 — the partition-refiner asymptotics. τ-ladders from 49 to
/// ~10k states, each refined as a self-pair under `StrongLabelled`: the
/// block/splitter engine against the pairwise predecessor-indexed
/// worklist. The worklist is only timed up to `worklist_cap` states —
/// beyond that its O(n²) pair table is exactly the cost the partition
/// engine exists to avoid.
fn measure_partition_ladder(chain_lens: &[usize], worklist_cap: usize) -> Vec<LadderPoint> {
    let defs = Defs::new();
    let opts = Opts::default();
    let mut out = Vec::new();
    for &n in chain_lens {
        let ladder = tau_chain(n);
        let pool = shared_pool(&ladder, &ladder, opts.fresh_inputs);
        let g = Graph::build(&ladder, &defs, &pool, opts).expect("ladder fits");
        let states = g.len();
        let reps = if states <= 1000 { 5 } else { 3 };
        let partition_us = median_us(reps, || {
            std::hint::black_box(refine_partition(Variant::StrongLabelled, &g, &g));
        });
        let worklist_us = (states <= worklist_cap).then(|| {
            median_us(3, || {
                assert!(refine_worklist(Variant::StrongLabelled, &g, &g).holds(0, 0));
            })
        });
        out.push(LadderPoint {
            states,
            partition_us,
            worklist_us,
        });
    }
    out
}

/// The ISSUE 7 acceptance gate, absolute rather than relative to a
/// recorded number (worklist timings swing ~2× with host noise, but the
/// asymptotic gap at 1000 states is ~50-80×, so an absolute 5× floor is
/// both meaningful and stable): the partition refiner must beat the
/// pairwise worklist by ≥5× on the 1000-state ladder rung.
fn run_partition_gate() -> bool {
    for attempt in 1..=3 {
        let pts = measure_partition_ladder(&[999], usize::MAX);
        let sp = pts[0].speedup().unwrap_or(f64::NAN);
        let pass = sp >= 5.0;
        eprintln!(
            "--check[{attempt}] {:<48} {:>6.1}x (gate 5x absolute) {}",
            "bisim/refine-partition/ladder-1000/strong-labelled",
            sp,
            if pass { "ok" } else { "RETRY" }
        );
        if pass {
            return true;
        }
    }
    eprintln!("--check: REGRESSION partition ladder: below 5x of the worklist after 3 attempts");
    false
}

/// One rung of a BENCH_8 compositional ladder.
struct ComposePoint {
    n: usize,
    mono_states: Option<usize>,
    /// `None` where the monolithic build exceeds the default state cap
    /// — the rungs that were previously infeasible and now complete
    /// only through minimize-then-compose.
    mono_us: Option<f64>,
    comp_states: usize,
    comp_us: f64,
}

impl ComposePoint {
    fn speedup(&self) -> Option<f64> {
        self.mono_us
            .filter(|_| self.comp_us > 0.0)
            .map(|m| m / self.comp_us)
    }
}

/// BENCH_8 — minimize-then-compose vs the monolithic build, on systems
/// of *identical* components sharing their channels (the shape where
/// the symmetry reduction collapses ordered tuples into multisets).
/// Each sample uses a fresh tag so neither the graph memo nor the
/// compose memo can serve warm results; the monolithic side is probed
/// once per rung and records null where it exceeds the default state
/// cap instead of timing the budget error.
fn measure_compose_ladder(
    family: fn(usize, &str) -> bpi_core::syntax::P,
    tag: &str,
    ns: &[usize],
) -> Vec<ComposePoint> {
    let defs = Defs::new();
    let opts = Opts::default();
    let budget = Budget::unlimited();
    let reps = 3;
    let mut out = Vec::new();
    let mut sample_no = 0usize;
    for &n in ns {
        let mut comp_states = 0usize;
        let comp_us = median_us(reps, || {
            sample_no += 1;
            let sys = family(n, &format!("{tag}{sample_no}#"));
            let pool = shared_pool(&sys, &sys, opts.fresh_inputs);
            let g = build_composed(&sys, &defs, &pool, opts, &budget)
                .expect("identical-component families are finite")
                .expect("identical-component families pass the compose gate");
            comp_states = g.len();
        });
        sample_no += 1;
        let probe = family(n, &format!("{tag}{sample_no}#"));
        let pool = shared_pool(&probe, &probe, opts.fresh_inputs);
        let (mono_states, mono_us) = match Graph::build(&probe, &defs, &pool, opts) {
            Err(_) => (None, None),
            Ok(g) => {
                let states = g.len();
                drop(g);
                let us = median_us(reps, || {
                    sample_no += 1;
                    let sys = family(n, &format!("{tag}{sample_no}#"));
                    let pool = shared_pool(&sys, &sys, opts.fresh_inputs);
                    std::hint::black_box(
                        Graph::build(&sys, &defs, &pool, opts)
                            .expect("probed to fit the cap")
                            .len(),
                    );
                });
                (Some(states), Some(us))
            }
        };
        out.push(ComposePoint {
            n,
            mono_states,
            mono_us,
            comp_states,
            comp_us,
        });
    }
    out
}

/// The ISSUE 8 acceptance gate, absolute like the partition gate: at
/// the largest identical-stations rung the monolithic build still
/// completes, minimize-then-compose must beat it by ≥10×, and the
/// beyond-the-cap rung must complete compositionally while the
/// monolithic build exceeds its state budget.
fn run_compose_gate() -> bool {
    for attempt in 1..=3 {
        let pts = measure_compose_ladder(
            identical_stations_tagged,
            &format!("cg{attempt}#"),
            &[8, 16],
        );
        let feasible = &pts[0];
        let beyond = &pts[1];
        let sp = feasible.speedup().unwrap_or(f64::NAN);
        let pass = sp >= 10.0 && beyond.mono_us.is_none() && beyond.comp_states > 0;
        eprintln!(
            "--check[{attempt}] {:<48} {:>6.1}x (gate 10x absolute; n=16 monolithic {}) {}",
            "compose/identical-stations/ladder-8",
            sp,
            if beyond.mono_us.is_none() {
                "infeasible, compose completes"
            } else {
                "unexpectedly fit the cap"
            },
            if pass { "ok" } else { "RETRY" }
        );
        if pass {
            return true;
        }
    }
    eprintln!(
        "--check: REGRESSION compose ladder: below 10x of the monolithic build after 3 attempts"
    );
    false
}

/// A recorded BENCH file, parsed; `None` when it is missing or not
/// JSON.
fn read_bench(path: &str) -> Option<Json> {
    json::parse(&std::fs::read_to_string(path).ok()?).ok()
}

/// The items of the array field `key` of a recorded BENCH document.
fn items<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key).and_then(Json::as_arr).unwrap_or_default()
}

/// The first item of `list` whose `key` field is the count `value`.
fn item_with<'a>(
    list: impl IntoIterator<Item = &'a Json>,
    key: &str,
    value: usize,
) -> Option<&'a Json> {
    list.into_iter()
        .find(|x| x.get(key).and_then(Json::as_usize) == Some(value))
}

/// The recorded `speedup` of the ladder rung with the given state count
/// in a `bpi-bench-ladder/v1` file.
fn read_ladder_speedup(path: &str, states: usize) -> Option<f64> {
    let doc = read_bench(path)?;
    item_with(items(&doc, "ladder"), "states", states)?
        .get("speedup")?
        .as_f64()
}

/// Recorded-file gating of the BENCH_7 ladder: re-measure the
/// 1000-state rung and require at least half the recorded speedup.
/// Worklist timings swing ~2× with host noise, so 0.5× is the same
/// tolerance philosophy as the cold-start entries; the absolute 5×
/// floor of [`run_partition_gate`] stays the hard acceptance line.
fn run_bench7_gate() -> bool {
    let Some(want) = read_ladder_speedup("BENCH_7.json", 1000) else {
        eprintln!("--check: BENCH_7.json missing or without a 1000-state rung; nothing to gate");
        return true;
    };
    for attempt in 1..=3 {
        let pts = measure_partition_ladder(&[999], usize::MAX);
        let got = pts[0].speedup().unwrap_or(f64::NAN);
        let pass = got >= 0.5 * want;
        eprintln!(
            "--check[{attempt}] {:<48} {:>6.1}x (recorded {want:.1}x in BENCH_7.json, gate 0.5x) {}",
            "bisim/refine-partition/ladder-1000/recorded",
            got,
            if pass { "ok" } else { "RETRY" }
        );
        if pass {
            return true;
        }
    }
    eprintln!("--check: REGRESSION partition ladder: below 0.5x of BENCH_7.json after 3 attempts");
    false
}

/// The recorded `speedup` of the compose-ladder rung with the given
/// component count in a `bpi-bench-compose/v1` file. Only the
/// identical-stations ladder has an `n = 8` rung, so matching on `n`
/// alone is unambiguous for the gate's rung.
fn read_compose_speedup(path: &str, n: usize) -> Option<f64> {
    let doc = read_bench(path)?;
    let points = items(&doc, "ladders")
        .iter()
        .flat_map(|l| items(l, "points"));
    item_with(points, "n", n)?.get("speedup")?.as_f64()
}

/// Recorded-file gating of the BENCH_8 compositional ladder: re-measure
/// the identical-stations n=8 rung and require at least half the
/// recorded speedup. Same 0.5× tolerance philosophy as the BENCH_7
/// gate (the monolithic side swings with host noise); the absolute 10×
/// floor of [`run_compose_gate`] stays the hard acceptance line.
fn run_bench8_gate() -> bool {
    let Some(want) = read_compose_speedup("BENCH_8.json", 8) else {
        eprintln!("--check: BENCH_8.json missing or without an n=8 rung; nothing to gate");
        return true;
    };
    for attempt in 1..=3 {
        let pts =
            measure_compose_ladder(identical_stations_tagged, &format!("b8g{attempt}#"), &[8]);
        let got = pts[0].speedup().unwrap_or(f64::NAN);
        let pass = got >= 0.5 * want;
        eprintln!(
            "--check[{attempt}] {:<48} {:>6.1}x (recorded {want:.1}x in BENCH_8.json, gate 0.5x) {}",
            "compose/identical-stations/ladder-8/recorded",
            got,
            if pass { "ok" } else { "RETRY" }
        );
        if pass {
            return true;
        }
    }
    eprintln!("--check: REGRESSION compose ladder: below 0.5x of BENCH_8.json after 3 attempts");
    false
}

/// The recorded `(id, speedup)` entries of a `bpi-bench-report/v1`
/// file.
fn read_recorded_speedups(path: &str) -> Vec<(String, f64)> {
    let Some(doc) = read_bench(path) else {
        return Vec::new();
    };
    items(&doc, "entries")
        .iter()
        .filter_map(|e| Some((e.str_field("id")?.to_string(), e.get("speedup")?.as_f64()?)))
        .collect()
}

/// Per-entry gate factor: steady-state measurements must reach 0.9× of
/// their recorded speedup; cold-start measurements (single-sample
/// baselines) only 0.5×, which still catches a broken memo layer.
/// `BENCH_5.json` as a whole also gates at 0.5×: it is the *frozen*
/// PR 5 floor, recorded on a host where the naive-sweep baseline ran
/// ~2× slower relative to the worklist than on the current runners
/// (PR 8's own `BENCH_6.json` re-recorded the τ-ladder at 8.56× against
/// BENCH_5's 14.68×, so a 0.9× gate on the frozen file can never pass
/// across the host change). 0.5× still trips if an engine regression
/// collapses the ratio toward 1×; the rolling `BENCH_6.json` — re-
/// recorded each PR on the current host class — keeps the tight 0.9×.
fn gate_factor(file: &str, id: &str) -> f64 {
    if id.contains("/cold-vs-warm") || file == "BENCH_5.json" {
        0.5
    } else {
        0.9
    }
}

/// The CI regression gate: every entry recorded in `BENCH_5.json` *and*
/// `BENCH_6.json` must still reach at least its gate factor times its
/// recorded speedup (each file is gated independently — BENCH_5 is the
/// frozen PR 5 floor, BENCH_6 the previous PR's measurement).
/// Re-measures a failing entry up to three times before declaring a
/// regression.
fn run_check(sizes: &Sizes) -> bool {
    let mut recorded: Vec<(&'static str, String, f64)> = Vec::new();
    for file in ["BENCH_5.json", "BENCH_6.json"] {
        let from_file = read_recorded_speedups(file);
        if from_file.is_empty() {
            eprintln!("--check: {file} missing or unparsable; nothing to gate from it");
        }
        recorded.extend(from_file.into_iter().map(|(id, sp)| (file, id, sp)));
    }
    if recorded.is_empty() {
        return true;
    }
    let mut failing: Vec<(&'static str, String)> = recorded
        .iter()
        .map(|(file, id, _)| (*file, id.clone()))
        .collect();
    for attempt in 1..=3 {
        let entries = measure_entries(sizes, &format!("chk{attempt}#"));
        failing.retain(|(file, id)| {
            let Some((_, _, want)) = recorded
                .iter()
                .find(|(rfile, rid, _)| rfile == file && rid == id)
            else {
                return false;
            };
            let Some(e) = entries.iter().find(|e| e.id == *id) else {
                eprintln!("--check: recorded entry {id} ({file}) is no longer measured");
                return true;
            };
            let got = e.speedup();
            let factor = gate_factor(file, id);
            let pass = got >= factor * want;
            eprintln!(
                "--check[{attempt}] {:<48} {:>6.2}x (recorded {:>5.2}x in {file}, gate {factor}x) {}",
                id,
                got,
                want,
                if pass { "ok" } else { "RETRY" }
            );
            !pass
        });
        if failing.is_empty() {
            return true;
        }
    }
    for (file, id) in &failing {
        eprintln!(
            "--check: REGRESSION {id}: speedup below {}x of {file} after 3 attempts",
            gate_factor(file, id)
        );
    }
    false
}

/// One point of a B13 reliability curve.
struct RelPoint {
    system: &'static str,
    size: usize,
    loss: f64,
    probability: f64,
    ci: (f64, f64),
    samples: usize,
}

/// B13: reliability curves under message loss. Two families at two
/// sizes each, across a four-point loss sweep; every point is a seeded
/// Monte-Carlo estimate ([`bpi_semantics::convergence_mc`] through the
/// encodings' wrappers), bit-reproducible from the pinned plan seeds.
///
/// * `cycle-ring` — probability that the resilient detector signals the
///   ring's cycle within the step horizon (pump retries push this back
///   toward 1 even under heavy loss);
/// * `election-follow` — probability that an election produces a
///   *follower*, i.e. that the winning claim was actually heard; with
///   every claim listener an independent Bernoulli ear, this decays
///   with the loss rate and grows with the candidate count.
fn measure_reliability() -> Vec<RelPoint> {
    use bpi_encodings::{cycle, election};
    const LOSSES: [f64; 4] = [0.0, 0.1, 0.3, 0.6];
    const SAMPLES: usize = 300;
    const STEPS: usize = 60;
    let mut out = Vec::new();
    for size in [2usize, 3] {
        let ring = cycle::Graph {
            edges: (0..size)
                .map(|k| (format!("v{k}"), format!("v{}", (k + 1) % size)))
                .collect(),
        };
        for (k, &loss) in LOSSES.iter().enumerate() {
            let plan = FaultPlan::new(0xB13_0000 + (size as u64) * 16 + k as u64)
                .with_default_loss(loss)
                .expect("pinned probability");
            let est = cycle::convergence_probability(&ring, &plan, STEPS, SAMPLES);
            out.push(RelPoint {
                system: "cycle-ring",
                size,
                loss,
                probability: est.probability,
                ci: est.ci,
                samples: est.samples,
            });
        }
    }
    for size in [2usize, 3] {
        let (sys, defs, ch) = election::election_system(size);
        for (k, &loss) in LOSSES.iter().enumerate() {
            let plan = FaultPlan::new(0xB13_1000 + (size as u64) * 16 + k as u64)
                .with_default_loss(loss)
                .expect("pinned probability");
            let est = bpi_semantics::convergence_mc(
                &sys,
                &defs,
                &plan,
                ch.follow,
                STEPS,
                SAMPLES,
                &Budget::unlimited(),
                &CheckpointCfg::default(),
            )
            .expect("unbudgeted estimation cannot interrupt");
            out.push(RelPoint {
                system: "election-follow",
                size,
                loss,
                probability: est.probability,
                ci: est.ci,
                samples: est.samples,
            });
        }
    }
    out
}

/// One rung of the B16 Glomers ladder: a challenge verdict and its
/// wall-clock cost.
struct GlomersPoint {
    id: &'static str,
    holds: bool,
    us: f64,
}

/// B16 — the Glomers challenge ladder at the pinned sizes. Each rung is
/// one headline correctness check from
/// [`bpi_encodings::glomers::ladder`] (a behavioural equivalence, an
/// HML certificate, or an exhaustive reachability sweep); the verdict
/// is deterministic, so a single timed run per rung suffices — the
/// timing is the trajectory being tracked, the boolean is the gate.
fn measure_glomers() -> Vec<GlomersPoint> {
    bpi_encodings::glomers::ladder()
        .into_iter()
        .map(|(id, f)| {
            let mut holds = false;
            let us = median_us(1, || holds = f());
            GlomersPoint { id, holds, us }
        })
        .collect()
}

/// One point of the B16 fault-tolerance sweep.
struct GlomersRelPoint {
    system: &'static str,
    mode: &'static str,
    loss: f64,
    probability: f64,
    ci: (f64, f64),
    samples: usize,
}

/// B16 — reliability of the fault-tolerant Glomers rungs under a pinned
/// loss sweep: the 3-relay broadcast chain and the 3-node G-counter,
/// each one-shot vs retrying (gossip repair). Every point is a seeded
/// Monte-Carlo estimate, bit-reproducible from the pinned plan seeds;
/// the retrying curves staying near 1 while the one-shot curves decay
/// is the fault-tolerance story in two lines of JSON.
fn measure_glomers_reliability() -> Vec<GlomersRelPoint> {
    use bpi_encodings::glomers::{broadcast, gcounter};
    const LOSSES: [f64; 3] = [0.0, 0.1, 0.3];
    const SAMPLES: usize = 200;
    const STEPS: usize = 64;
    let mut out = Vec::new();
    for (mode, persistent) in [("one-shot", false), ("retrying", true)] {
        for (k, &loss) in LOSSES.iter().enumerate() {
            let plan = FaultPlan::new(0xB16_0000 + u64::from(persistent) * 256 + k as u64)
                .with_default_loss(loss)
                .expect("pinned probability");
            let est = broadcast::relay_reliability(3, persistent, &plan, STEPS, SAMPLES);
            out.push(GlomersRelPoint {
                system: "glomers-relay-3",
                mode,
                loss,
                probability: est.probability,
                ci: est.ci,
                samples: est.samples,
            });
        }
    }
    for (mode, persistent) in [("one-shot", false), ("retrying", true)] {
        for (k, &loss) in LOSSES.iter().enumerate() {
            let plan = FaultPlan::new(0xB16_1000 + u64::from(persistent) * 256 + k as u64)
                .with_default_loss(loss)
                .expect("pinned probability");
            let est = gcounter::counter_reliability(3, persistent, &plan, STEPS, SAMPLES);
            out.push(GlomersRelPoint {
                system: "glomers-gcounter-3",
                mode,
                loss,
                probability: est.probability,
                ci: est.ci,
                samples: est.samples,
            });
        }
    }
    out
}

/// The recorded rung ids (those with a verdict) of a
/// `bpi-bench-glomers/v1` file.
fn read_glomers_ids(path: &str) -> Vec<String> {
    let Some(doc) = read_bench(path) else {
        return Vec::new();
    };
    let with_verdict = |r: &Json| Some(r.get("holds").and(r.str_field("id"))?.to_string());
    items(&doc, "ladder").iter().filter_map(with_verdict).collect()
}

/// The B16 gate: replay the Glomers ladder and fail if any rung
/// recorded in `BENCH_9.json` is no longer measured or no longer
/// holds. Verdicts are engine-deterministic (the differential suites
/// pin that), so there is no retry loop and no tolerance — a flipped
/// verdict is a correctness regression, not host noise.
fn run_glomers_gate() -> bool {
    let recorded = read_glomers_ids("BENCH_9.json");
    if recorded.is_empty() {
        eprintln!("--check: BENCH_9.json missing or without rungs; nothing to gate");
        return true;
    }
    let pts = measure_glomers();
    let mut ok = true;
    for id in &recorded {
        match pts.iter().find(|p| p.id == id) {
            None => {
                eprintln!("--check: REGRESSION glomers rung {id} is no longer measured");
                ok = false;
            }
            Some(p) if !p.holds => {
                eprintln!("--check: REGRESSION glomers verdict {id} no longer holds");
                ok = false;
            }
            Some(p) => {
                eprintln!(
                    "--check[1] {:<48} holds ({:>8.1}us) ok",
                    format!("glomers/{id}"),
                    p.us
                );
            }
        }
    }
    for p in &pts {
        if !recorded.iter().any(|id| id == p.id) && !p.holds {
            eprintln!("--check: REGRESSION new glomers verdict {} fails", p.id);
            ok = false;
        }
    }
    ok
}

/// The `--metrics` workload: reset the registry, run a pinned
/// build+refine (τ-ladder and scaled-sums across all six variants, plus
/// one tight-budget exhaustion), and read back the deterministic
/// counters. Every value here is engine-independent.
fn measure_metrics(s: &Sizes) -> Vec<(&'static str, u64)> {
    const ALL: [Variant; 6] = [
        Variant::StrongBarbed,
        Variant::StrongStep,
        Variant::StrongLabelled,
        Variant::WeakBarbed,
        Variant::WeakStep,
        Variant::WeakLabelled,
    ];
    let defs = Defs::new();
    let opts = Opts::default();
    bpi_obs::reset_for_tests();
    for sys in [tau_chain(s.ladder_n / 4), scaled_pair(s.scaled_n).0] {
        let pool = shared_pool(&sys, &sys, opts.fresh_inputs);
        let g = Graph::build(&sys, &defs, &pool, opts).expect("pinned instance fits");
        for v in ALL {
            std::hint::black_box(refine_worklist(v, &g, &g));
        }
    }
    // One deterministic exhaustion so the error-path counter is pinned.
    let ladder = tau_chain(s.ladder_n);
    let pool = shared_pool(&ladder, &ladder, opts.fresh_inputs);
    let _ = Graph::build_with_budget(&ladder, &defs, &pool, opts, &Budget::states(4));
    bpi_obs::deterministic_counters()
        .into_iter()
        .filter(|(_, v)| *v != 0)
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Hidden mode: the BENCH_10 kill-and-restart phase re-executes this
    // binary as the daemon under test (CARGO_BIN_EXE_* does not cross
    // crate boundaries), so harness and child share one build.
    if args.first().map(String::as_str) == Some("--serve-child") {
        serve_child(&args[1..]);
        return;
    }
    let check = args.iter().any(|a| a == "--check");
    let with_metrics = args.iter().any(|a| a == "--metrics");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_6.json".to_string());

    let sizes = Sizes {
        ladder_n: 48,
        scaled_n: 8,
        explore_n: 8,
        depth: 12,
        reps: if check { 5 } else { 9 },
    };

    if check {
        if run_check(&sizes)
            && run_partition_gate()
            && run_bench7_gate()
            && run_compose_gate()
            && run_bench8_gate()
            && run_glomers_gate()
            && run_server_gate()
        {
            eprintln!("--check: all recorded entries within tolerance");
            return;
        }
        std::process::exit(1);
    }

    let entries = measure_entries(&sizes, "rpt#");
    let ladder_pts = measure_partition_ladder(&[48, 199, 999, 3199, 9999], 3200);
    let compose_ladders = [
        (
            "compose/identical-stations",
            measure_compose_ladder(identical_stations_tagged, "st#", &[2, 4, 6, 8, 12, 16]),
            "N identical stations (a-bar + tau.b-bar.a()) on shared channels: monolithic \
             tuples vs orbit-canonical multisets",
        ),
        (
            "compose/shared-3^N",
            measure_compose_ladder(shared_components_tagged, "sc#", &[3, 5, 7, 9, 11, 14]),
            "N identical a-bar.b-bar components on shared channels: 3^N monolithic states \
             vs C(N+2,2) orbit states",
        ),
    ];
    let reliability = measure_reliability();
    let metrics = with_metrics.then(|| measure_metrics(&sizes));
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Render.
    let (ptr_hits, hash_hits, misses) = bpi_core::store::store_stats();
    let count = |n: usize| Json::num(n as f64);
    let mut report = vec![
        ("schema", Json::str("bpi-bench-report/v1")),
        ("pr", Json::num(9)),
        ("host_cpus", count(host_cpus)),
        (
            "pinned",
            Json::obj(vec![
                ("tau_ladder", count(sizes.ladder_n)),
                ("scaled_sums", count(sizes.scaled_n)),
                ("explore_components", count(sizes.explore_n)),
                ("term_depth", count(sizes.depth)),
                ("repeats", count(sizes.reps)),
            ]),
        ),
        (
            "store",
            Json::obj(vec![
                ("ptr_hits", Json::num(ptr_hits as f64)),
                ("hash_hits", Json::num(hash_hits as f64)),
                ("misses", Json::num(misses as f64)),
            ]),
        ),
        (
            "entries",
            rows(&entries, |e| {
                vec![
                    ("id", Json::str(e.id)),
                    ("baseline_us", fixed(e.baseline_us, 1)),
                    ("optimized_us", fixed(e.optimized_us, 1)),
                    ("speedup", fixed(e.speedup(), 2)),
                    ("note", Json::str(e.note)),
                ]
            }),
        ),
        (
            "reliability",
            rows(&reliability, |r| {
                vec![
                    ("system", Json::str(r.system)),
                    ("size", count(r.size)),
                    ("loss", fixed(r.loss, 2)),
                    ("probability", fixed(r.probability, 4)),
                    ("ci", Json::Arr(vec![fixed(r.ci.0, 4), fixed(r.ci.1, 4)])),
                    ("samples", count(r.samples)),
                ]
            }),
        ),
    ];
    if let Some(m) = &metrics {
        let deterministic = m.iter().map(|(name, v)| (*name, Json::num(*v as f64)));
        report.push((
            "metrics",
            Json::obj(vec![
                (
                    "workload",
                    Json::str(
                        "build+refine tau-ladder/4 and scaled-sums over all six variants, \
                         one budget exhaustion",
                    ),
                ),
                ("deterministic", Json::obj(deterministic.collect())),
            ]),
        ));
    }
    let json = render(&report);

    for e in &entries {
        eprintln!(
            "{:<48} {:>10.1}us -> {:>10.1}us  ({:>5.2}x)",
            e.id,
            e.baseline_us,
            e.optimized_us,
            e.speedup()
        );
    }
    for r in &reliability {
        eprintln!(
            "{:<20} n={}  loss={:.2}  P={:.4}  ci=[{:.4}, {:.4}]",
            r.system, r.size, r.loss, r.probability, r.ci.0, r.ci.1
        );
    }
    if let Some(m) = &metrics {
        eprintln!("deterministic counters ({} names):", m.len());
        for (name, value) in m {
            eprintln!("  {name:<40} {value}");
        }
    }
    std::fs::write(&out_path, json).expect("write report");
    eprintln!("wrote {out_path}");

    // BENCH_7 — the partition-ladder series, in its own file so the
    // asymptotic story diffs independently of the pinned-size entries.
    let opt = |x: Option<f64>, places| x.map_or(Json::Null, |x| fixed(x, places));
    let b7 = render(&[
        ("schema", Json::str("bpi-bench-ladder/v1")),
        ("pr", Json::num(9)),
        ("bench", Json::str("partition-vs-worklist tau-ladder")),
        ("variant", Json::str("strong-labelled")),
        ("host_cpus", count(host_cpus)),
        (
            "ladder",
            rows(&ladder_pts, |pt| {
                vec![
                    ("states", count(pt.states)),
                    ("partition_us", fixed(pt.partition_us, 1)),
                    ("worklist_us", opt(pt.worklist_us, 1)),
                    ("speedup", opt(pt.speedup(), 2)),
                ]
            }),
        ),
        (
            "note",
            Json::str(
                "worklist_us is null above 3200 states (the O(pairs) engine is the cost \
                 being avoided); partition time across the series demonstrates sub-quadratic \
                 scaling",
            ),
        ),
    ]);
    for pt in &ladder_pts {
        eprintln!(
            "partition-ladder n={:<6} partition {:>10.1}us  worklist {:>12}  ({})",
            pt.states,
            pt.partition_us,
            pt.worklist_us
                .map_or("-".to_string(), |w| format!("{w:.1}us")),
            pt.speedup().map_or("-".to_string(), |s| format!("{s:.1}x")),
        );
    }
    std::fs::write("BENCH_7.json", b7).expect("write ladder report");
    eprintln!("wrote BENCH_7.json");

    // BENCH_8 — the compositional ladders: monolithic build vs
    // minimize-then-compose with symmetry reduction, one file so the
    // exponential-to-polynomial story diffs independently.
    let b8 = render(&[
        ("schema", Json::str("bpi-bench-compose/v1")),
        ("pr", Json::num(9)),
        (
            "bench",
            Json::str("minimize-then-compose vs monolithic build"),
        ),
        (
            "variant",
            Json::str("strong-labelled quotient per component"),
        ),
        ("host_cpus", count(host_cpus)),
        (
            "ladders",
            Json::Arr(
                compose_ladders
                    .iter()
                    .map(|(id, pts, note)| {
                        let points = pts.iter().map(|pt| {
                            Json::obj(vec![
                                ("n", count(pt.n)),
                                ("mono_states", pt.mono_states.map_or(Json::Null, count)),
                                ("mono_us", opt(pt.mono_us, 1)),
                                ("comp_states", count(pt.comp_states)),
                                ("comp_us", fixed(pt.comp_us, 1)),
                                ("speedup", opt(pt.speedup(), 2)),
                            ])
                        });
                        Json::obj(vec![
                            ("id", Json::str(*id)),
                            ("points", Json::Arr(points.collect())),
                            ("note", Json::str(*note)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "note",
            Json::str(
                "mono_us is null where the monolithic build exceeds the default 20k state \
                 cap: those rungs were previously infeasible and complete only compositionally",
            ),
        ),
    ]);
    for (id, pts, _) in &compose_ladders {
        for pt in pts {
            eprintln!(
                "{id} n={:<4} mono {:>12} ({:>6} states)  compose {:>10.1}us ({:>5} states)  ({})",
                pt.n,
                pt.mono_us
                    .map_or("budget-out".to_string(), |u| format!("{u:.1}us")),
                pt.mono_states.map_or("-".to_string(), |s| s.to_string()),
                pt.comp_us,
                pt.comp_states,
                pt.speedup().map_or("-".to_string(), |s| format!("{s:.1}x")),
            );
        }
    }
    std::fs::write("BENCH_8.json", b8).expect("write compose report");
    eprintln!("wrote BENCH_8.json");

    // BENCH_9 — the Glomers workload ladder: per-challenge verdicts
    // with wall-clock cost, plus the fault-tolerance reliability sweep,
    // in its own file so the workload story diffs independently.
    let glomers_pts = measure_glomers();
    let glomers_rel = measure_glomers_reliability();
    let b9 = render(&[
        ("schema", Json::str("bpi-bench-glomers/v1")),
        ("pr", Json::num(9)),
        ("bench", Json::str("gossip-glomers challenge ladder")),
        ("host_cpus", count(host_cpus)),
        (
            "ladder",
            rows(&glomers_pts, |p| {
                vec![
                    ("id", Json::str(p.id)),
                    ("holds", Json::Bool(p.holds)),
                    ("us", fixed(p.us, 1)),
                ]
            }),
        ),
        (
            "reliability",
            rows(&glomers_rel, |r| {
                vec![
                    ("system", Json::str(r.system)),
                    ("mode", Json::str(r.mode)),
                    ("loss", fixed(r.loss, 2)),
                    ("probability", fixed(r.probability, 4)),
                    ("ci", Json::Arr(vec![fixed(r.ci.0, 4), fixed(r.ci.1, 4)])),
                    ("samples", count(r.samples)),
                ]
            }),
        ),
        (
            "note",
            Json::str(
                "verdicts are engine-deterministic (the differential suites pin that); \
                 us tracks the cost trajectory; the retrying reliability curves staying near 1 \
                 while one-shot decays with loss is the fault-tolerance acceptance story",
            ),
        ),
    ]);
    for p in &glomers_pts {
        eprintln!(
            "glomers {:<40} {}  ({:>10.1}us)",
            p.id,
            if p.holds { "holds" } else { "FAILS" },
            p.us
        );
    }
    for r in &glomers_rel {
        eprintln!(
            "{:<20} {:<9} loss={:.2}  P={:.4}  ci=[{:.4}, {:.4}]",
            r.system, r.mode, r.loss, r.probability, r.ci.0, r.ci.1
        );
    }
    std::fs::write("BENCH_9.json", b9).expect("write glomers report");
    eprintln!("wrote BENCH_9.json");

    // BENCH_10 — PR 10's B17 daemon story: the bpi-server under
    // steady-state load, under deliberate overload (typed shedding, p99
    // of the *admitted* jobs), and across a kill -9 mid-workload
    // (recovery wall-clock plus the bit-identical-verdicts invariant).
    let server_phases = measure_server_phases();
    let recovery = measure_server_recovery();
    let b10 = render(&[
        ("schema", Json::str("bpi-bench-server/v1")),
        ("pr", Json::num(10)),
        ("bench", Json::str("bpi-server daemon under load")),
        ("host_cpus", count(host_cpus)),
        (
            "phases",
            rows(&server_phases, |p| {
                vec![
                    ("phase", Json::str(p.phase)),
                    ("jobs", count(p.jobs)),
                    ("ok", count(p.ok)),
                    ("rejected", count(p.rejected)),
                    ("wall_us", fixed(p.wall_us, 1)),
                    ("jobs_per_sec", fixed(p.jobs_per_sec(), 1)),
                    ("p50_us", fixed(p.p50_us, 1)),
                    ("p99_us", fixed(p.p99_us, 1)),
                ]
            }),
        ),
        (
            "recovery",
            Json::obj(vec![
                ("jobs", count(recovery.jobs)),
                ("kills", count(recovery.kills)),
                (
                    "verdicts_identical",
                    Json::Bool(recovery.verdicts_identical),
                ),
                ("recovery_us", fixed(recovery.recovery_us, 1)),
            ]),
        ),
        (
            "note",
            Json::str(
                "steady p99 tracks the admitted-job latency promise; overload records \
                 typed shedding (rejected is load the daemon refused, not load it lost); recovery \
                 restarts on the same journal after SIGKILL and verdicts_identical is the \
                 process-level resume-invisibility invariant — it must never read false",
            ),
        ),
    ]);
    for p in &server_phases {
        eprintln!(
            "server {:<10} {:>3} jobs  {:>3} ok {:>3} rejected  {:>10.1} jobs/s  p99 {:>9.1}us",
            p.phase,
            p.jobs,
            p.ok,
            p.rejected,
            p.jobs_per_sec(),
            p.p99_us
        );
    }
    eprintln!(
        "server recovery   {:>3} jobs  {} kill(s)  identical={}  {:>9.1}us to full recovery",
        recovery.jobs, recovery.kills, recovery.verdicts_identical, recovery.recovery_us
    );
    assert!(
        recovery.verdicts_identical,
        "BENCH_10 recovery phase lost or changed a verdict across kill -9"
    );
    std::fs::write("BENCH_10.json", b10).expect("write server report");
    eprintln!("wrote BENCH_10.json");
}

// ---------------------------------------------------------------------------
// BENCH_10 — the bpi-server daemon (PR 10 / B17)

struct ServerPhasePoint {
    phase: &'static str,
    jobs: usize,
    ok: usize,
    rejected: usize,
    wall_us: f64,
    p50_us: f64,
    p99_us: f64,
}

impl ServerPhasePoint {
    fn jobs_per_sec(&self) -> f64 {
        if self.wall_us <= 0.0 {
            0.0
        } else {
            self.ok as f64 / (self.wall_us / 1e6)
        }
    }
}

struct RecoveryPoint {
    jobs: usize,
    kills: usize,
    verdicts_identical: bool,
    recovery_us: f64,
}

fn percentile(sorted_us: &[f64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() as f64 - 1.0) * q).round() as usize;
    sorted_us[idx]
}

fn bench10_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("bpi-bench10-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

const SERVER_DEFS: &str = "Fwd(a,b) = a(x).b<x>.Fwd<a,b>;";

/// The daemon side of the hidden `--serve-child DIR` mode: a real OS
/// process serving on an ephemeral port, killable with SIGKILL.
fn serve_child(args: &[String]) {
    use bpi_server::{server, SchedCfg, ServerCfg};
    use std::io::Write;
    let dir = args.first().expect("--serve-child DIR");
    let mut cfg = ServerCfg::new(dir);
    cfg.sched = SchedCfg {
        workers: 1,
        queue_cap: 64,
        state_budget: 1_000_000,
        shed_fraction: 0.75,
        fuel: 8,
        default_max_states: 20_000,
        max_max_states: 200_000,
    };
    match server::start(cfg) {
        Ok(handle) => {
            println!("LISTENING {}", handle.addr);
            std::io::stdout().flush().ok();
            handle.wait();
        }
        Err(e) => {
            eprintln!("serve-child: {e}");
            std::process::exit(1);
        }
    }
}

fn spawn_serve_child(dir: &std::path::Path) -> (std::process::Child, std::net::SocketAddr) {
    use std::io::BufRead;
    let exe = std::env::current_exe().expect("current_exe");
    let mut child = std::process::Command::new(exe)
        .arg("--serve-child")
        .arg(dir)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn serve child");
    let stdout = child.stdout.take().expect("child stdout");
    let mut line = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read LISTENING banner");
    let addr = line
        .trim()
        .strip_prefix("LISTENING ")
        .unwrap_or_else(|| panic!("unexpected banner {line:?}"))
        .parse()
        .expect("parse child address");
    (child, addr)
}

fn steady_job(
    c: &mut bpi_server::Client,
    id: &str,
    kind: usize,
) -> std::io::Result<bpi_server::Json> {
    match kind % 4 {
        0 => c.check(id, "s", "weak-labelled", "tau.a<>", "a<>", "normal", None),
        1 => c.check(id, "s", "strong-labelled", "a<>.b<> + a<>.b<>", "a<>.b<>", "normal", None),
        2 => c.explore(id, "s", "Fwd<a,b> | a<v>", 400),
        _ => c.reliability(id, "s", "a<v> | a(x).x<>", "v", 0.3, 7, 8, 64),
    }
}

/// The mixed recovery workload; everything deterministic from the
/// journal (seeded sampling, canonical exploration).
fn recovery_job(
    c: &mut bpi_server::Client,
    id: &str,
    kind: usize,
) -> std::io::Result<bpi_server::Json> {
    match kind {
        0 => c.check(id, "s", "weak-labelled", "tau.a<>", "a<>", "normal", None),
        1 => c.check(
            id,
            "s",
            "strong-labelled",
            "Fwd<a,b> | Fwd<b,c> | Fwd<c,d> | a<v>",
            "Fwd<a,b> | Fwd<b,c> | Fwd<c,d> | a<v>",
            "normal",
            None,
        ),
        2 => c.check(
            id,
            "s",
            "weak-labelled",
            "Fwd<a,b> | Fwd<b,c> | a<v>",
            "Fwd<a,b> | Fwd<b,c> | a<v>",
            "normal",
            None,
        ),
        3 => c.check(id, "s", "strong-labelled", "a<>.b<>", "a<>.c<>", "normal", None),
        4 => c.reliability(id, "s", "a<v> | a(x).b<> | a(y).c<>", "v", 0.25, 11, 20, 512),
        _ => c.explore(id, "s", "Fwd<a,b> | Fwd<b,c> | a<v>", 2000),
    }
}

const RECOVERY_JOBS: usize = 6;

fn settled(r: &bpi_server::Json) -> bool {
    !matches!(r.str_field("status"), Some("pending") | None)
        && r.str_field("error") != Some("unknown-id")
}

/// Steady-state and overload phases against in-process daemons.
/// Latencies are measured client-side around each round trip so the
/// numbers are end-to-end, not scheduler-internal.
fn measure_server_phases() -> Vec<ServerPhasePoint> {
    use bpi_server::{server, Client, SchedCfg, ServerCfg};
    let mut out = Vec::new();

    // Steady state: a comfortably-provisioned daemon, every job admitted.
    {
        let dir = bench10_dir("steady");
        let mut cfg = ServerCfg::new(&dir);
        cfg.sched = SchedCfg {
            workers: 2,
            queue_cap: 64,
            state_budget: 4_000_000,
            shed_fraction: 0.75,
            fuel: 2048,
            default_max_states: 20_000,
            max_max_states: 200_000,
        };
        let h = server::start(cfg).expect("start steady daemon");
        {
            let mut c = Client::connect(h.addr).expect("connect for defs");
            let r = c.defs("s", SERVER_DEFS).expect("defs");
            assert_eq!(r.str_field("status"), Some("ok"), "{r}");
        }
        let addr = h.addr;
        let t0 = std::time::Instant::now();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).expect("steady connect");
                    let mut lat = Vec::new();
                    let (mut ok, mut rejected) = (0usize, 0usize);
                    for i in 0..12 {
                        let id = format!("steady-{t}-{i}");
                        let j0 = std::time::Instant::now();
                        let r = steady_job(&mut c, &id, t + i).expect("steady roundtrip");
                        let us = j0.elapsed().as_secs_f64() * 1e6;
                        match r.str_field("status") {
                            Some("ok") => {
                                ok += 1;
                                lat.push(us);
                            }
                            Some("rejected") => rejected += 1,
                            other => panic!("steady job {id}: unexpected status {other:?}: {r}"),
                        }
                    }
                    (ok, rejected, lat)
                })
            })
            .collect();
        let mut lat = Vec::new();
        let (mut ok, mut rejected) = (0usize, 0usize);
        for th in handles {
            let (o, r, l) = th.join().expect("steady thread");
            ok += o;
            rejected += r;
            lat.extend(l);
        }
        let wall_us = t0.elapsed().as_secs_f64() * 1e6;
        h.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        lat.sort_by(f64::total_cmp);
        out.push(ServerPhasePoint {
            phase: "steady",
            jobs: 48,
            ok,
            rejected,
            wall_us,
            p50_us: percentile(&lat, 0.5),
            p99_us: percentile(&lat, 0.99),
        });
    }

    // Overload: a deliberately starved daemon (one worker, 2-deep
    // queue, small budget). The story is the typed rejection rate and
    // the p99 of the jobs it *did* admit.
    {
        let dir = bench10_dir("overload");
        let mut cfg = ServerCfg::new(&dir);
        cfg.sched = SchedCfg {
            workers: 1,
            queue_cap: 2,
            state_budget: 60_000,
            shed_fraction: 0.75,
            fuel: 8,
            default_max_states: 20_000,
            max_max_states: 200_000,
        };
        let h = server::start(cfg).expect("start overload daemon");
        let addr = h.addr;
        let t0 = std::time::Instant::now();
        let handles: Vec<_> = (0..32)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).expect("overload connect");
                    let prio = ["low", "normal", "high"][i % 3];
                    let j0 = std::time::Instant::now();
                    let r = c
                        .check(
                            &format!("ov-{i}"),
                            "",
                            "strong-labelled",
                            "a<v>.b<>.c<>.d<> + a<v>.b<>.c<>.d<>",
                            "a<v>.b<>.c<>.d<>",
                            prio,
                            None,
                        )
                        .expect("overload roundtrip");
                    (r, j0.elapsed().as_secs_f64() * 1e6)
                })
            })
            .collect();
        let mut lat = Vec::new();
        let (mut ok, mut rejected) = (0usize, 0usize);
        for th in handles {
            let (r, us) = th.join().expect("overload thread");
            match r.str_field("status") {
                Some("ok") => {
                    ok += 1;
                    lat.push(us);
                }
                Some("rejected") => rejected += 1,
                other => panic!("overload job: unexpected status {other:?}: {r}"),
            }
        }
        let wall_us = t0.elapsed().as_secs_f64() * 1e6;
        h.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        lat.sort_by(f64::total_cmp);
        out.push(ServerPhasePoint {
            phase: "overload",
            jobs: 32,
            ok,
            rejected,
            wall_us,
            p50_us: percentile(&lat, 0.5),
            p99_us: percentile(&lat, 0.99),
        });
    }

    out
}

/// The kill-and-restart phase: run the workload uninterrupted, then
/// run it again with a SIGKILL after the first verdict, restart on the
/// same journal, and compare the recovered verdict vectors.
fn measure_server_recovery() -> RecoveryPoint {
    use bpi_server::Client;

    let ids: Vec<String> = (0..RECOVERY_JOBS).map(|i| format!("rec-{i}")).collect();

    // Baseline: no crash.
    let base_dir = bench10_dir("rec-base");
    let (mut child, addr) = spawn_serve_child(&base_dir);
    let expected: Vec<String> = {
        let mut c = Client::connect(addr).expect("baseline connect");
        let r = c.defs("s", SERVER_DEFS).expect("defs");
        assert_eq!(r.str_field("status"), Some("ok"), "{r}");
        for (i, id) in ids.iter().enumerate() {
            let r = recovery_job(&mut c, id, i).expect("baseline job");
            assert!(settled(&r), "baseline {id}: {r}");
        }
        ids.iter()
            .map(|id| c.result_of(id).expect("baseline result").to_string())
            .collect()
    };
    if let Ok(mut c) = Client::connect(addr) {
        let _ = c.shutdown();
    }
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&base_dir);

    // Chaos: SIGKILL after the first verdict, then recover.
    let dir = bench10_dir("rec-chaos");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(90);
    let (mut child, addr) = spawn_serve_child(&dir);
    {
        let mut c = Client::connect(addr).expect("chaos connect");
        let r = c.defs("s", SERVER_DEFS).expect("defs");
        assert_eq!(r.str_field("status"), Some("ok"), "{r}");
    }
    let submitters: Vec<_> = ids
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, id)| {
            std::thread::spawn(move || {
                // The daemon dies under this request by design; the
                // verdict is recovered from the journal afterwards.
                if let Ok(mut c) = Client::connect(addr) {
                    let _ = recovery_job(&mut c, &id, i);
                }
            })
        })
        .collect();
    // All jobs journal-admitted, at least one settled — then SIGKILL.
    loop {
        assert!(std::time::Instant::now() < deadline, "recovery bench: jobs never visible");
        let mut c = Client::connect(addr).expect("poll connect");
        let visible = ids
            .iter()
            .filter(|id| {
                matches!(c.result_of(id), Ok(r) if r.str_field("error") != Some("unknown-id"))
            })
            .count();
        let done = ids
            .iter()
            .filter(|id| matches!(c.result_of(id), Ok(r) if settled(&r)))
            .count();
        if visible == ids.len() && done >= 1 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    child.kill().expect("SIGKILL daemon");
    let _ = child.wait();
    for t in submitters {
        let _ = t.join();
    }

    // Restart and time full recovery: journal replay to last verdict.
    let t0 = std::time::Instant::now();
    let (mut child, addr) = spawn_serve_child(&dir);
    let got: Vec<String> = {
        let mut c = Client::connect(addr).expect("recovered connect");
        ids.iter()
            .map(|id| {
                let r = c
                    .wait_result(id, std::time::Duration::from_secs(60))
                    .expect("recovered result");
                assert!(settled(&r), "recovered {id} never settled: {r}");
                r.to_string()
            })
            .collect()
    };
    let recovery_us = t0.elapsed().as_secs_f64() * 1e6;
    if let Ok(mut c) = Client::connect(addr) {
        let _ = c.shutdown();
    }
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);

    RecoveryPoint {
        jobs: RECOVERY_JOBS,
        kills: 1,
        verdicts_identical: got == expected,
        recovery_us,
    }
}

/// The B17 gate: recovery identity is deterministic (no tolerance, no
/// retry — a changed verdict is a correctness regression), then the
/// admitted-job p99 must stay under an absolute, generous ceiling
/// (retried to ride out scheduler noise).
fn run_server_gate() -> bool {
    if !std::path::Path::new("BENCH_10.json").exists() {
        eprintln!("--check: BENCH_10.json missing; nothing to gate");
        return true;
    }
    let rec = measure_server_recovery();
    if !rec.verdicts_identical {
        eprintln!("--check: REGRESSION server recovery verdicts changed across kill -9");
        return false;
    }
    eprintln!(
        "--check[1] {:<48} identical after {} kill(s) ({:>8.1}us recovery) ok",
        "server/kill-restart", rec.kills, rec.recovery_us
    );
    for attempt in 1..=3 {
        let phases = measure_server_phases();
        let worst = phases.iter().map(|p| p.p99_us).fold(0.0, f64::max);
        let ok = worst <= 5_000_000.0 && phases.iter().all(|p| p.ok > 0);
        eprintln!(
            "--check[{attempt}] {:<48} p99 {:>10.1}us (gate 5s absolute) {}",
            "server/admitted-p99",
            worst,
            if ok { "ok" } else { "RETRY" }
        );
        if ok {
            return true;
        }
    }
    eprintln!("--check: REGRESSION server admitted-job p99 above 5s after 3 attempts");
    false
}
