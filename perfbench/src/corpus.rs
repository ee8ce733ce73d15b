//! `check-corpus`: the library path. One thread parses and checks a
//! seeded corpus in-process, in whole passes over the catalogue.
//!
//! Each pass runs in a fresh harness process (`perfbench corpus-pass`),
//! which sets up (catalogue, pinned outcomes, the pass's inputs, one tiny
//! check per variant), then times every item. The checker's memos keep
//! every term they have seen, and a pass's fresh names never hit an
//! earlier pass's entries; in one process they grew by about 700 MB per
//! pass and slowed each pass more than the last. A fresh process per pass
//! bounds memory and starts every pass from the same state, and every
//! set-up pays first-touch initialisation.
//!
//! Untraced, each item is the user's call (`parse_process` then
//! `Checker::check`, `all_variants`, `try_bisimulation_distance`, or a
//! Glomers rung). Traced, each item is broken into the public calls the
//! checker makes, each timed as a layer span: `parse_process`,
//! `shared_pool` + `Graph::build_cached` (CSR freeze read off the
//! `bpi-obs` span histogram), the weak closures forced over every state,
//! and `refine_auto` (booked to the partition or the pairwise layer by
//! the dispatch rule) or `epsilon_distance`.

use crate::expect::{Expected, NAIVE_MAX_PAIRS};
use crate::gen::{self, corpus_catalogue, corpus_pass, Item, Op, Shape, DEFS, DISTANCE_TOL};
use crate::report::{self, ratio, Layers};
use crate::trace::{obs_span_ms, Span, Tracer, ROOT};
use crate::Run;
use bpi_core::parser::{parse_defs, parse_process};
use bpi_core::syntax::{Defs, P};
use bpi_equiv::{
    all_variants, epsilon_distance, partition_safe, refine_auto, shared_pool,
    try_bisimulation_distance, Checker, Graph, Opts, Variant,
};
use bpi_semantics::Budget;
use bpi_server::{json, Json};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Parse, check and compare one item; `true` when the outcome matches.
fn run_item(shape: &Shape, item: &Item, defs: &Defs, want: &str) -> bool {
    if let Op::Rung(i) = shape.op {
        return (bpi_encodings::glomers::ladder()[i].1)() && want == "true";
    }
    let (Ok(p), Ok(q)) = (parse_process(&item.left), parse_process(&item.right)) else {
        return false;
    };
    match shape.op {
        Op::Check(v) => {
            let verdict = Checker::new(defs).check(v, &p, &q);
            !verdict.is_inconclusive() && verdict.holds().to_string() == want
        }
        Op::AllVariants => {
            let got: String = all_variants(&p, &q, defs)
                .iter()
                .map(|(_, b)| if *b { 't' } else { 'f' })
                .collect();
            got == want
        }
        Op::Distance(v) => try_bisimulation_distance(v, &p, &q, defs, DISTANCE_TOL)
            .is_ok_and(|d| format!("{d:?}") == want),
        Op::Rung(_) => unreachable!("handled above"),
    }
}

/// Forces the state-level weak closures the refiner of `v` reads.
fn saturate(v: Variant, g: &Graph) {
    for i in 0..g.len() {
        match v {
            Variant::WeakBarbed => {
                g.weak_barbs(i);
            }
            Variant::WeakStep => {
                g.weak_step_barbs(i);
            }
            Variant::WeakLabelled => {
                g.tau_closure(i);
            }
            _ => {}
        }
    }
}

/// Refinement booked to the layer the dispatch picks.
fn refine_span(
    tr: &mut Tracer,
    unit: &str,
    root: usize,
    v: Variant,
    g1: &Graph,
    g2: &Graph,
) -> bool {
    let partition = g1.len() * g2.len() > NAIVE_MAX_PAIRS && partition_safe(g1, g2);
    let layer = if partition {
        "equiv.partition.refine_ms"
    } else {
        "equiv.bisim.refine_ms"
    };
    tr.time(unit, layer, Some(root), || {
        refine_auto(v, g1, g2, 1).holds(0, 0)
    })
}

/// The traced form of [`run_item`]: the same work, split into spans.
fn run_item_traced(tr: &mut Tracer, shape: &Shape, item: &Item, defs: &Defs, want: &str) -> bool {
    let unit = item.id.as_str();
    let root = tr.open(unit, ROOT, None);
    let ok = traced_body(tr, unit, root, shape, item, defs, want);
    tr.close(root);
    ok
}

fn traced_body(
    tr: &mut Tracer,
    unit: &str,
    root: usize,
    shape: &Shape,
    item: &Item,
    defs: &Defs,
    want: &str,
) -> bool {
    if let Op::Rung(i) = shape.op {
        // A rung is opaque: book the graph builds and explorations its
        // own spans recorded, leave the rest unattributed.
        let build0 = obs_span_ms("equiv.graph.build_sequential.us");
        let csr0 = obs_span_ms("equiv.graph.csr_freeze.us");
        let explore0 = obs_span_ms("semantics.explore.sequential.us");
        let start = tr.now_us();
        let ok = (bpi_encodings::glomers::ladder()[i].1)();
        let build = obs_span_ms("equiv.graph.build_sequential.us") - build0;
        let csr = obs_span_ms("equiv.graph.csr_freeze.us") - csr0;
        let explore = obs_span_ms("semantics.explore.sequential.us") - explore0;
        let b = tr.add(unit, "equiv.graph.build_ms", Some(root), start, build * 1e3);
        tr.add(unit, "equiv.graph.csr_freeze_ms", Some(b), start, csr * 1e3);
        tr.add(
            unit,
            "semantics.explore.ms",
            Some(root),
            start,
            explore * 1e3,
        );
        return ok && want == "true";
    }
    let parsed: Option<(P, P)> = tr.time(unit, "core.parser.ms", Some(root), || {
        Some((
            parse_process(&item.left).ok()?,
            parse_process(&item.right).ok()?,
        ))
    });
    let Some((p, q)) = parsed else {
        return false;
    };
    let csr0 = obs_span_ms("equiv.graph.csr_freeze.us");
    let build = tr.open(unit, "equiv.graph.build_ms", Some(root));
    let graphs = (|| {
        let opts = Opts::default();
        let pool = shared_pool(&p, &q, opts.fresh_inputs);
        let budget = Budget::unlimited();
        Some((
            Graph::build_cached(&p, defs, &pool, opts, &budget).ok()?,
            Graph::build_cached(&q, defs, &pool, opts, &budget).ok()?,
        ))
    })();
    tr.close(build);
    let csr = obs_span_ms("equiv.graph.csr_freeze.us") - csr0;
    let start = tr.spans[build].start_us;
    tr.add(
        unit,
        "equiv.graph.csr_freeze_ms",
        Some(build),
        start,
        csr * 1e3,
    );
    let Some((g1, g2)) = graphs else {
        return false;
    };
    let check = |tr: &mut Tracer, v: Variant| -> bool {
        if v.is_weak() {
            tr.time(unit, "semantics.weak.saturate_ms", Some(root), || {
                saturate(v, &g1);
                saturate(v, &g2);
            });
        }
        refine_span(tr, unit, root, v, &g1, &g2)
    };
    match shape.op {
        Op::Check(v) => check(tr, v).to_string() == want,
        Op::AllVariants => {
            let got: String = gen::ALL
                .iter()
                .map(|&v| if check(tr, v) { 't' } else { 'f' })
                .collect();
            got == want
        }
        Op::Distance(v) => {
            let d = tr.time(unit, "equiv.epsilon.ms", Some(root), || {
                epsilon_distance(v, &g1, &g2, DISTANCE_TOL)
            });
            format!("{d:?}") == want
        }
        Op::Rung(_) => unreachable!("handled above"),
    }
}

/// First-touch initialisation: one tiny fresh-named check per variant.
fn warm_up(defs: &Defs) {
    for (k, v) in gen::ALL.iter().enumerate() {
        let p = parse_process(&format!("tau.ws{k}a<>")).expect("warm-up term parses");
        let q = parse_process(&format!("ws{k}a<>")).expect("warm-up term parses");
        std::hint::black_box(Checker::new(defs).check(*v, &p, &q));
    }
}

/// Runs pass `k` in this process: set-up, then every item, timed. Returns
/// the document `perfbench corpus-pass` prints for [`run`] to read.
pub fn pass(seed: u64, k: usize, traced: bool) -> Result<Json, String> {
    let t = Instant::now();
    let shapes = corpus_catalogue();
    let expected = Expected::corpus();
    if expected.len() != shapes.len() {
        return Err(format!(
            "expected/corpus.txt pins {} shapes, the catalogue has {}",
            expected.len(),
            shapes.len()
        ));
    }
    let defs = parse_defs(DEFS).map_err(|e| e.to_string())?;
    let items = corpus_pass(&shapes, seed, k);
    warm_up(&defs);
    let setup_s = t.elapsed().as_secs_f64();

    if traced {
        bpi_obs::set_metrics_enabled(true);
    }
    let snap0 = bpi_obs::snapshot();
    let store0 = bpi_core::store::store_stats();
    let mut tr = Tracer::new();
    let mut timed = Vec::with_capacity(items.len());
    let mut failed = 0;
    let mut parse_bytes = 0;
    for item in &items {
        let shape = &shapes[item.shape];
        let want = expected
            .filled(&shape.key, &item.prefix)
            .unwrap_or_default();
        let t_item = Instant::now();
        let ok = if traced {
            run_item_traced(&mut tr, shape, item, &defs, &want)
        } else {
            run_item(shape, item, &defs, &want)
        };
        let ms = t_item.elapsed().as_secs_f64() * 1e3;
        timed.push(Json::Arr(vec![Json::num(item.shape as f64), Json::num(ms)]));
        parse_bytes += item.left.len() + item.right.len();
        if !ok {
            failed += 1;
            eprintln!(
                "check-corpus: {} ({}) did not match {want:?}",
                item.id, shape.key
            );
        }
    }

    let mut out = vec![
        ("setup_s", Json::num(setup_s)),
        ("rss_mb", Json::num(report::peak_rss_mb("self"))),
        ("failed", Json::num(failed as f64)),
        ("items", Json::Arr(timed)),
    ];
    if traced {
        let snap1 = bpi_obs::snapshot();
        let store1 = bpi_core::store::store_stats();
        let mut l = Layers::new();
        l.add_spans(&tr);
        store_counters(&mut l, store0, store1);
        engine_counters(&mut l, &|n| delta(&snap0, &snap1, n));
        l.add("core.parser.bytes", parse_bytes as f64);
        l.finish(tr.total_ms(), 1);
        out.push(("layers", l.to_json()));
        let spans = tr.spans.iter().enumerate().map(|(i, s)| s.to_json(i));
        out.push(("spans", Json::Arr(spans.collect())));
    }
    Ok(Json::obj(out))
}

/// One pass as its process reported it.
struct PassOut {
    setup_s: f64,
    rss_mb: f64,
    failed: usize,
    /// Catalogue entry and time in ms of every item, in run order.
    items: Vec<(usize, f64)>,
    layers: Option<Layers>,
    spans: Vec<Span>,
}

/// Runs [`pass`] `k` in a fresh harness process.
fn spawn_pass(seed: u64, k: usize, traced: bool) -> Result<PassOut, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["corpus-pass", &seed.to_string(), &k.to_string()])
        .arg(if traced { "1" } else { "0" })
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start pass {k}: {e}"))?;
    if !out.status.success() {
        return Err(format!("pass {k} failed: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let doc = json::parse(text.trim())?;
    let num = |key: &str| {
        doc.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("pass {k} reported no {key}"))
    };
    let list = |key: &str| match doc.get(key) {
        Some(Json::Arr(v)) => v.as_slice(),
        _ => &[],
    };
    let item = |doc: &Json| match doc {
        Json::Arr(v) => Some((v.first()?.as_f64()? as usize, v.get(1)?.as_f64()?)),
        _ => None,
    };
    Ok(PassOut {
        setup_s: num("setup_s")?,
        rss_mb: num("rss_mb")?,
        failed: num("failed")? as usize,
        items: list("items").iter().filter_map(item).collect(),
        layers: doc.get("layers").map(Layers::from_json).transpose()?,
        spans: list("spans")
            .iter()
            .map(Span::from_json)
            .collect::<Result<_, _>>()?,
    })
}

pub fn run(run: &Run) -> Result<(), String> {
    let mut tr = Tracer::new();
    let mut passes: Vec<PassOut> = Vec::new();
    let t_all = Instant::now();
    loop {
        let start_us = tr.now_us();
        let mut p = spawn_pass(run.seed, passes.len(), run.traced)?;
        tr.absorb(std::mem::take(&mut p.spans), start_us);
        passes.push(p);
        if run.done(t_all.elapsed().as_secs_f64()) {
            break;
        }
    }

    let failed: usize = passes.iter().map(|m| m.failed).sum();
    let items: usize = passes.iter().map(|m| m.items.len()).sum();
    // Each catalogue entry's best time over the run's passes. An entry
    // runs once a pass, a few seconds apart, so the host's contention
    // slows some of its runs but seldom all of them.
    let mut best: BTreeMap<usize, f64> = BTreeMap::new();
    for &(entry, ms) in passes.iter().flat_map(|m| &m.items) {
        let b = best.entry(entry).or_insert(f64::INFINITY);
        *b = b.min(ms);
    }
    let lat: Vec<f64> = best.into_values().collect();
    let n = lat.len();
    let tail_q = report::tail_quantile(n, 95);
    let throughput = n as f64 * 1e3 / lat.iter().sum::<f64>();
    let p50 = report::median(&lat);
    let tail = report::percentile(&lat, tail_q);
    let all_ms: f64 = passes
        .iter()
        .flat_map(|m| &m.items)
        .map(|&(_, ms)| ms)
        .sum();
    let detail = vec![
        ("checks_per_s", throughput),
        ("check_p50_ms", p50),
        (
            if tail_q == 95.0 {
                "check_p95_ms"
            } else {
                "check_tail_ms"
            },
            tail,
        ),
        ("items", items as f64),
        ("passes", passes.len() as f64),
        ("entries", n as f64),
        ("total_ms_per_pass", all_ms / passes.len() as f64),
    ];

    let per_pass: Vec<Layers> = passes.iter_mut().filter_map(|p| p.layers.take()).collect();
    let layers = run.traced.then(|| Layers::mean(&per_pass));
    let setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    let rss: Vec<f64> = passes.iter().map(|p| p.rss_mb).collect();
    run.report(
        items,
        failed,
        crate::EndToEnd {
            setup_s: report::median(&setups),
            throughput_per_s: throughput,
            p50_ms: p50,
            tail_ms: tail,
            tail_quantile: tail_q,
            samples: n,
            peak_rss_mb: report::median(&rss),
        },
        detail,
        layers,
        &tr,
    )
}

/// Counter deltas between two `bpi-obs` snapshots.
fn delta(a: &bpi_obs::MetricsSnapshot, b: &bpi_obs::MetricsSnapshot, name: &str) -> f64 {
    let get = |s: &bpi_obs::MetricsSnapshot| s.counters.get(name).map(|(_, v)| *v).unwrap_or(0);
    get(b).saturating_sub(get(a)) as f64
}

/// Interner counters between two `bpi_core::store::store_stats()` readings.
pub fn store_counters(l: &mut Layers, store0: (u64, u64, u64), store1: (u64, u64, u64)) {
    let hits = (store1.0 - store0.0 + store1.1 - store0.1) as f64;
    let misses = (store1.2 - store0.2) as f64;
    l.add("core.store.misses", misses);
    l.add("core.store.hit_ratio", ratio(hits, misses));
}

/// Counters that both `bpi_obs::snapshot()` and the daemon's `stats`
/// export, read through `d(name)` as deltas.
pub fn engine_counters(l: &mut Layers, d: &dyn Fn(&str) -> f64) {
    l.add(
        "semantics.cache.step_misses",
        d("semantics.memo.step.misses"),
    );
    l.add(
        "semantics.cache.step_hit_ratio",
        ratio(
            d("semantics.memo.step.hits"),
            d("semantics.memo.step.misses"),
        ),
    );
    l.add("equiv.graph.states", d("equiv.graph.states"));
    l.add("equiv.graph.edges", d("equiv.graph.edges"));
    l.add(
        "equiv.graph.memo_hit_ratio",
        ratio(d("equiv.graph.memo.hits"), d("equiv.graph.memo.misses")),
    );
    l.add(
        "semantics.weak.misses",
        d("semantics.weak.saturation.misses"),
    );
    l.add("equiv.partition.rounds", d("equiv.partition.rounds"));
    l.add("equiv.partition.splits", d("equiv.partition.splits"));
    l.add("equiv.partition.blocks", d("equiv.partition.blocks"));
    l.add("equiv.bisim.pairs", d("equiv.refine.pairs"));
    l.add(
        "equiv.bisim.rounds",
        d("equiv.refine.naive.sweeps") + d("equiv.refine.budgeted.rounds"),
    );
    l.add(
        "equiv.bisim.survivor_ratio",
        if d("equiv.refine.pairs") > 0.0 {
            d("equiv.refine.survivors") / d("equiv.refine.pairs")
        } else {
            0.0
        },
    );
    l.add("equiv.epsilon.pops", d("equiv.epsilon.pops"));
    l.add("equiv.epsilon.runs", d("equiv.epsilon.runs"));
    l.add("equiv.compose.states", d("equiv.compose.states"));
    l.add("equiv.compose.classes", d("equiv.compose.classes"));
    l.add("semantics.explore.states", d("semantics.explore.states"));
    l.add("semantics.prob.samples", d("semantics.prob.samples"));
}
