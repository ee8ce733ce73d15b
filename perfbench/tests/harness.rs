//! The benchmark's own checks: seeded inputs are reproducible, pinned
//! expectations cover the catalogues, deterministic counters repeat
//! between traced runs, and layer times add up to the traced total.

use bpi_server::{json, Json};
use perfbench::expect::Expected;
use perfbench::gen::{
    corpus_catalogue, corpus_pass, corpus_text, job_catalogue, job_pass, jobs_text, parked_jobs,
};
use perfbench::report::{self, ADDITIVE, PER_LAYER};
use perfbench::trace::ROOT;
use std::path::Path;
use std::process::Command;

#[test]
fn same_seed_gives_identical_inputs_and_another_seed_changes_them() {
    let corpus = corpus_catalogue();
    let jobs = job_catalogue();
    for pass in 0..2 {
        let a = corpus_text(&corpus_pass(&corpus, 7, pass));
        assert_eq!(a, corpus_text(&corpus_pass(&corpus, 7, pass)));
        assert_ne!(a, corpus_text(&corpus_pass(&corpus, 8, pass)));
        let a = jobs_text(&job_pass(&jobs, 7, pass));
        assert_eq!(a, jobs_text(&job_pass(&jobs, 7, pass)));
        assert_ne!(a, jobs_text(&job_pass(&jobs, 8, pass)));
    }
    assert_eq!(
        jobs_text(&parked_jobs(&jobs, 7)),
        jobs_text(&parked_jobs(&jobs, 7))
    );
    assert_ne!(
        jobs_text(&parked_jobs(&jobs, 7)),
        jobs_text(&parked_jobs(&jobs, 8))
    );
}

#[test]
fn a_pass_is_the_same_multiset_of_work_under_every_seed() {
    // First occurrences are the same multiset under every seed; repeats
    // are a fixed number per class, of seeded sources.
    let jobs = job_catalogue();
    let shapes = |seed| {
        let pass = job_pass(&jobs, seed, 1);
        let mut firsts: Vec<usize> = pass.iter().filter(|j| !j.repeat).map(|j| j.shape).collect();
        firsts.sort();
        let mut classes: Vec<String> = pass
            .iter()
            .filter(|j| j.repeat)
            .map(|j| format!("{:?}", jobs[j.shape].class))
            .collect();
        classes.sort();
        (firsts, classes)
    };
    assert_eq!(shapes(1), shapes(2));
    let repeats = job_pass(&jobs, 1, 0).iter().filter(|j| j.repeat).count();
    let total = job_pass(&jobs, 1, 0).len();
    assert!(
        (0.2..0.3).contains(&(repeats as f64 / total as f64)),
        "{repeats}/{total} repeats"
    );
}

#[test]
fn pinned_expectations_cover_every_catalogue_entry() {
    let corpus = Expected::corpus();
    for s in corpus_catalogue() {
        assert!(
            corpus.filled(&s.key, "x").is_some(),
            "corpus shape {} is not pinned",
            s.key
        );
    }
    let jobs = Expected::jobs();
    for s in job_catalogue() {
        assert!(
            jobs.filled(&s.key, "x").is_some(),
            "job shape {} is not pinned",
            s.key
        );
    }
}

#[test]
fn tail_percentiles_keep_ten_samples_beyond() {
    assert_eq!(report::tail_quantile(1000, 99), 99.0);
    assert_eq!(report::tail_quantile(999, 99), 95.0);
    assert_eq!(report::tail_quantile(5000, 95), 95.0);
    assert_eq!(report::tail_quantile(200, 95), 95.0);
    assert_eq!(report::tail_quantile(100, 99), 90.0);
    assert_eq!(report::percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
    // Timed passes: the fastest quarter, widened until the tail is covered.
    let walls = [3.0, 1.0, 2.0, 4.0, 5.0];
    assert_eq!(report::fastest_passes(&walls, &[300; 5], 95), vec![1, 2]);
    assert_eq!(
        report::fastest_passes(&walls, &[300; 5], 99),
        vec![1, 2, 0, 3]
    );
    assert_eq!(report::fastest_passes(&walls[..1], &[10], 99), vec![0]);
}

/// Runs one traced pass (restart for `serve-recover`) of the harness
/// binary and returns its detail and result lines.
fn run(workload: &str) -> (Json, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0",
            "--trace",
            "1",
        ])
        .output()
        .expect("harness runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<&str> = text.lines().collect();
    let [.., detail, result] = lines[..] else {
        panic!("expected a detail and a result line, got {text:?}");
    };
    (
        json::parse(detail).expect("detail JSON"),
        json::parse(result).expect("result JSON"),
    )
}

fn value(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

/// Counters the program registers as deterministic, under their
/// per-layer names.
const DETERMINISTIC: [&str; 10] = [
    "equiv.graph.states",
    "equiv.graph.edges",
    "equiv.partition.rounds",
    "equiv.partition.splits",
    "equiv.partition.blocks",
    "equiv.bisim.pairs",
    "equiv.epsilon.runs",
    "semantics.explore.states",
    "semantics.prob.samples",
    "core.parser.bytes",
];

/// Root totals read back from the span file a traced run wrote: the
/// roots' summed duration, their self time (duration less their direct
/// children's) in ms, and the number of spans.
fn spans_from_file(detail: &Json) -> (f64, f64, usize) {
    let path = detail
        .str_field("trace_file")
        .expect("traced detail names its span file");
    let text = std::fs::read_to_string(path).expect("span file is readable");
    let spans: Vec<Json> = text
        .lines()
        .map(|l| json::parse(l).expect("span JSON"))
        .collect();
    let num = |s: &Json, k: &str| s.get(k).and_then(Json::as_f64);
    let root_ids: std::collections::HashSet<u64> = spans
        .iter()
        .filter(|s| num(s, "parent").is_none())
        .map(|s| num(s, "id").expect("span id") as u64)
        .collect();
    let (mut total_us, mut child_us) = (0.0, 0.0);
    for s in &spans {
        let layer = s.str_field("layer").expect("span layer");
        assert!(
            layer == ROOT || ADDITIVE.contains(&layer),
            "span layer {layer} is not in report::ADDITIVE"
        );
        let dur = num(s, "dur_us").expect("span duration");
        match num(s, "parent") {
            None => total_us += dur,
            Some(p) if root_ids.contains(&(p as u64)) => child_us += dur,
            Some(_) => {}
        }
    }
    (total_us / 1e3, (total_us - child_us) / 1e3, spans.len())
}

fn check_traced(workload: &str) {
    let (detail, a) = run(workload);
    let a_spans = spans_from_file(&detail);
    let (detail_b, b) = run(workload);
    let b_spans = spans_from_file(&detail_b);
    assert_eq!(
        a.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{detail}"
    );
    for name in DETERMINISTIC {
        assert_eq!(
            value(&a, name),
            value(&b, name),
            "{workload}: {name} differs between traced runs"
        );
    }
    for (r, (file_total, file_root_self, n_spans)) in [(&a, a_spans), (&b, b_spans)] {
        for (name, _) in PER_LAYER {
            value(r, name);
        }
        let units = value(r, "traced_units");
        let total = value(r, "traced_total_ms");
        // The span file rounds each duration to a whole microsecond.
        let tol = 1e-6 * total.max(1.0) + 1e-3 * n_spans as f64 / units;
        assert!(
            (total - file_total / units).abs() <= tol,
            "{workload}: traced total {total}, span file {}",
            file_total / units
        );
        // Root self time is unattributed, except what serve-mixed carves
        // out of it as protocol overhead and queueing.
        let root_self = value(r, "unattributed_ms")
            + value(r, "server.rtt_overhead_ms")
            + value(r, "server.scheduler.queue_wait_ms");
        assert!(
            (root_self - file_root_self / units).abs() <= tol,
            "{workload}: root self time {root_self}, span file {}",
            file_root_self / units
        );
        let sum: f64 =
            ADDITIVE.iter().map(|n| value(r, n)).sum::<f64>() + value(r, "unattributed_ms");
        assert!(
            (sum - total).abs() <= 1e-6 * total.max(1.0),
            "{workload}: layers + unattributed = {sum}, traced total = {total}"
        );
    }
}

#[test]
fn check_corpus_traced_runs_repeat_and_add_up() {
    check_traced("check-corpus");
}

/// The daemon workloads run the `bpi-server` binary from the harness's
/// own directory; `perfbench/test.sh` builds it there.
fn require_daemon() {
    let exe = Path::new(env!("CARGO_BIN_EXE_perfbench"));
    let daemon = exe.with_file_name("bpi-server");
    assert!(
        daemon.exists(),
        "{} is missing: run the tests with `bash perfbench/test.sh`, which builds it",
        daemon.display()
    );
}

#[test]
fn serve_mixed_traced_runs_repeat_and_add_up() {
    require_daemon();
    check_traced("serve-mixed");
}

#[test]
fn serve_recover_traced_runs_repeat_and_add_up() {
    require_daemon();
    check_traced("serve-recover");
}
