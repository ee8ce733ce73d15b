//! Metric names, summary statistics, the result line and the host
//! fingerprint.

use crate::trace::Tracer;
use bpi_server::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// End-to-end metrics, reported by every untraced run. Each workload
/// gives them its own meaning (see `perfbench/README.md`).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "ratio"),
];

/// Per-layer metrics, reported by every traced run (0 where a workload
/// does not reach the layer). Values are per pass (`check-corpus`,
/// `serve-mixed`) or per restart (`serve-recover`).
pub const PER_LAYER: [(&str, &str); 53] = [
    ("core.parser.ms", "ms"),
    ("core.parser.bytes", "bytes"),
    ("core.store.misses", "count"),
    ("core.store.hit_ratio", "ratio"),
    ("semantics.cache.step_misses", "count"),
    ("semantics.cache.step_hit_ratio", "ratio"),
    ("equiv.graph.build_ms", "ms"),
    ("equiv.graph.csr_freeze_ms", "ms"),
    ("equiv.graph.states", "count"),
    ("equiv.graph.edges", "count"),
    ("equiv.graph.memo_hit_ratio", "ratio"),
    ("semantics.weak.saturate_ms", "ms"),
    ("semantics.weak.misses", "count"),
    ("equiv.partition.refine_ms", "ms"),
    ("equiv.partition.rounds", "count"),
    ("equiv.partition.splits", "count"),
    ("equiv.partition.blocks", "count"),
    ("equiv.bisim.refine_ms", "ms"),
    ("equiv.bisim.pairs", "count"),
    ("equiv.bisim.rounds", "count"),
    ("equiv.bisim.survivor_ratio", "ratio"),
    ("equiv.epsilon.ms", "ms"),
    ("equiv.epsilon.pops", "count"),
    ("equiv.epsilon.runs", "count"),
    ("equiv.compose.states", "count"),
    ("equiv.compose.classes", "count"),
    ("equiv.checkpoint.slice_ms", "ms"),
    ("equiv.checkpoint.saves", "count"),
    ("equiv.checkpoint.bytes", "bytes"),
    ("equiv.checkpoint.encode_ms", "ms"),
    ("equiv.checkpoint.decode_ms", "ms"),
    ("equiv.distinguish.ms", "ms"),
    ("semantics.explore.ms", "ms"),
    ("semantics.explore.states", "count"),
    ("semantics.prob.ms", "ms"),
    ("semantics.prob.samples", "count"),
    ("server.rtt_overhead_ms", "ms"),
    ("server.request_bytes", "bytes"),
    ("server.scheduler.queue_wait_ms", "ms"),
    ("server.scheduler.slices_per_job", "count"),
    ("server.scheduler.preempted", "count"),
    ("server.scheduler.rejected", "count"),
    ("server.store.parse_hit_ratio", "ratio"),
    ("server.journal.appends", "count"),
    ("server.journal.append_ms", "ms"),
    ("server.journal.bytes", "bytes"),
    ("server.journal.replay_ms", "ms"),
    ("server.journal.records", "count"),
    ("server.recover.listen_ms", "ms"),
    ("server.recover.resume_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("traced_total_ms", "ms"),
    ("traced_units", "count"),
];

/// Layer self times that partition the traced total: together with
/// `unattributed_ms` they sum to `traced_total_ms`. Every span layer
/// belongs here, and so do the serve-mixed estimates carved out of the
/// root spans' self time (`server.rtt_overhead_ms`,
/// `server.scheduler.queue_wait_ms`). The other `_ms` metrics are phase
/// wall times that contain layer times.
pub const ADDITIVE: [&str; 17] = [
    "core.parser.ms",
    "equiv.graph.build_ms",
    "equiv.graph.csr_freeze_ms",
    "semantics.weak.saturate_ms",
    "equiv.partition.refine_ms",
    "equiv.bisim.refine_ms",
    "equiv.epsilon.ms",
    "equiv.checkpoint.slice_ms",
    "equiv.checkpoint.encode_ms",
    "equiv.checkpoint.decode_ms",
    "equiv.distinguish.ms",
    "semantics.explore.ms",
    "semantics.prob.ms",
    "server.rtt_overhead_ms",
    "server.scheduler.queue_wait_ms",
    "server.journal.append_ms",
    "server.journal.replay_ms",
];

/// The `PER_LAYER` name equal to `name`.
pub fn layer_name(name: &str) -> Option<&'static str> {
    PER_LAYER.iter().map(|(n, _)| *n).find(|n| *n == name)
}

/// Per-layer values of one traced run, keyed by `PER_LAYER` name.
#[derive(Debug, Default)]
pub struct Layers(pub BTreeMap<&'static str, f64>);

impl Layers {
    pub fn new() -> Layers {
        Layers(PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect())
    }

    pub fn add(&mut self, name: &str, v: f64) {
        let slot = self
            .0
            .iter_mut()
            .find(|(k, _)| **k == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        *slot.1 += v;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Adds every span layer's self time; the root spans' self time goes
    /// to `unattributed_ms`.
    pub fn add_spans(&mut self, tr: &Tracer) {
        for (name, ms) in tr.self_ms() {
            self.add(name, ms);
        }
    }

    /// The per-pass mean of passes each finished over one pass (ratios
    /// too), with `traced_units` the number of passes.
    pub fn mean(all: &[Layers]) -> Layers {
        let mut out = Layers::new();
        for l in all {
            for (name, v) in &l.0 {
                out.add(name, v / all.len() as f64);
            }
        }
        out.0.insert("traced_units", all.len() as f64);
        out
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(k, v)| (k.to_string(), Json::num(*v)))
                .collect(),
        )
    }

    pub fn from_json(doc: &Json) -> Result<Layers, String> {
        let Json::Obj(fields) = doc else {
            return Err("per-layer values are not an object".into());
        };
        let mut l = Layers::new();
        for (k, v) in fields {
            let name = layer_name(k).ok_or_else(|| format!("unknown per-layer metric {k}"))?;
            let v = v.as_f64().ok_or_else(|| format!("{k} is not a number"))?;
            l.0.insert(name, v);
        }
        Ok(l)
    }

    /// Sets `traced_total_ms`, then divides every value but ratios and
    /// means by `units` (passes or restarts).
    pub fn finish(&mut self, total_ms: f64, units: usize) {
        self.add("traced_total_ms", total_ms);
        let units = units.max(1) as f64;
        for (name, v) in self.0.iter_mut() {
            if !name.ends_with("ratio") && !name.ends_with("_per_job") {
                *v /= units;
            }
        }
        self.add("traced_units", units);
    }
}

pub fn ratio(hits: f64, misses: f64) -> f64 {
    if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    }
}

/// Nearest-rank percentile of unsorted samples (`q` in 0..=100).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Indices of the passes a run's timings are taken over: the fastest
/// quarter by wall time, and more of the fastest while fewer than ten
/// samples would lie beyond the `tail` percentile. Pass `k` holds
/// `sizes[k]` samples.
///
/// The host's speed drifts by tens of percent within minutes as other
/// tenants come and go, and contention only ever slows a pass down, so
/// the fastest passes estimate what the program costs far more steadily
/// than all of them.
pub fn fastest_passes(walls: &[f64], sizes: &[usize], tail: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..walls.len()).collect();
    order.sort_by(|&a, &b| walls[a].total_cmp(&walls[b]));
    let quarter = walls.len().div_ceil(4);
    let tail_samples = 1000 / (100 - tail);
    let mut taken = Vec::new();
    let mut n = 0;
    for k in order {
        if taken.len() >= quarter && n >= tail_samples {
            break;
        }
        n += sizes[k];
        taken.push(k);
    }
    taken
}

/// The highest of `preferred`, p95 and p90 (not above `preferred`) with
/// at least ten samples beyond it.
pub fn tail_quantile(n: usize, preferred: usize) -> f64 {
    // Nearest rank of percentile q is ceil(q·n/100); count what lies above.
    [99, 95, 90]
        .into_iter()
        .filter(|&q| q <= preferred)
        .find(|q| n - (q * n).div_ceil(100) >= 10)
        .unwrap_or(50) as f64
}

/// Layers a traced run cannot see from outside the program, and what it
/// reports instead.
pub const UNREACHED: [&str; 4] = [
    "server.scheduler.queue_wait_ms below 1 ms: the daemon's latency and slice histograms count whole milliseconds",
    "core.store inside the daemon: stats does not export the interner, so the in-process replay's counts stand in",
    "semantics.weak: the checker saturates through Graph closures, so the Weak saturation counter stays 0",
    "equiv.compose: opt-in (BPI_COMPOSE), so its counters stay 0 under the default configuration",
];

/// One run's outcome, printed as the last line of stdout.
pub struct RunResult {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    pub fn line(&self) -> String {
        let metrics = Json::Obj(
            self.metrics
                .iter()
                .map(|(n, v, u)| {
                    (
                        n.clone(),
                        Json::obj(vec![
                            ("value", Json::num(*v)),
                            ("unit", Json::str(u.as_str())),
                        ]),
                    )
                })
                .collect(),
        );
        Json::obj(vec![
            (
                "correct",
                Json::Bool(self.failed == 0 && self.attempted > 0),
            ),
            ("attempted", Json::num(self.attempted as f64)),
            ("failed", Json::num(self.failed as f64)),
            ("metrics", metrics),
        ])
        .to_string()
    }
}

/// A field of `/proc/<pid>/status` in kB (`pid` may be `self`).
pub fn proc_status_kb(pid: &str, field: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with(&format!("{field}:")))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

pub fn peak_rss_mb(pid: &str) -> f64 {
    proc_status_kb(pid, "VmHWM").unwrap_or(0.0) / 1024.0
}

/// Removes every `BPI_*` variable from this process's environment (child
/// processes inherit the cleared environment) and returns their names.
pub fn clear_knobs() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("BPI_"))
        .collect();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`.
pub fn fs_type(path: &Path) -> String {
    let Ok(abs) = std::fs::canonicalize(path) else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() >= 3 && abs.starts_with(f[1])).then(|| (f[1].len(), f[2].to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, t)| t)
        .unwrap_or_else(|| "unknown".into())
}

/// Host fingerprint recorded with every result.
pub fn fingerprint(work_dir: &Path) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    Json::obj(vec![
        ("nproc", Json::num(nproc as f64)),
        ("cpu", Json::str(cpu)),
        ("kernel", Json::str(kernel)),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        ("work_fs", Json::str(fs_type(work_dir))),
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}
