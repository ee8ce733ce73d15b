//! End-to-end and per-layer benchmark of the bπ checker.
//!
//! Three workloads, each a pure function of `--seed`:
//!
//! * `check-corpus` ([`corpus`]) — the library path, in-process;
//! * `serve-mixed` ([`serve::run_mixed`]) — the `bpi-server` daemon
//!   under a closed-loop job mix over two connections;
//! * `serve-recover` ([`serve::run_recover`]) — daemon restarts on a
//!   journal with completed verdicts and parked in-flight checks.
//!
//! Untraced runs print the end-to-end metrics ([`report::END_TO_END`]);
//! a traced run prints the per-layer metrics ([`report::PER_LAYER`]).
//! Every outcome is compared with the pinned expectations in
//! `expected/`; a mismatch counts as a failed operation.

pub mod corpus;
pub mod exec;
pub mod expect;
pub mod gen;
pub mod report;
pub mod rng;
pub mod serve;
pub mod trace;

use bpi_server::Json;
use report::{Layers, RunResult};
use std::path::PathBuf;

/// One invocation's settings.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Scratch space for journals, removed when the run ends.
    pub work_dir: PathBuf,
    /// Where traced runs write their spans.
    pub out_dir: PathBuf,
    pub server_bin: PathBuf,
    /// `BPI_*` variables removed from the environment at start.
    pub cleared_knobs: Vec<String>,
}

/// A workload's end-to-end figures. The timings come from each catalogue
/// entry's best time over the run (`check-corpus`) or from the run's
/// fastest passes ([`report::fastest_passes`]).
pub struct EndToEnd {
    pub setup_s: f64,
    pub throughput_per_s: f64,
    pub p50_ms: f64,
    pub tail_ms: f64,
    /// The percentile `tail_ms` reports.
    pub tail_quantile: f64,
    /// Samples `p50_ms` and `tail_ms` are taken over.
    pub samples: usize,
    pub peak_rss_mb: f64,
}

impl Run {
    /// Whether the measured loop should stop after whole passes taking
    /// `elapsed_s`; `--seconds 0` stops after exactly one.
    pub fn done(&self, elapsed_s: f64) -> bool {
        elapsed_s >= self.seconds
    }

    /// Prints a detail line (sample counts, workload-named metrics, host
    /// fingerprint, cleared knobs) and then the result line; a traced run
    /// also writes its spans to `out_dir`.
    #[allow(clippy::too_many_arguments)]
    pub fn report(
        &self,
        attempted: usize,
        failed: usize,
        e2e: EndToEnd,
        named: Vec<(&str, f64)>,
        layers: Option<Layers>,
        tr: &trace::Tracer,
    ) -> Result<(), String> {
        let failed_share = if attempted > 0 {
            failed as f64 / attempted as f64
        } else {
            1.0
        };
        let mut detail = vec![
            ("workload", Json::str(self.workload.as_str())),
            ("seed", Json::num(self.seed as f64)),
            ("traced", Json::Bool(self.traced)),
            ("attempted", Json::num(attempted as f64)),
            ("samples", Json::num(e2e.samples as f64)),
            ("tail_percentile", Json::num(e2e.tail_quantile)),
            ("failed_share", Json::num(failed_share)),
            (
                "named",
                Json::Obj(
                    named
                        .iter()
                        .map(|(k, v)| (k.to_string(), Json::num(*v)))
                        .collect(),
                ),
            ),
            (
                "cleared_knobs",
                Json::Arr(
                    self.cleared_knobs
                        .iter()
                        .map(|k| Json::str(k.as_str()))
                        .collect(),
                ),
            ),
            ("default_config", Json::Bool(true)),
            ("host", report::fingerprint(&self.work_dir)),
        ];
        if self.traced {
            std::fs::create_dir_all(&self.out_dir).map_err(|e| e.to_string())?;
            let path = self
                .out_dir
                .join(format!("trace-{}-{}.jsonl", self.workload, self.seed));
            std::fs::write(&path, tr.jsonl()).map_err(|e| e.to_string())?;
            detail.push(("trace_file", Json::str(path.display().to_string())));
            let unreached = report::UNREACHED.iter().map(|s| Json::str(*s)).collect();
            detail.push(("unreached", Json::Arr(unreached)));
        }
        println!("{}", Json::obj(detail));
        let metrics = match layers {
            Some(l) => report::PER_LAYER
                .iter()
                .map(|(n, u)| (n.to_string(), l.get(n), u.to_string()))
                .collect(),
            None => {
                let values = [
                    e2e.setup_s,
                    e2e.throughput_per_s,
                    e2e.p50_ms,
                    e2e.tail_ms,
                    e2e.peak_rss_mb,
                    1.0 - failed_share,
                ];
                report::END_TO_END
                    .iter()
                    .zip(values)
                    .map(|((n, u), v)| (n.to_string(), v, u.to_string()))
                    .collect()
            }
        };
        let result = RunResult {
            attempted,
            failed,
            metrics,
        };
        println!("{}", result.line());
        Ok(())
    }
}
