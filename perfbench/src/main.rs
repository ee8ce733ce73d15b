//! Benchmark command line.
//!
//! ```text
//! perfbench --workload check-corpus|serve-mixed|serve-recover
//!           --seed N --seconds S --trace 0|1
//! perfbench pin     # rewrite perfbench/expected/*.txt from reference engines
//! perfbench corpus-pass SEED PASS 0|1   # one check-corpus pass, in this process
//! ```
//!
//! Run it through `perfbench/run.sh` from the repository root, which
//! builds the daemon and this harness first.

use perfbench::{corpus, expect, report, serve, Run};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload check-corpus|serve-mixed|serve-recover \
         --seed N --seconds S --trace 0|1\n       perfbench pin\n       \
         perfbench corpus-pass SEED PASS 0|1"
    );
    ExitCode::from(2)
}

fn pin() -> Result<(), String> {
    let dir = PathBuf::from("perfbench/expected");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    std::fs::write(dir.join("corpus.txt"), expect::pin_corpus()).map_err(|e| e.to_string())?;
    std::fs::write(dir.join("jobs.txt"), expect::pin_jobs()).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let cleared_knobs = report::clear_knobs();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("pin") => {
            return match pin() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench pin: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Some("corpus-pass") => {
            let arg = |i: usize| args.get(i).and_then(|s| s.parse::<u64>().ok());
            let (Some(seed), Some(k), Some(trace)) = (arg(1), arg(2), arg(3)) else {
                return usage();
            };
            return match corpus::pass(seed, k as usize, trace == 1) {
                Ok(doc) => {
                    println!("{doc}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench corpus-pass: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        _ => {}
    }
    let mut flags = std::collections::HashMap::new();
    for pair in args.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(k.trim_start_matches("--").to_string(), v.clone());
            }
            _ => return usage(),
        }
    }
    let num = |k: &str| flags.get(k).and_then(|v| v.parse::<u64>().ok());
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
        flags.get("workload").cloned(),
        num("seed"),
        num("seconds"),
        num("trace"),
    ) else {
        return usage();
    };
    // The harness and the daemon binary sit side by side in the build
    // directory; scratch and trace output go next to them.
    let exe = std::env::current_exe().expect("own executable path");
    let bin_dir = exe
        .parent()
        .expect("executable has a directory")
        .to_path_buf();
    let build_dir = bin_dir.parent().unwrap_or(&bin_dir).to_path_buf();
    let run = Run {
        seed,
        seconds: seconds as f64,
        traced: trace == 1,
        work_dir: build_dir.join(format!("perfbench-work/{workload}-{}", std::process::id())),
        out_dir: build_dir.join("perfbench-out"),
        server_bin: bin_dir.join("bpi-server"),
        cleared_knobs,
        workload,
    };
    if let Err(e) = std::fs::create_dir_all(&run.work_dir) {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    let outcome = match run.workload.as_str() {
        "check-corpus" => corpus::run(&run),
        "serve-mixed" => serve::run_mixed(&run),
        "serve-recover" => serve::run_recover(&run),
        _ => Err(format!("unknown workload {:?}", run.workload)),
    };
    let _ = std::fs::remove_dir_all(&run.work_dir);
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
