//! Shared machinery for the crash-recovery integration tests: spawning
//! the real `bpi-server` binary, a deterministic job vocabulary, and
//! verdict collection.

#![allow(dead_code)] // each test target uses a different subset

use bpi_server::{Client, Json};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

pub const BIN: &str = env!("CARGO_BIN_EXE_bpi-server");
pub const FWD_DEFS: &str = "Fwd(a,b) = a(x).b<x>.Fwd<a,b>;";

pub fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "bpi-kill-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A daemon child process that is killed on drop, so a failing
/// assertion never leaks a listener.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
}

impl Daemon {
    pub fn spawn(journal: &Path) -> Daemon {
        let mut child = Command::new(BIN)
            .arg("--journal")
            .arg(journal)
            .args(["--workers", "1", "--fuel", "8", "--queue-cap", "64"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn bpi-server");
        let stdout = child.stdout.take().expect("child stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read LISTENING line");
        let addr = line
            .trim()
            .strip_prefix("LISTENING ")
            .unwrap_or_else(|| panic!("unexpected banner {line:?}"))
            .parse()
            .expect("parse daemon address");
        Daemon { child, addr }
    }

    /// SIGKILL — no drain, no flush beyond what the journal already
    /// forced to disk. The whole point of these tests.
    pub fn kill9(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.child = zombie();
    }

    pub fn graceful(mut self) {
        if let Ok(mut c) = Client::connect(self.addr) {
            let _ = c.shutdown();
        }
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(10) {
            if self.child.try_wait().expect("try_wait").is_some() {
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Placeholder child so `kill9` can consume the real one while `Drop`
/// stays simple: an already-reaped `true` process.
fn zombie() -> Child {
    let mut c = Command::new("true").spawn().expect("spawn true");
    let _ = c.wait();
    c
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[derive(Clone, Debug)]
pub enum JobSpec {
    Check {
        variant: &'static str,
        left: &'static str,
        right: &'static str,
    },
    Reliability {
        src: &'static str,
        watch: &'static str,
        loss: f64,
        seed: u64,
    },
    Explore {
        src: &'static str,
        max_states: usize,
    },
}

pub fn submit(c: &mut Client, id: &str, spec: &JobSpec) -> std::io::Result<Json> {
    match spec {
        JobSpec::Check {
            variant,
            left,
            right,
        } => c.check(id, "s", variant, left, right, "normal", None),
        JobSpec::Reliability {
            src,
            watch,
            loss,
            seed,
        } => c.reliability(id, "s", src, watch, *loss, *seed, 20, 512),
        JobSpec::Explore { src, max_states } => c.explore(id, "s", src, *max_states),
    }
}

pub fn is_settled(r: &Json) -> bool {
    !matches!(r.str_field("status"), Some("pending") | None)
        && r.str_field("error") != Some("unknown-id")
}

pub fn count_done(addr: SocketAddr, ids: &[String]) -> usize {
    let Ok(mut c) = Client::connect(addr) else {
        return 0;
    };
    ids.iter()
        .filter(|id| matches!(c.result_of(id), Ok(r) if is_settled(&r)))
        .count()
}

/// Collects the full verdict vector, waiting out any still-running
/// recovered jobs.
pub fn collect(addr: SocketAddr, ids: &[String]) -> Vec<String> {
    let mut c = Client::connect(addr).expect("connect for collection");
    ids.iter()
        .map(|id| {
            let r = c
                .wait_result(id, Duration::from_secs(60))
                .expect("wait_result");
            assert!(is_settled(&r), "job {id} never settled: {r}");
            r.to_string()
        })
        .collect()
}

/// The daemon's `server.preempted` count: slices that parked.
fn preempted(c: &mut Client) -> usize {
    let s = c.stats().expect("stats");
    let counters = s.get("counters").expect("counters");
    counters
        .get("server.preempted")
        .and_then(Json::as_usize)
        .unwrap_or(0)
}

/// Runs the workload start-to-finish with no crash, one job at a time,
/// and returns the verdict vector and how many times each job parked.
pub fn run_baseline(ids_specs: &[(String, JobSpec)]) -> (Vec<String>, Vec<usize>) {
    let dir = tmpdir("baseline");
    let d = Daemon::spawn(&dir);
    let mut c = Client::connect(d.addr).expect("connect baseline");
    let r = c.defs("s", FWD_DEFS).expect("defs");
    assert_eq!(r.str_field("status"), Some("ok"), "{r}");
    let mut parks = Vec::new();
    for (id, spec) in ids_specs {
        let before = preempted(&mut c);
        let r = submit(&mut c, id, spec).expect("baseline submit");
        assert!(is_settled(&r), "baseline job {id}: {r}");
        parks.push(preempted(&mut c) - before);
    }
    let ids: Vec<String> = ids_specs.iter().map(|(i, _)| i.clone()).collect();
    let out = collect(d.addr, &ids);
    d.graceful();
    let _ = std::fs::remove_dir_all(&dir);
    (out, parks)
}

/// Submits the whole workload concurrently and blocks until every job
/// is at least journal-admitted (visible as pending or settled). The
/// submitter threads are left running — the daemon may be killed under
/// them — and returned for joining after the kill.
pub fn submit_all_visible(
    addr: SocketAddr,
    ids_specs: &[(String, JobSpec)],
    deadline: Instant,
) -> Vec<std::thread::JoinHandle<()>> {
    {
        let mut c = Client::connect(addr).expect("connect for defs");
        let r = c.defs("s", FWD_DEFS).expect("defs");
        assert_eq!(r.str_field("status"), Some("ok"), "{r}");
    }
    let handles: Vec<_> = ids_specs
        .iter()
        .cloned()
        .map(|(id, spec)| {
            std::thread::spawn(move || {
                // The daemon may be killed mid-reply; an IO error here
                // is expected and the verdict is recovered later.
                if let Ok(mut c) = Client::connect(addr) {
                    let _ = submit(&mut c, &id, &spec);
                }
            })
        })
        .collect();
    let ids: Vec<String> = ids_specs.iter().map(|(i, _)| i.clone()).collect();
    loop {
        assert!(Instant::now() < deadline, "jobs never became visible");
        let mut c = Client::connect(addr).expect("poll connect");
        let visible = ids
            .iter()
            .filter(
                |id| matches!(c.result_of(id), Ok(r) if r.str_field("error") != Some("unknown-id")),
            )
            .count();
        if visible == ids.len() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    handles
}
