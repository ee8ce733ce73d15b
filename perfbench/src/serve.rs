//! The daemon workloads: `serve-mixed` (the `bpi-server` binary under a
//! closed-loop job mix) and `serve-recover` (restarts on a journal with
//! completed verdicts and parked in-flight checks).
//!
//! The daemon runs as its own process with its default configuration;
//! its journal lives under the benchmark's work directory. Traced runs
//! read the daemon's `{"op":"stats"}` counters and ms-resolution
//! histograms, then replay the same work in-process through
//! [`crate::exec::Exec`] for a µs-resolution split into layers
//! (`serve-mixed`: its first pass; `serve-recover`: every restart).

use crate::corpus::{engine_counters, store_counters};
use crate::exec::Exec;
use crate::expect::Expected;
use crate::gen::{
    daemon_fuel, job_catalogue, job_pass, parked_jobs, Job, JobKind, JobShape, DEFS, SESSION,
};
use crate::report::{self, ratio, Layers};
use crate::trace::ROOT;
use crate::{EndToEnd, Run};
use bpi_core::parser::parse_process;
use bpi_equiv::checkpoint::Checkpoint;
use bpi_equiv::{Checker, SliceOutcome};
use bpi_semantics::Budget;
use bpi_server::{json, Client, Journal, Json, SchedCfg};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Passes one `serve-mixed` daemon serves (about 900 jobs) before the
/// next one starts. The daemon's memos keep every term, and fresh names
/// never hit, so its memory grows with every pass: `peak_rss_mb` shows
/// that growth over a fixed amount of work, and a fresh daemon keeps a
/// run near 1 GB instead of past 4 GB. Repeats come from the same pass,
/// so no pass depends on an earlier daemon's caches.
const PASSES_PER_DAEMON: usize = 4;
/// Writing a template takes about a second of CPU-bound work, whose time
/// varies with the host; the median of five is steadier than one.
const RECOVER_SETUP_REPS: usize = 5;
/// Persistent client connections of the closed loop.
const CONNECTIONS: usize = 2;
/// A restart that has not served every verdict by then counts the rest
/// as failed.
const RESTART_TIMEOUT: Duration = Duration::from_secs(120);
/// Pause between `result` sweeps of a restart.
const POLL_PAUSE: Duration = Duration::from_micros(200);

fn io_err(e: std::io::Error) -> String {
    e.to_string()
}

/// A `bpi-server` child process. Dropping it kills the process and waits
/// for it to end.
pub struct Daemon {
    child: Child,
    /// Held open so the daemon never writes to a closed pipe.
    _stdout: Option<BufReader<ChildStdout>>,
    pub addr: String,
}

impl Daemon {
    /// Starts the daemon on `journal` and returns once it prints
    /// `LISTENING <addr>`.
    pub fn spawn(bin: &Path, journal: &Path) -> Result<Daemon, String> {
        let child = Command::new(bin)
            .arg("--journal")
            .arg(journal)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut d = Daemon {
            child,
            _stdout: None,
            addr: String::new(),
        };
        let mut out = BufReader::new(d.child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        out.read_line(&mut line).map_err(io_err)?;
        d._stdout = Some(out);
        d.addr = line
            .trim()
            .strip_prefix("LISTENING ")
            .ok_or_else(|| format!("daemon did not start: {line:?}"))?
            .to_string();
        Ok(d)
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One `serve-mixed` daemon with its journal and connections.
struct Lifetime {
    daemon: Daemon,
    clients: Vec<Client>,
    dir: PathBuf,
}

impl Lifetime {
    /// Starts daemon number `k` on a fresh journal and connects; returns
    /// it with its set-up time, spawn to `LISTENING` plus `defs`. The
    /// daemon's accept loop polls every 10 ms, so one such time is
    /// bimodal; `setup_s` is the median over a run's daemons.
    fn start(run: &Run, k: usize) -> Result<(Lifetime, f64), String> {
        let dir = run.work_dir.join(format!("mixed-{k}"));
        fresh_dir(&dir)?;
        let t = Instant::now();
        let daemon = Daemon::spawn(&run.server_bin, &dir)?;
        let mut first = Client::connect(daemon.addr.as_str()).map_err(io_err)?;
        let r = first.defs(SESSION, DEFS).map_err(io_err)?;
        if r.str_field("status") != Some("ok") {
            return Err(format!("defs refused: {r}"));
        }
        let setup_s = t.elapsed().as_secs_f64();
        let mut clients = vec![first];
        while clients.len() < CONNECTIONS {
            clients.push(Client::connect(daemon.addr.as_str()).map_err(io_err)?);
        }
        Ok((
            Lifetime {
                daemon,
                clients,
                dir,
            },
            setup_s,
        ))
    }

    /// Shuts the daemon down, removes its journal and returns its VmHWM.
    fn stop(mut self) -> f64 {
        let rss_mb = report::peak_rss_mb(&self.daemon.pid());
        let _ = self.clients[0].shutdown();
        drop(self.clients);
        drop(self.daemon);
        let _ = std::fs::remove_dir_all(&self.dir);
        rss_mb
    }
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(io_err)
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    fresh_dir(to)?;
    for e in std::fs::read_dir(from).map_err(io_err)? {
        let e = e.map_err(io_err)?;
        std::fs::copy(e.path(), to.join(e.file_name())).map_err(io_err)?;
    }
    Ok(())
}

/// Counter value and histogram sums of a `stats` response.
fn stat(stats: &Json, group: &str, name: &str, field: Option<&str>) -> f64 {
    let v = stats.get(group).and_then(|g| g.get(name));
    let v = match field {
        Some(f) => v.and_then(|h| h.get(f)),
        None => v,
    };
    v.and_then(Json::as_f64).unwrap_or(0.0)
}

/// Reads the daemon-side counters of `stats` deltas into `l`.
fn daemon_counters(l: &mut Layers, s0: &Json, s1: &Json) {
    let c = |n: &str| stat(s1, "counters", n, None) - stat(s0, "counters", n, None);
    engine_counters(l, &c);
    let h =
        |n: &str, f: &str| stat(s1, "histograms", n, Some(f)) - stat(s0, "histograms", n, Some(f));
    l.add("server.scheduler.preempted", c("server.preempted"));
    l.add("server.scheduler.rejected", c("server.rejected"));
    let jobs = h("server.slices_per_job", "count");
    if jobs > 0.0 {
        l.add(
            "server.scheduler.slices_per_job",
            h("server.slices_per_job", "sum") / jobs,
        );
    }
}

/// Adds up the counters and histogram sums and counts of several
/// `stats` responses, one per daemon lifetime.
fn sum_stats(all: &[Json]) -> Json {
    let mut counters: BTreeMap<String, f64> = BTreeMap::new();
    let mut hists: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    for s in all {
        if let Some(Json::Obj(fields)) = s.get("counters") {
            for (k, v) in fields {
                *counters.entry(k.clone()).or_default() += v.as_f64().unwrap_or(0.0);
            }
        }
        if let Some(Json::Obj(fields)) = s.get("histograms") {
            for (k, v) in fields {
                let e = hists.entry(k.clone()).or_default();
                e.0 += v.get("sum").and_then(Json::as_f64).unwrap_or(0.0);
                e.1 += v.get("count").and_then(Json::as_f64).unwrap_or(0.0);
            }
        }
    }
    Json::obj(vec![
        (
            "counters",
            Json::Obj(
                counters
                    .into_iter()
                    .map(|(k, v)| (k, Json::num(v)))
                    .collect(),
            ),
        ),
        (
            "histograms",
            Json::Obj(
                hists
                    .into_iter()
                    .map(|(k, (sum, count))| {
                        (
                            k,
                            Json::obj(vec![("sum", Json::num(sum)), ("count", Json::num(count))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

fn response_matches(resp: &std::io::Result<Json>, want: &Option<String>) -> bool {
    matches!((resp, want), (Ok(r), Some(w)) if r.to_string() == *w)
}

/// One pass of the closed loop: every connection takes the next job as
/// soon as its previous one is answered. Returns `(index, ms, ok)`.
fn run_pass(
    clients: &mut [Client],
    jobs: &[Job],
    shapes: &[JobShape],
    expected: &Expected,
) -> Vec<(usize, f64, bool)> {
    let next = AtomicUsize::new(0);
    let next = &next;
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(job) = jobs.get(i) else { break };
                        let want = expected.filled(&shapes[job.shape].key, &job.prefix);
                        let t = Instant::now();
                        let resp = c.roundtrip(&job.req);
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        let ok = response_matches(&resp, &want);
                        if !ok {
                            eprintln!(
                                "serve-mixed: {} ({}) got {resp:?}",
                                job.id, shapes[job.shape].key
                            );
                        }
                        out.push((i, ms, ok));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load thread panicked"))
            .collect()
    })
}

pub fn run_mixed(run: &Run) -> Result<(), String> {
    let shapes = job_catalogue();
    let expected = Expected::jobs();
    if expected.len() != shapes.len() {
        return Err("expected/jobs.txt does not match the job catalogue".into());
    }
    let mut setup = Vec::new();
    // VmHWM of each daemon that served all its passes, or of the last one.
    let mut rss = Vec::new();
    let mut lifetime: Option<Lifetime> = None;
    // The daemon's stats around the first pass, which a traced run splits
    // into layers.
    let (mut stats0, mut stats1) = (Json::Null, Json::Null);
    let mut pass_rtts: Vec<Vec<f64>> = Vec::new();
    let mut walls = Vec::new();
    let mut failed = 0;
    let t_all = Instant::now();
    loop {
        let k = pass_rtts.len();
        if k.is_multiple_of(PASSES_PER_DAEMON) {
            if let Some(old) = lifetime.take() {
                rss.push(old.stop());
            }
            let (new, setup_s) = Lifetime::start(run, k / PASSES_PER_DAEMON)?;
            setup.push(setup_s);
            lifetime = Some(new);
        }
        let served = lifetime.as_mut().expect("a daemon is running");
        if k == 0 && run.traced {
            stats0 = served.clients[0].stats().map_err(io_err)?;
        }
        let jobs = job_pass(&shapes, run.seed, k);
        let t = Instant::now();
        let mut results = run_pass(&mut served.clients, &jobs, &shapes, &expected);
        walls.push(t.elapsed().as_secs_f64());
        results.sort_by_key(|r| r.0);
        failed += results.iter().filter(|r| !r.2).count();
        pass_rtts.push(results.iter().map(|r| r.1).collect());
        if k == 0 && run.traced {
            stats1 = served.clients[0].stats().map_err(io_err)?;
        }
        if run.done(t_all.elapsed().as_secs_f64()) {
            break;
        }
    }
    let last_rss = lifetime.take().map_or(0.0, Lifetime::stop);
    if rss.is_empty() || pass_rtts.len().is_multiple_of(PASSES_PER_DAEMON) {
        rss.push(last_rss);
    }

    let passes = pass_rtts.len();
    let jobs: usize = pass_rtts.iter().map(Vec::len).sum();
    let sizes: Vec<usize> = pass_rtts.iter().map(Vec::len).collect();
    let best = report::fastest_passes(&walls, &sizes, 99);
    let lat: Vec<f64> = best
        .iter()
        .flat_map(|&k| pass_rtts[k].iter().copied())
        .collect();
    let n = lat.len();
    let tail_q = report::tail_quantile(n, 99);
    let throughput = n as f64 / best.iter().map(|&k| walls[k]).sum::<f64>();
    let p50 = report::median(&lat);
    let tail = report::percentile(&lat, tail_q);
    let detail = vec![
        ("jobs_per_s", throughput),
        ("job_p50_ms", p50),
        (
            if tail_q == 99.0 {
                "job_p99_ms"
            } else {
                "job_tail_ms"
            },
            tail,
        ),
        ("jobs", jobs as f64),
        ("passes", passes as f64),
        ("timed_passes", best.len() as f64),
    ];
    let mut exec = Exec::new(run.traced, None);
    let layers = if run.traced {
        Some(mixed_layers(
            run,
            &shapes,
            &pass_rtts[0],
            &stats0,
            &stats1,
            &mut exec,
        )?)
    } else {
        None
    };
    run.report(
        jobs,
        failed,
        EndToEnd {
            setup_s: report::median(&setup),
            throughput_per_s: throughput,
            p50_ms: p50,
            tail_ms: tail,
            tail_quantile: tail_q,
            samples: n,
            peak_rss_mb: report::median(&rss),
        },
        detail,
        layers,
        &exec.tr,
    )
}

/// Per-layer split of `serve-mixed`'s first pass: its jobs replayed
/// in-process, each under a root span as long as the job's client round
/// trip, plus the daemon's own counters and histograms over the pass
/// (`s0` to `s1`). One pass only: the replay keeps every term it checks,
/// and a whole run's passes grew the harness past 4 GB.
fn mixed_layers(
    run: &Run,
    shapes: &[JobShape],
    rtts: &[f64],
    s0: &Json,
    s1: &Json,
    exec: &mut Exec,
) -> Result<Layers, String> {
    let dir = run.work_dir.join("replay");
    fresh_dir(&dir)?;
    exec.journal = Some(Journal::open(&dir).map_err(io_err)?);
    bpi_obs::set_metrics_enabled(true);
    let store0 = bpi_core::store::store_stats();
    for (job, rtt) in job_pass(shapes, run.seed, 0).iter().zip(rtts) {
        let start = exec.tr.now_us();
        let root = exec.tr.add(&job.id, ROOT, None, start, rtt * 1e3);
        exec.run_job(
            &shapes[job.shape],
            &job.id,
            &job.req,
            &job.prefix,
            Some(root),
        );
    }
    let store1 = bpi_core::store::store_stats();
    exec.journal = None;
    let _ = std::fs::remove_dir_all(&dir);

    let mut l = Layers::new();
    l.add_spans(&exec.tr);
    let total = exec.tr.total_ms();
    // The daemon's own view, in whole milliseconds per job: time from
    // admission to verdict, and time inside slices. Both estimates are
    // carved out of the root spans' self time.
    let h =
        |n: &str| stat(s1, "histograms", n, Some("sum")) - stat(s0, "histograms", n, Some("sum"));
    let latency = h("server.latency_ms");
    let slices = h("server.slice_ms");
    let rtt_overhead = (total - latency - exec.admit_ms).max(0.0);
    let queue_wait = (latency - slices - exec.done_ms).max(0.0);
    l.add("server.rtt_overhead_ms", rtt_overhead);
    l.add("server.scheduler.queue_wait_ms", queue_wait);
    l.add("unattributed_ms", -(rtt_overhead + queue_wait));
    daemon_counters(&mut l, s0, s1);
    replay_counters(&mut l, exec, store0, store1);
    l.finish(total, 1);
    Ok(l)
}

fn replay_counters(l: &mut Layers, exec: &Exec, store0: (u64, u64, u64), store1: (u64, u64, u64)) {
    store_counters(l, store0, store1);
    l.add("core.parser.bytes", exec.parse_bytes as f64);
    l.add("server.request_bytes", exec.request_bytes as f64);
    l.add(
        "server.store.parse_hit_ratio",
        ratio(
            exec.parse_hits as f64,
            (exec.parses - exec.parse_hits) as f64,
        ),
    );
    l.add("server.journal.appends", (exec.appends + exec.saves) as f64);
    l.add(
        "server.journal.bytes",
        (exec.append_bytes + exec.checkpoint_bytes) as f64,
    );
    l.add("equiv.checkpoint.saves", exec.saves as f64);
    l.add("equiv.checkpoint.bytes", exec.checkpoint_bytes as f64);
}

/// The `serve-recover` template: a journal with completed verdicts and
/// parked in-flight checks, written through the journal's public calls.
pub struct Template {
    pub dir: PathBuf,
    /// Every job id with the response a client must read back.
    pub expect: Vec<(String, String)>,
    pub parked: Vec<Job>,
}

pub fn build_template(
    dir: &Path,
    shapes: &[JobShape],
    expected: &Expected,
    seed: u64,
) -> Result<Template, String> {
    fresh_dir(dir)?;
    let j = Journal::open(dir).map_err(io_err)?;
    j.record_defs(SESSION, DEFS).map_err(io_err)?;
    let mut expect = Vec::new();
    for job in job_pass(shapes, seed, 0) {
        let want = expected
            .filled(&shapes[job.shape].key, &job.prefix)
            .ok_or("unpinned job shape")?;
        j.record_admitted(&job.id, &job.req).map_err(io_err)?;
        j.record_done(&job.id, &json::parse(&want)?)
            .map_err(io_err)?;
        expect.push((job.id, want));
    }
    let defs = bpi_core::parser::parse_defs(DEFS).map_err(|e| e.to_string())?;
    let parked = parked_jobs(shapes, seed);
    for job in &parked {
        let shape = &shapes[job.shape];
        let JobKind::Check(v, pair) = &shape.kind else {
            return Err("parked jobs are checks".into());
        };
        j.record_admitted(&job.id, &job.req).map_err(io_err)?;
        let p =
            parse_process(&crate::gen::fill(&pair.left, &job.prefix)).map_err(|e| e.to_string())?;
        let q = parse_process(&crate::gen::fill(&pair.right, &job.prefix))
            .map_err(|e| e.to_string())?;
        let checker = Checker::new(&defs)
            .with_budget(Budget::states(SchedCfg::default().default_max_states))
            .with_threads(1);
        match checker.run_slice(*v, &p, &q, None, daemon_fuel()) {
            Ok(SliceOutcome::Parked(ck)) => {
                j.save_checkpoint(&job.id, &ck.to_text()).map_err(io_err)?
            }
            _ => return Err(format!("{} did not park at the daemon's fuel", shape.key)),
        }
        let want = expected
            .filled(&shape.key, &job.prefix)
            .ok_or("unpinned job shape")?;
        expect.push((job.id.clone(), want));
    }
    Ok(Template {
        dir: dir.to_path_buf(),
        expect,
        parked,
    })
}

/// One measured restart: when each verdict was first served (ms after
/// spawn), whether it matched, the time to `LISTENING`, and the daemon's
/// peak RSS and final `stats`.
struct Restart {
    served_ms: Vec<f64>,
    failed: usize,
    listen_ms: f64,
    last_ms: f64,
    rss_mb: f64,
    stats: Json,
}

fn restart(run: &Run, tpl: &Template, dir: &Path) -> Result<Restart, String> {
    let t0 = Instant::now();
    let daemon = Daemon::spawn(&run.server_bin, dir)?;
    let listen_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut c = Client::connect(daemon.addr.as_str()).map_err(io_err)?;
    let mut pending: Vec<usize> = (0..tpl.expect.len()).collect();
    let mut served_ms = vec![0.0; tpl.expect.len()];
    let mut failed = 0;
    // One sweep serves every completed verdict; later sweeps poll only the
    // parked ids, with a pause between sweeps that leaves both vCPUs to
    // the daemon's workers and still sees a completion well within a
    // millisecond.
    while !pending.is_empty() {
        let mut still = Vec::new();
        for &i in &pending {
            let (id, want) = &tpl.expect[i];
            let r = c.result_of(id).map_err(io_err)?;
            if r.str_field("status") == Some("pending") {
                still.push(i);
                continue;
            }
            served_ms[i] = t0.elapsed().as_secs_f64() * 1e3;
            if r.to_string() != *want {
                failed += 1;
                eprintln!("serve-recover: {id} recovered as {r}, expected {want}");
            }
        }
        pending = still;
        if t0.elapsed() > RESTART_TIMEOUT {
            failed += pending.len();
            break;
        }
        if !pending.is_empty() {
            std::thread::sleep(POLL_PAUSE);
        }
    }
    let last_ms = served_ms.iter().copied().fold(0.0, f64::max);
    let rss_mb = report::peak_rss_mb(&daemon.pid());
    let stats = c.stats().map_err(io_err)?;
    drop(c);
    drop(daemon);
    Ok(Restart {
        served_ms,
        failed,
        listen_ms,
        last_ms,
        rss_mb,
        stats,
    })
}

pub fn run_recover(run: &Run) -> Result<(), String> {
    let shapes = job_catalogue();
    let expected = Expected::jobs();
    if expected.len() != shapes.len() {
        return Err("expected/jobs.txt does not match the job catalogue".into());
    }
    let mut setup = Vec::new();
    let mut tpl = None;
    for rep in 0..RECOVER_SETUP_REPS {
        let t = Instant::now();
        let built = build_template(
            &run.work_dir.join(format!("template-{rep}")),
            &shapes,
            &expected,
            run.seed,
        )?;
        setup.push(t.elapsed().as_secs_f64());
        if let Some(old) = tpl.replace(built) {
            let _ = std::fs::remove_dir_all(&old.dir);
        }
    }
    let tpl: Template = tpl.expect("at least one set-up");

    let mut exec = Exec::new(run.traced, None);
    if run.traced {
        let dir = run.work_dir.join("replay");
        fresh_dir(&dir)?;
        exec.journal = Some(Journal::open(&dir).map_err(io_err)?);
    }
    let mut layers = Layers::new();
    let mut restarts: Vec<Restart> = Vec::new();
    let t_all = Instant::now();
    loop {
        let dir = run.work_dir.join("restart");
        copy_dir(&tpl.dir, &dir)?;
        let replay = if run.traced {
            Some(replay_recovery(&dir, &mut layers)?)
        } else {
            None
        };
        let r = restart(run, &tpl, &dir)?;
        let _ = std::fs::remove_dir_all(&dir);
        if let Some((replay_ms, decode_ms, decoded)) = replay {
            let unit = format!("restart{}", restarts.len());
            let start = exec.tr.now_us();
            let root = exec.tr.add(&unit, ROOT, None, start, r.last_ms * 1e3);
            exec.tr.add(
                &unit,
                "server.journal.replay_ms",
                Some(root),
                start,
                replay_ms * 1e3,
            );
            exec.tr.add(
                &unit,
                "equiv.checkpoint.decode_ms",
                Some(root),
                start,
                decode_ms * 1e3,
            );
            resume_in_process(&mut exec, &shapes, &tpl, decoded, &unit, root)?;
            layers.add("server.recover.listen_ms", r.listen_ms);
            layers.add("server.recover.resume_ms", r.last_ms - r.listen_ms);
        }
        restarts.push(r);
        if run.done(t_all.elapsed().as_secs_f64()) {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&tpl.dir);

    let failed: usize = restarts.iter().map(|r| r.failed).sum();
    let verdicts: usize = restarts.iter().map(|r| r.served_ms.len()).sum();
    let lasts: Vec<f64> = restarts.iter().map(|r| r.last_ms / 1e3).collect();
    let sizes: Vec<usize> = restarts.iter().map(|r| r.served_ms.len()).collect();
    let best = report::fastest_passes(&lasts, &sizes, 99);
    let lat: Vec<f64> = best
        .iter()
        .flat_map(|&k| restarts[k].served_ms.iter().copied())
        .collect();
    let listens: Vec<f64> = restarts.iter().map(|r| r.listen_ms / 1e3).collect();
    let rss: Vec<f64> = restarts.iter().map(|r| r.rss_mb).collect();
    let n = lat.len();
    let tail_q = report::tail_quantile(n, 99);
    let throughput = n as f64 / best.iter().map(|&k| lasts[k]).sum::<f64>();
    let p50 = report::median(&lat);
    let tail = report::percentile(&lat, tail_q);
    let detail = vec![
        ("recovery_s", report::median(&lasts)),
        ("listen_s", report::median(&listens)),
        ("verdicts", verdicts as f64),
        ("restarts", restarts.len() as f64),
        ("timed_restarts", best.len() as f64),
        ("parked_checks", tpl.parked.len() as f64),
    ];
    let layers = run.traced.then(|| {
        layers.add_spans(&exec.tr);
        layers.add("equiv.checkpoint.saves", exec.saves as f64);
        layers.add("equiv.checkpoint.bytes", exec.checkpoint_bytes as f64);
        layers.add("server.journal.appends", exec.saves as f64);
        let stats: Vec<Json> = restarts.iter().map(|r| r.stats.clone()).collect();
        daemon_counters(&mut layers, &Json::obj(vec![]), &sum_stats(&stats));
        layers.finish(exec.tr.total_ms(), restarts.len());
        layers
    });
    run.report(
        verdicts,
        failed,
        EndToEnd {
            setup_s: report::median(&setup),
            throughput_per_s: throughput,
            p50_ms: p50,
            tail_ms: tail,
            tail_quantile: tail_q,
            samples: n,
            peak_rss_mb: report::median(&rss),
        },
        detail,
        layers,
        &exec.tr,
    )
}

/// Replay and decode times in ms, and the decoded checkpoints by job id.
type Replayed = (f64, f64, Vec<(String, Checkpoint)>);

/// The daemon's start-up reads, redone in-process on an identical copy:
/// `Journal::recover` and decoding every parked checkpoint.
fn replay_recovery(dir: &Path, l: &mut Layers) -> Result<Replayed, String> {
    let t = Instant::now();
    let rec = Journal::recover(dir).map_err(io_err)?;
    let replay_ms = t.elapsed().as_secs_f64() * 1e3;
    let bytes: u64 = std::fs::read_dir(dir)
        .map_err(io_err)?
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    l.add(
        "server.journal.records",
        (rec.defs.len() + rec.done.len() + rec.inflight.len()) as f64,
    );
    l.add("server.journal.bytes", bytes as f64);
    let t = Instant::now();
    let mut decoded = Vec::new();
    for (id, _, text) in &rec.inflight {
        let text = text.as_deref().ok_or("parked job without a checkpoint")?;
        l.add("equiv.checkpoint.bytes", text.len() as f64);
        decoded.push((id.clone(), text.parse::<Checkpoint>()?));
    }
    Ok((replay_ms, t.elapsed().as_secs_f64() * 1e3, decoded))
}

/// Resumes the decoded parked checks to their verdicts in-process, with
/// the daemon's fuel, journaling like the daemon does.
fn resume_in_process(
    exec: &mut Exec,
    shapes: &[JobShape],
    tpl: &Template,
    decoded: Vec<(String, Checkpoint)>,
    unit: &str,
    root: usize,
) -> Result<(), String> {
    for (id, ck) in decoded {
        let job = tpl
            .parked
            .iter()
            .find(|j| j.id == id)
            .ok_or("unknown parked job")?;
        let JobKind::Check(v, pair) = &shapes[job.shape].kind else {
            return Err("parked jobs are checks".into());
        };
        let p =
            parse_process(&crate::gen::fill(&pair.left, &job.prefix)).map_err(|e| e.to_string())?;
        let q = parse_process(&crate::gen::fill(&pair.right, &job.prefix))
            .map_err(|e| e.to_string())?;
        exec.check_slices(unit, Some(root), (*v, &p, &q), Some(ck))
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}
