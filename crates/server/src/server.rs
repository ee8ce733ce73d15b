//! The daemon proper: a `TcpListener` accept loop over the scheduler.
//!
//! The accept thread blocks in `accept`: a shutdown sets the stop flag
//! and wakes it with one connection to the bound port.
//!
//! Connections speak strict request/response: one JSON object per line,
//! one response line per request, in order. Cheap control ops (`defs`,
//! `parse`, `result`, `stats`, `shutdown`) are answered inline on the
//! connection thread; costed jobs go through admission and the
//! connection blocks until the verdict (or writes the typed rejection
//! immediately).

use crate::journal::Journal;
use crate::json::{self, Json};
use crate::protocol::error;
use crate::scheduler::{SchedCfg, Scheduler, Submit};
use crate::store::Store;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[derive(Clone, Debug)]
pub struct ServerCfg {
    /// Bind address; port 0 picks a free port (read it back from
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Journal directory — the unit of crash recovery. Reusing a
    /// directory resumes its in-flight jobs and re-serves its verdicts.
    pub journal_dir: PathBuf,
    pub sched: SchedCfg,
}

impl ServerCfg {
    pub fn new(journal_dir: impl Into<PathBuf>) -> ServerCfg {
        ServerCfg {
            addr: "127.0.0.1:0".to_string(),
            journal_dir: journal_dir.into(),
            sched: SchedCfg::default(),
        }
    }
}

/// What the daemon's threads share: the scheduler, the term store, the
/// journal, and the stop flag with the address at which one connection
/// wakes the accept thread to read it.
struct Daemon {
    sched: Scheduler,
    store: Arc<Store>,
    journal: Arc<Journal>,
    stopping: AtomicBool,
    wake: SocketAddr,
}

impl Daemon {
    /// Sets the stop flag, then wakes the accept thread out of `accept`
    /// (at 127.0.0.1 when the daemon is bound to a wildcard address).
    fn stop(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.wake);
    }
}

/// A running daemon. Dropping the handle does *not* stop it; call
/// [`ServerHandle::shutdown`].
pub struct ServerHandle {
    pub addr: SocketAddr,
    daemon: Arc<Daemon>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// Graceful stop: unbind, drain connection threads' current
    /// requests, stop workers after their current slice. In-flight jobs
    /// remain journaled for the next start on the same directory.
    pub fn shutdown(mut self) {
        self.daemon.stop();
        self.daemon.sched.shutdown();
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }

    /// Block until the accept loop exits (a client sent `shutdown`).
    pub fn wait(mut self) {
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        self.daemon.sched.shutdown();
    }
}

/// Starts the daemon: opens (or recovers) the journal, replays it, and
/// begins accepting connections.
pub fn start(cfg: ServerCfg) -> std::io::Result<ServerHandle> {
    bpi_obs::set_metrics_enabled(true);
    let recovered = Journal::recover(&cfg.journal_dir)?;
    let journal = Arc::new(Journal::open(&cfg.journal_dir)?);
    let store = Arc::new(Store::new());
    let sched = Scheduler::new(cfg.sched.clone(), Arc::clone(&store), journal.clone());
    sched.recover(recovered);

    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let mut wake = addr;
    if wake.ip().is_unspecified() {
        wake.set_ip(Ipv4Addr::LOCALHOST.into());
    }
    let daemon = Arc::new(Daemon {
        sched,
        store,
        journal,
        stopping: AtomicBool::new(false),
        wake,
    });
    let d = Arc::clone(&daemon);
    let accept_thread = std::thread::Builder::new()
        .name("bpi-accept".into())
        .spawn(move || accept_loop(listener, d))?;

    Ok(ServerHandle {
        addr,
        daemon,
        accept_thread: Some(accept_thread),
    })
}

fn accept_loop(listener: TcpListener, daemon: Arc<Daemon>) {
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        // A shutdown path's wake-up connection, or a client that came
        // after it: either way, stop accepting.
        if daemon.stopping.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { break };
        let d = Arc::clone(&daemon);
        conns.push(
            std::thread::Builder::new()
                .name("bpi-conn".into())
                .spawn(move || {
                    let _ = serve_conn(stream, &d);
                })
                .expect("spawn connection thread"),
        );
        conns.retain(|h| !h.is_finished());
    }
    for h in conns {
        let _ = h.join();
    }
}

fn serve_conn(stream: TcpStream, daemon: &Daemon) -> std::io::Result<()> {
    stream.set_nodelay(true).ok();
    // A read timeout so an idle connection notices daemon shutdown:
    // lines are accumulated manually (never `read_line`) so a timeout
    // mid-line loses nothing.
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    let mut input = stream.try_clone()?;
    let mut out = stream;
    let mut acc: Vec<u8> = Vec::new();
    // `acc[..scanned]` holds no newline: each byte is searched once, so
    // a long line costs its length, not its length squared.
    let mut scanned = 0;
    let mut chunk = [0u8; 4096];
    loop {
        // Serve every complete line already buffered.
        while let Some(off) = acc[scanned..].iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = acc.drain(..=scanned + off).collect();
            scanned = 0;
            let text = String::from_utf8_lossy(&line);
            let text = text.trim();
            if text.is_empty() {
                continue;
            }
            let resp = match json::parse(text) {
                Err(e) => error("bad-json", &e),
                Ok(req) => dispatch(&req, daemon),
            };
            out.write_all(format!("{resp}\n").as_bytes())?;
            out.flush()?;
        }
        scanned = acc.len();
        if daemon.stopping.load(Ordering::SeqCst) {
            return Ok(());
        }
        match input.read(&mut chunk) {
            Ok(0) => return Ok(()), // client hung up
            Ok(n) => {
                acc.extend_from_slice(&chunk[..n]);
                // An unterminated line this long is not a protocol
                // client; cut the connection rather than buffer forever.
                if acc.len() > 16 << 20 {
                    return Ok(());
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

fn dispatch(req: &Json, daemon: &Daemon) -> Json {
    match req.str_field("op") {
        Some("defs") => {
            let session = req.str_field("session").unwrap_or("");
            let Some(src) = req.str_field("src") else {
                return error("bad-request", "missing field \"src\"");
            };
            match daemon.store.set_defs(session, src) {
                Ok(n) => {
                    // Journal *after* the store accepts it, so recovery
                    // replays only well-formed environments.
                    if let Err(e) = daemon.journal.record_defs(session, src) {
                        return error("journal", &e.to_string());
                    }
                    crate::protocol::ok(vec![
                        ("op", Json::str("defs")),
                        ("defined", Json::num(n as f64)),
                    ])
                }
                Err(e) => error("parse", &e),
            }
        }
        Some("parse") => {
            let session = req.str_field("session").unwrap_or("");
            let Some(src) = req.str_field("src") else {
                return error("bad-request", "missing field \"src\"");
            };
            match daemon.store.parse(session, src) {
                Ok(p) => crate::protocol::ok(vec![
                    ("op", Json::str("parse")),
                    ("pretty", Json::str(p.to_string())),
                    ("size", Json::num(p.size() as f64)),
                ]),
                Err(e) => error("parse", &e),
            }
        }
        Some("result") => match req.str_field("id") {
            Some(id) => daemon.sched.result_of(id),
            None => error("bad-request", "missing field \"id\""),
        },
        Some("stats") => stats_response(&daemon.sched),
        Some("shutdown") => {
            daemon.stop();
            crate::protocol::ok(vec![("op", Json::str("shutdown"))])
        }
        Some("check") | Some("explore") | Some("reliability") => match daemon.sched.submit(req) {
            Submit::Immediate(resp) => resp,
            Submit::Queued(rx) => {
                // Wait for the verdict; wake periodically so a daemon
                // drain doesn't strand the connection forever.
                loop {
                    match rx.recv_timeout(Duration::from_millis(100)) {
                        Ok(resp) => return resp,
                        Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                            if daemon.stopping.load(Ordering::SeqCst) {
                                return error("draining", "daemon stopped before the verdict");
                            }
                        }
                        Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                            return error("draining", "daemon dropped the job");
                        }
                    }
                }
            }
        },
        Some(other) => error("bad-request", &format!("unknown op {other:?}")),
        None => error("bad-request", "missing field \"op\""),
    }
}

/// `{"op":"stats"}` — queue/admission counters, gauges and latency
/// histograms from `bpi-obs`, plus scheduler-level totals.
fn stats_response(sched: &Scheduler) -> Json {
    let snap = bpi_obs::snapshot();
    let counters = Json::Obj(
        snap.counters
            .iter()
            .map(|(name, (_, v))| (name.to_string(), Json::num(*v as f64)))
            .collect(),
    );
    let gauges = Json::Obj(
        snap.gauges
            .iter()
            .map(|(name, v)| (name.to_string(), Json::num(*v as f64)))
            .collect(),
    );
    let histograms = Json::Obj(
        snap.histograms
            .iter()
            .map(|(name, h)| {
                (
                    name.to_string(),
                    Json::obj(vec![
                        ("count", Json::num(h.count as f64)),
                        ("sum", Json::num(h.sum as f64)),
                        ("p50_upper_bound", Json::num(bucket_upper(h, 0.5) as f64)),
                        ("p99_upper_bound", Json::num(bucket_upper(h, 0.99) as f64)),
                    ]),
                )
            })
            .collect(),
    );
    crate::protocol::ok(vec![
        ("op", Json::str("stats")),
        ("queue_depth", Json::num(sched.queue_depth() as f64)),
        ("inflight_cost", Json::num(sched.inflight_cost() as f64)),
        ("counters", counters),
        ("gauges", gauges),
        ("histograms", histograms),
    ])
}

/// Upper bound of the log₂ bucket holding the `q` quantile sample
/// (bucket `i` covers `[2^(i-1), 2^i)`, bucket 0 is exactly 0).
fn bucket_upper(h: &bpi_obs::HistogramSnapshot, q: f64) -> u64 {
    if h.count == 0 {
        return 0;
    }
    let target = (h.count as f64 * q).ceil() as u64;
    let mut seen = 0u64;
    for (idx, n) in &h.buckets {
        seen += n;
        if seen >= target {
            return if *idx == 0 { 0 } else { 1u64 << (*idx).min(63) };
        }
    }
    u64::MAX
}
