//! Admission control and the preemptive worker pool.
//!
//! ## Admission
//!
//! Every queued op carries a *cost* (its state budget for `check` /
//! `explore`, its sample count for `reliability`). Admission is refused
//! with a typed [`RejectReason`] when:
//!
//! * the job's priority queue is full (queues are **bounded** crossbeam
//!   channels; `try_send` is the admission gate, so queue depth can
//!   never grow without bound),
//! * admitting the cost would push the in-flight total over the
//!   daemon's state budget, or
//! * the daemon is above its shed threshold and the job is `Low`
//!   priority — graceful degradation sheds the cheapest work first.
//!
//! An admitted job is journaled **before** `result` reports it pending
//! and before it is enqueued (write-ahead: a crash after the journal
//! sync but before the verdict re-admits the job at recovery, and a
//! crash before the sync loses only a job no client has seen).
//!
//! ## Fair scheduling by checkpoint preemption
//!
//! Workers run jobs in fuel-bounded slices ([`Checker::run_slice`] for
//! `check`, a fuelled [`CheckpointCfg`] for `reliability`). A job whose
//! slice parks goes to the back of its priority's *parked* queue and its
//! checkpoint is persisted; the scan order (fresh before parked within
//! each priority) means short fresh jobs overtake long parked ones, so
//! a single huge check can never starve the queue behind it. Because
//! the engines park and resume only at unit boundaries, the sliced
//! verdict is bit-identical to an uninterrupted run.
//!
//! ## Isolation
//!
//! Each slice runs under `catch_unwind`, the workspace's one panic
//! isolation: a panic inside an engine produces a typed
//! `{"status":"error","error":"panic"}` response and the worker moves
//! on — one poisoned job cannot take the daemon down.

use crate::journal::Journal;
use crate::json::Json;
use crate::protocol::{self, error, ok, rejected, Priority, RejectReason};
use crate::store::Store;
use bpi_core::syntax::{Defs, P};
use bpi_core::Name;
use bpi_equiv::checkpoint::Checkpoint;
use bpi_equiv::{Checker, Opts, SliceOutcome, Variant};
use bpi_semantics::{
    convergence_mc_resume, explore_budgeted, Budget, CheckpointCfg, EngineError, ExploreOpts,
    FaultPlan, McCheckpoint,
};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TrySendError};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Scheduler tuning. All ceilings are hard: exceeding any of them is a
/// typed rejection, never an unbounded queue.
#[derive(Clone, Debug)]
pub struct SchedCfg {
    /// Worker threads executing job slices.
    pub workers: usize,
    /// Capacity of each priority's fresh-job queue.
    pub queue_cap: usize,
    /// Ceiling on the summed cost of admitted-but-unfinished jobs.
    pub state_budget: usize,
    /// Fraction of `state_budget` above which `Low` jobs are shed.
    pub shed_fraction: f64,
    /// Slice size in engine units — the preemption quantum. For checks
    /// a unit is a state committed by a graph build or a refinement
    /// round of the partition or pairwise engine (products at or below
    /// the naive cutover refine in one unbounded sweep); for
    /// reliability runs it is a sample.
    pub fuel: usize,
    /// `max_states` applied when a request names none.
    pub default_max_states: usize,
    /// Hard per-job `max_states` ceiling (requests above it are clamped).
    pub max_max_states: usize,
}

impl Default for SchedCfg {
    fn default() -> SchedCfg {
        SchedCfg {
            workers: 2,
            queue_cap: 64,
            state_budget: 1_000_000,
            shed_fraction: 0.75,
            fuel: 2_048,
            default_max_states: 20_000,
            max_max_states: 200_000,
        }
    }
}

/// Parsed payload of a queued job.
enum Work {
    Check {
        v: Variant,
        left: P,
        right: P,
        defs: Defs,
        max_states: usize,
    },
    Explore {
        p: P,
        defs: Defs,
        max_states: usize,
    },
    Reliability {
        p: P,
        defs: Defs,
        watch: Name,
        loss: f64,
        seed: u64,
        max_steps: usize,
        samples: usize,
    },
}

/// A parked engine snapshot, either kind self-describing via its header
/// line when persisted.
enum ParkState {
    Check(Box<Checkpoint>),
    Mc(McCheckpoint),
}

struct Job {
    id: String,
    prio: Priority,
    work: Work,
    parked: Option<ParkState>,
    deadline: Option<Instant>,
    admitted_at: Instant,
    cost: usize,
    slices: u32,
    /// Live submissions carry a reply channel; recovered jobs answer
    /// only through the journal / `result` op.
    reply: Option<Sender<Json>>,
}

/// What `submit` tells the connection layer.
pub enum Submit {
    /// Admitted: await the final response on this receiver.
    Queued(Receiver<Json>),
    /// Finished at admission (rejection or malformed request).
    Immediate(Json),
}

struct Queues {
    fresh_tx: [Sender<Job>; 3],
    fresh_rx: [Receiver<Job>; 3],
    parked_tx: [Sender<Job>; 3],
    parked_rx: [Receiver<Job>; 3],
}

struct Shared {
    cfg: SchedCfg,
    store: Arc<Store>,
    journal: Arc<Journal>,
    queues: Queues,
    /// Summed cost of admitted-but-unfinished jobs.
    inflight_cost: AtomicUsize,
    /// Ids currently in flight, for duplicate detection. The flag is
    /// set once the admission is journaled: only then does `result`
    /// answer `pending`, so a client never sees a job a crash can lose.
    inflight_ids: Mutex<HashMap<String, bool>>,
    /// Final responses by id, served by the `result` op byte-identically.
    completed: Mutex<HashMap<String, Json>>,
    draining: AtomicBool,
}

pub struct Scheduler {
    shared: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

fn pidx(p: Priority) -> usize {
    match p {
        Priority::High => 0,
        Priority::Normal => 1,
        Priority::Low => 2,
    }
}

impl Scheduler {
    pub fn new(cfg: SchedCfg, store: Arc<Store>, journal: Arc<Journal>) -> Scheduler {
        let mk = |cap: Option<usize>| -> (Vec<Sender<Job>>, Vec<Receiver<Job>>) {
            (0..3)
                .map(|_| match cap {
                    Some(c) => bounded::<Job>(c),
                    None => unbounded::<Job>(),
                })
                .unzip()
        };
        let (ftx, frx) = mk(Some(cfg.queue_cap.max(1)));
        let (ptx, prx) = mk(None);
        let into3 = |mut v: Vec<Sender<Job>>| -> [Sender<Job>; 3] {
            let c = v.pop().unwrap();
            let b = v.pop().unwrap();
            let a = v.pop().unwrap();
            [a, b, c]
        };
        let into3r = |mut v: Vec<Receiver<Job>>| -> [Receiver<Job>; 3] {
            let c = v.pop().unwrap();
            let b = v.pop().unwrap();
            let a = v.pop().unwrap();
            [a, b, c]
        };
        let shared = Arc::new(Shared {
            cfg,
            store,
            journal,
            queues: Queues {
                fresh_tx: into3(ftx),
                fresh_rx: into3r(frx),
                parked_tx: into3(ptx),
                parked_rx: into3r(prx),
            },
            inflight_cost: AtomicUsize::new(0),
            inflight_ids: Mutex::new(HashMap::new()),
            completed: Mutex::new(HashMap::new()),
            draining: AtomicBool::new(false),
        });
        let sched = Scheduler {
            shared: Arc::clone(&shared),
            workers: Mutex::new(Vec::new()),
        };
        let n = shared.cfg.workers.max(1);
        let mut g = sched.workers.lock().unwrap();
        for i in 0..n {
            let sh = Arc::clone(&shared);
            g.push(
                std::thread::Builder::new()
                    .name(format!("bpi-worker-{i}"))
                    .spawn(move || worker_loop(&sh))
                    .expect("spawn worker"),
            );
        }
        drop(g);
        sched
    }

    /// Replays a recovered journal: definitions first, then completed
    /// verdicts, then re-admission of in-flight jobs (resuming from
    /// their persisted checkpoints when those decode).
    pub fn recover(&self, rec: crate::journal::Recovered) {
        let sh = &self.shared;
        for (session, src) in &rec.defs {
            let _ = sh.store.set_defs(session, src);
        }
        {
            let mut done = sh.completed.lock().unwrap();
            for (id, resp) in rec.done {
                done.insert(id, resp);
            }
        }
        for (id, req, ck_text) in rec.inflight {
            match parse_job(&req, sh) {
                Ok((prio, cost, deadline, work)) => {
                    let parked = ck_text.as_deref().and_then(|t| decode_park(&work, t));
                    let job = Job {
                        id: id.clone(),
                        prio,
                        work,
                        parked,
                        deadline: deadline.map(|d| Instant::now() + d),
                        admitted_at: Instant::now(),
                        cost,
                        slices: 0,
                        reply: None,
                    };
                    sh.inflight_ids.lock().unwrap().insert(id, true);
                    sh.inflight_cost.fetch_add(cost, Ordering::SeqCst);
                    bpi_obs::counter("server.recovered", bpi_obs::Det::Advisory).inc();
                    enqueue(sh, job, false);
                }
                Err(resp) => {
                    // The request can no longer be parsed (e.g. its
                    // session defs record was torn away): complete it
                    // with the typed error rather than dropping it.
                    complete_recovered(sh, &id, &resp);
                }
            }
        }
    }

    /// Admission gate. Synchronous ops (`defs`, `parse`, `stats`,
    /// `result`, `shutdown`) never reach here — only costed jobs do.
    pub fn submit(&self, req: &Json) -> Submit {
        let sh = &self.shared;
        if sh.draining.load(Ordering::SeqCst) {
            return Submit::Immediate(reject(RejectReason::Draining, "daemon is shutting down"));
        }
        let Some(id) = req.str_field("id") else {
            return Submit::Immediate(error("bad-request", "missing job id"));
        };
        if !protocol::valid_job_id(id) {
            return Submit::Immediate(error(
                "bad-request",
                "job id must match [A-Za-z0-9_-]{1,64}",
            ));
        }
        let (prio, cost, deadline, work) = match parse_job(req, sh) {
            Ok(x) => x,
            Err(resp) => return Submit::Immediate(resp),
        };
        // Duplicate detection across the journal lifetime.
        {
            let done = sh.completed.lock().unwrap();
            let mut live = sh.inflight_ids.lock().unwrap();
            if done.contains_key(id) || live.contains_key(id) {
                return Submit::Immediate(reject(
                    RejectReason::DuplicateId,
                    "a job with this id already exists",
                ));
            }
            // Reserve the id while still holding the lock, unpublished:
            // `result` does not report it until it is journaled.
            live.insert(id.to_string(), false);
        }
        let unreserve = || {
            sh.inflight_ids.lock().unwrap().remove(id);
        };
        // Cost-budget admission (overload degrades before it degrades
        // anyone else: Low is shed above the threshold).
        let used = sh.inflight_cost.load(Ordering::SeqCst);
        let budget = sh.cfg.state_budget;
        if prio == Priority::Low && (used as f64) >= sh.cfg.shed_fraction * budget as f64 {
            unreserve();
            return Submit::Immediate(reject(
                RejectReason::ShedLowPriority,
                "daemon over shed threshold; resubmit at higher priority or later",
            ));
        }
        if used.saturating_add(cost) > budget {
            unreserve();
            return Submit::Immediate(reject(
                RejectReason::BudgetExhausted,
                "admitting this job would exceed the in-flight state budget",
            ));
        }
        // Write-ahead: journal, then publish the id, then enqueue.
        bpi_semantics::chaos::delay("server.submit.journal");
        if let Err(e) = sh.journal.record_admitted(id, req) {
            unreserve();
            return Submit::Immediate(error("journal", &e.to_string()));
        }
        if let Some(published) = sh.inflight_ids.lock().unwrap().get_mut(id) {
            *published = true;
        }
        let (tx, rx) = bounded::<Json>(1);
        let job = Job {
            id: id.to_string(),
            prio,
            work,
            parked: None,
            deadline: deadline.map(|d| Instant::now() + d),
            admitted_at: Instant::now(),
            cost,
            slices: 0,
            reply: Some(tx),
        };
        sh.inflight_cost.fetch_add(cost, Ordering::SeqCst);
        match sh.queues.fresh_tx[pidx(prio)].try_send(job) {
            Ok(()) => {
                bpi_obs::counter("server.admitted", bpi_obs::Det::Advisory).inc();
                bpi_obs::gauge("server.queue_depth").add(1);
                Submit::Queued(rx)
            }
            Err(TrySendError::Full(job)) => {
                // Roll the reservation back; the journal keeps the
                // admitted record, so recovery must see the rejection
                // too — journal it as the job's final response.
                let resp = reject(RejectReason::QueueFull, "priority queue at capacity");
                sh.inflight_cost.fetch_sub(job.cost, Ordering::SeqCst);
                let _ = sh.journal.record_done(id, &resp);
                sh.completed
                    .lock()
                    .unwrap()
                    .insert(id.to_string(), resp.clone());
                unreserve();
                Submit::Immediate(resp)
            }
            Err(TrySendError::Disconnected(job)) => {
                sh.inflight_cost.fetch_sub(job.cost, Ordering::SeqCst);
                unreserve();
                Submit::Immediate(reject(RejectReason::Draining, "workers stopped"))
            }
        }
    }

    /// Serves `{"op":"result"}`: the journaled final response (byte
    /// identical across restarts), `pending` while in flight.
    pub fn result_of(&self, id: &str) -> Json {
        if let Some(resp) = self.shared.completed.lock().unwrap().get(id) {
            return resp.clone();
        }
        if self.shared.inflight_ids.lock().unwrap().get(id) == Some(&true) {
            return Json::obj(vec![("status", Json::str("pending"))]);
        }
        error("unknown-id", "no such job in this journal")
    }

    /// Current queue depth across all queues (fresh + parked).
    pub fn queue_depth(&self) -> usize {
        let q = &self.shared.queues;
        q.fresh_rx
            .iter()
            .chain(q.parked_rx.iter())
            .map(|r| r.len())
            .sum()
    }

    pub fn inflight_cost(&self) -> usize {
        self.shared.inflight_cost.load(Ordering::SeqCst)
    }

    /// Stops accepting, lets workers finish their current slice, and
    /// joins them. In-flight jobs stay `admitted` in the journal (their
    /// latest checkpoints are already persisted), so a later restart
    /// resumes them — graceful shutdown and crash recovery share one
    /// path.
    pub fn shutdown(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        let mut g = self.workers.lock().unwrap();
        for h in g.drain(..) {
            let _ = h.join();
        }
    }
}

fn reject(reason: RejectReason, detail: &str) -> Json {
    bpi_obs::counter("server.rejected", bpi_obs::Det::Advisory).inc();
    rejected(reason, detail)
}

/// Decodes a persisted checkpoint against the job's work kind, through
/// the hardened codecs; any mismatch or corruption restarts the job
/// from scratch (same verdict, by determinism).
fn decode_park(work: &Work, text: &str) -> Option<ParkState> {
    match work {
        Work::Check { .. } => text
            .parse::<Checkpoint>()
            .ok()
            .map(|ck| ParkState::Check(Box::new(ck))),
        Work::Reliability { .. } => text.parse::<McCheckpoint>().ok().map(ParkState::Mc),
        Work::Explore { .. } => None,
    }
}

/// Decodes one costed request into its scheduling envelope and payload.
#[allow(clippy::type_complexity)]
fn parse_job(req: &Json, sh: &Shared) -> Result<(Priority, usize, Option<Duration>, Work), Json> {
    let op = req.str_field("op").unwrap_or("");
    let session = req.str_field("session").unwrap_or("");
    let prio = match req.str_field("priority") {
        None => Priority::Normal,
        Some(s) => Priority::parse(s)
            .ok_or_else(|| error("bad-request", "priority must be high|normal|low"))?,
    };
    let deadline = match req.get("deadline_ms") {
        None => None,
        Some(v) => Some(Duration::from_millis(v.as_u64().ok_or_else(|| {
            error("bad-request", "deadline_ms must be a non-negative integer")
        })?)),
    };
    let max_states = match req.get("max_states") {
        None => sh.cfg.default_max_states,
        Some(v) => v
            .as_usize()
            .ok_or_else(|| error("bad-request", "max_states must be a non-negative integer"))?
            .clamp(1, sh.cfg.max_max_states),
    };
    let parse_term = |field: &str| -> Result<P, Json> {
        let src = req
            .str_field(field)
            .ok_or_else(|| error("bad-request", &format!("missing field {field:?}")))?;
        sh.store.parse(session, src).map_err(|e| error("parse", &e))
    };
    match op {
        "check" => {
            let v = req
                .str_field("variant")
                .and_then(protocol::variant_from_str)
                .ok_or_else(|| {
                    error(
                        "bad-request",
                        "variant must be one of strong|weak × barbed|step|labelled (e.g. \"weak-labelled\")",
                    )
                })?;
            Ok((
                prio,
                max_states,
                deadline,
                Work::Check {
                    v,
                    left: parse_term("left")?,
                    right: parse_term("right")?,
                    defs: sh.store.defs(session),
                    max_states,
                },
            ))
        }
        "explore" => Ok((
            prio,
            max_states,
            deadline,
            Work::Explore {
                p: parse_term("src")?,
                defs: sh.store.defs(session),
                max_states,
            },
        )),
        "reliability" => {
            let watch = req
                .str_field("watch")
                .ok_or_else(|| error("bad-request", "missing field \"watch\""))?;
            let loss = req
                .get("loss")
                .and_then(Json::as_f64)
                .filter(|p| (0.0..=1.0).contains(p))
                .ok_or_else(|| error("bad-request", "loss must be a probability in [0,1]"))?;
            let seed = req
                .get("seed")
                .map(|v| v.as_u64().ok_or(()))
                .transpose()
                .map_err(|_| error("bad-request", "seed must be a non-negative integer"))?
                .unwrap_or(0);
            let max_steps = req
                .get("max_steps")
                .and_then(Json::as_usize)
                .unwrap_or(64)
                .clamp(1, 100_000);
            let samples = req
                .get("samples")
                .and_then(Json::as_usize)
                .unwrap_or(200)
                .clamp(1, 1_000_000);
            Ok((
                prio,
                samples,
                deadline,
                Work::Reliability {
                    p: parse_term("src")?,
                    defs: sh.store.defs(session),
                    watch: Name::new(watch),
                    loss,
                    seed,
                    max_steps,
                    samples,
                },
            ))
        }
        other => Err(error("bad-request", &format!("unknown op {other:?}"))),
    }
}

fn enqueue(sh: &Shared, job: Job, parked: bool) {
    bpi_obs::gauge("server.queue_depth").add(1);
    let q = if parked {
        &sh.queues.parked_tx
    } else {
        // Recovered fresh jobs bypass the bounded gate (they were
        // admitted once already): use the parked queue on overflow.
        match sh.queues.fresh_tx[pidx(job.prio)].try_send(job) {
            Ok(()) => return,
            Err(TrySendError::Full(j)) | Err(TrySendError::Disconnected(j)) => {
                return enqueue_parked(sh, j);
            }
        }
    };
    let i = pidx(job.prio);
    let _ = q[i].send(job);
}

fn enqueue_parked(sh: &Shared, job: Job) {
    let i = pidx(job.prio);
    let _ = sh.queues.parked_tx[i].send(job);
}

fn complete_recovered(sh: &Shared, id: &str, resp: &Json) {
    let _ = sh.journal.record_done(id, resp);
    sh.completed
        .lock()
        .unwrap()
        .insert(id.to_string(), resp.clone());
    sh.inflight_ids.lock().unwrap().remove(id);
}

/// One worker: scan fresh-then-parked within each priority, run one
/// slice, route the outcome.
fn worker_loop(sh: &Shared) {
    loop {
        if sh.draining.load(Ordering::SeqCst) {
            return;
        }
        let mut got = None;
        'scan: for i in 0..3 {
            for q in [&sh.queues.fresh_rx[i], &sh.queues.parked_rx[i]] {
                if let Ok(job) = q.try_recv() {
                    got = Some(job);
                    break 'scan;
                }
            }
        }
        let Some(job) = got else {
            // Idle: block briefly on the high-priority queue so an idle
            // daemon costs a condvar wait, not a spin.
            if let Ok(job) = sh.queues.fresh_rx[0].recv_timeout(Duration::from_millis(1)) {
                bpi_obs::gauge("server.queue_depth").add(-1);
                run_one_slice(sh, job);
            }
            continue;
        };
        bpi_obs::gauge("server.queue_depth").add(-1);
        run_one_slice(sh, job);
    }
}

fn run_one_slice(sh: &Shared, mut job: Job) {
    // Deadline is checked at every slice boundary *and* inside the
    // engines via the budget — a parked job past its deadline dies here
    // without burning another slice.
    if let Some(d) = job.deadline {
        if Instant::now() >= d {
            return finish(sh, job, error("deadline", "job deadline exceeded"));
        }
    }
    let t0 = Instant::now();
    job.slices += 1;
    let outcome = catch_unwind(AssertUnwindSafe(|| execute_slice(sh, &mut job)));
    bpi_obs::histogram("server.slice_ms").record(t0.elapsed().as_millis() as u64);
    match outcome {
        Ok(SliceResult::Final(resp)) => finish(sh, job, resp),
        Ok(SliceResult::Parked) => {
            bpi_obs::counter("server.preempted", bpi_obs::Det::Advisory).inc();
            enqueue(sh, job, true);
        }
        Err(_) => {
            bpi_obs::counter("server.panics", bpi_obs::Det::Advisory).inc();
            finish(
                sh,
                job,
                error("panic", "engine panicked; worker isolated the failure"),
            );
        }
    }
}

enum SliceResult {
    Final(Json),
    Parked,
}

fn engine_stop(e: &EngineError) -> Json {
    match e {
        EngineError::DeadlineExceeded => error("deadline", "job deadline exceeded"),
        EngineError::StateBudgetExceeded { limit } => error(
            "state-budget",
            &format!("state budget of {limit} states exhausted"),
        ),
        EngineError::PairCeilingExceeded { .. } => error("state-budget", &e.to_string()),
        EngineError::Cancelled => error("cancelled", "job cancelled"),
    }
}

fn execute_slice(sh: &Shared, job: &mut Job) -> SliceResult {
    let fuel = sh.cfg.fuel.max(1);
    // The budget carries only the job's deadline: a job's `max_states`
    // is its engine's own state ceiling (`Opts`, `ExploreOpts`), set once.
    let mut budget = Budget::unlimited();
    if let Some(d) = job.deadline {
        budget = budget.with_deadline_at(d);
    }
    match &job.work {
        Work::Check {
            v,
            left,
            right,
            defs,
            max_states,
        } => {
            let opts = Opts {
                max_states: *max_states,
                ..Opts::default()
            };
            let checker = Checker::with_opts(defs, opts).with_budget(budget);
            let from = match job.parked.take() {
                Some(ParkState::Check(ck)) => Some(*ck),
                _ => None,
            };
            match checker.run_slice(*v, left, right, from, fuel) {
                Ok(SliceOutcome::Done { holds, explanation }) => SliceResult::Final(ok(vec![
                    ("op", Json::str("check")),
                    ("variant", Json::str(protocol::variant_to_str(*v))),
                    ("holds", Json::Bool(holds)),
                    (
                        "explanation",
                        explanation.map(Json::Str).unwrap_or(Json::Null),
                    ),
                ])),
                Ok(SliceOutcome::Parked(ck)) => {
                    let _ = sh.journal.save_checkpoint(&job.id, &ck.to_text());
                    job.parked = Some(ParkState::Check(ck));
                    SliceResult::Parked
                }
                Err(i) => SliceResult::Final(engine_stop(&i.error)),
            }
        }
        Work::Explore {
            p,
            defs,
            max_states,
        } => {
            let opts = ExploreOpts {
                max_states: *max_states,
                ..ExploreOpts::default()
            };
            // Exploration is cost-bounded by `max_states`, so it runs in
            // one slice; `explore_budgeted` never panics and reports
            // truncation in-band.
            let g = explore_budgeted(p, defs, opts, &budget);
            let edges: usize = g.edges.iter().map(Vec::len).sum();
            SliceResult::Final(ok(vec![
                ("op", Json::str("explore")),
                ("states", Json::num(g.states.len() as f64)),
                ("edges", Json::num(edges as f64)),
                ("truncated", Json::Bool(g.truncated)),
                (
                    "interrupted",
                    g.interrupted
                        .as_ref()
                        .map(|e| Json::str(e.to_string()))
                        .unwrap_or(Json::Null),
                ),
            ]))
        }
        Work::Reliability {
            p,
            defs,
            watch,
            loss,
            seed,
            max_steps,
            samples,
        } => {
            let plan = match FaultPlan::new(*seed).with_default_loss(*loss) {
                Ok(pl) => pl,
                Err(e) => return SliceResult::Final(error("bad-request", &e.to_string())),
            };
            let cfg: CheckpointCfg<McCheckpoint> = CheckpointCfg::fuelled(fuel);
            let tank = cfg.fuel.clone().expect("fuelled cfg has a tank");
            let from = match job.parked.take() {
                Some(ParkState::Mc(m)) => m,
                _ => McCheckpoint {
                    done: 0,
                    successes: 0,
                },
            };
            match convergence_mc_resume(
                p, defs, &plan, *watch, *max_steps, *samples, &budget, &cfg, from,
            ) {
                Ok(est) => SliceResult::Final(ok(vec![
                    ("op", Json::str("reliability")),
                    ("probability", Json::num(est.probability)),
                    ("ci_lo", Json::num(est.ci.0)),
                    ("ci_hi", Json::num(est.ci.1)),
                    ("samples", Json::num(est.samples as f64)),
                    ("successes", Json::num(est.successes as f64)),
                ])),
                Err(i) if i.error == EngineError::Cancelled && tank.load(Ordering::SeqCst) == 0 => {
                    let _ = sh
                        .journal
                        .save_checkpoint(&job.id, &i.checkpoint.to_string());
                    job.parked = Some(ParkState::Mc(i.checkpoint));
                    SliceResult::Parked
                }
                Err(i) => SliceResult::Final(engine_stop(&i.error)),
            }
        }
    }
}

fn finish(sh: &Shared, job: Job, resp: Json) {
    let _ = sh.journal.record_done(&job.id, &resp);
    sh.journal.remove_checkpoint(&job.id);
    sh.completed
        .lock()
        .unwrap()
        .insert(job.id.clone(), resp.clone());
    sh.inflight_ids.lock().unwrap().remove(&job.id);
    sh.inflight_cost.fetch_sub(job.cost, Ordering::SeqCst);
    bpi_obs::counter("server.completed", bpi_obs::Det::Advisory).inc();
    bpi_obs::histogram("server.latency_ms").record(job.admitted_at.elapsed().as_millis() as u64);
    bpi_obs::histogram("server.slices_per_job").record(u64::from(job.slices));
    if let Some(tx) = job.reply {
        let _ = tx.send(resp);
    }
}
