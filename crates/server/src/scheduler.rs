//! Admission control and the preemptive worker pool.
//!
//! ## Admission
//!
//! Every queued op carries a *cost* (its state budget for `check` /
//! `explore`, its sample count for `reliability`). Admission is refused
//! with a typed [`RejectReason`] when:
//!
//! * the job's priority has `queue_cap` fresh jobs waiting (the test
//!   runs under the run queue's lock, so queue depth can never grow
//!   without bound),
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
//! ## The run queue
//!
//! Waiting jobs sit in six lanes, a fresh and a parked one per priority,
//! under one lock. Every push notifies one condvar, on which idle workers
//! wait with no timeout. A recovered job is queued with its journaled
//! checkpoint as text, and its first slice decodes it.
//!
//! ## Fair scheduling by checkpoint preemption
//!
//! Workers run jobs in fuel-bounded slices ([`Checker::run_slice`] for
//! `check`, a fuelled [`CheckpointCfg`] for `reliability`). A job whose
//! slice parks goes to the back of its priority's *parked* lane and its
//! checkpoint is persisted; the scan order (fresh before parked within
//! each priority) means short fresh jobs overtake long parked ones, so
//! a single huge check can never starve the queue behind it. Because
//! the engines park and resume only at unit boundaries, the sliced
//! verdict is bit-identical to an uninterrupted run.
//!
//! ## Isolation
//!
//! Each slice runs under `catch_unwind`, the workspace's one panic
//! isolation: a panic inside an engine or a checkpoint decoder produces
//! a typed `{"status":"error","error":"panic"}` response and the worker
//! moves on — one poisoned job cannot take the daemon down.

use crate::journal::Journal;
use crate::json::Json;
use crate::protocol::{self, error, ok, rejected, Priority, RejectReason};
use crate::store::Store;
use bpi_core::syntax::{Defs, P};
use bpi_core::Name;
use bpi_equiv::checkpoint::Checkpoint;
use bpi_equiv::{Checker, Opts, SliceOutcome, Variant};
use bpi_obs::{Counter, Histogram};
use bpi_semantics::{
    convergence_mc_resume, explore_budgeted, Budget, CheckpointCfg, EngineError, ExploreOpts,
    FaultPlan, McCheckpoint,
};
use crossbeam::channel::{bounded, Receiver, Sender};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
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
    /// A recovered job's journaled checkpoint, decoded by its first slice.
    Journaled(String),
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

/// Where a push goes within its job's priority: `Fresh` is admission,
/// refused at `queue_cap`; a `Recovered` job was admitted once already
/// and overflows into the parked lane.
#[derive(Clone, Copy, Debug)]
enum Lane {
    Fresh,
    Recovered,
    Parked,
}

/// Every waiting job, in six lanes under one lock: fresh then parked
/// for `High`, `Normal` and `Low`, which is the scan order.
#[derive(Default)]
struct Lanes {
    lanes: [VecDeque<(Instant, Job)>; 6],
    draining: bool,
}

/// The run queue: one lock, and one condvar that every push notifies and
/// idle workers wait on.
struct RunQueue {
    state: Mutex<Lanes>,
    ready: Condvar,
    /// Capacity of each priority's fresh lane.
    cap: usize,
    idle_wakeups: &'static Counter,
    queue_wait_us: &'static Histogram,
}

impl RunQueue {
    fn new(cap: usize) -> RunQueue {
        RunQueue {
            state: Mutex::default(),
            ready: Condvar::new(),
            cap: cap.max(1),
            idle_wakeups: bpi_obs::counter("server.idle_wakeups", bpi_obs::Det::Advisory),
            queue_wait_us: bpi_obs::histogram("server.queue_wait_us"),
        }
    }

    fn lanes(&self) -> MutexGuard<'_, Lanes> {
        self.state
            .lock()
            .expect("no code panics under the run queue lock")
    }

    /// Queues `job` on `lane` of its priority and wakes one idle worker;
    /// false when a full fresh lane refuses an admission.
    fn push(&self, job: Job, lane: Lane) -> bool {
        let mut g = self.lanes();
        let fresh = 2 * job.prio as usize;
        let full = g.lanes[fresh].len() >= self.cap;
        let i = match lane {
            Lane::Fresh if full => return false,
            Lane::Fresh => fresh,
            Lane::Recovered if !full => fresh,
            Lane::Recovered | Lane::Parked => fresh + 1,
        };
        g.lanes[i].push_back((Instant::now(), job));
        drop(g);
        bpi_obs::gauge("server.queue_depth").add(1);
        bpi_semantics::chaos::delay("server.runqueue.push");
        self.ready.notify_one();
        true
    }

    /// The first job in scan order, waiting (untimed) while every lane is
    /// empty; `None` once the queue drains.
    fn pop(&self) -> Option<Job> {
        bpi_semantics::chaos::delay("server.runqueue.pop");
        let mut g = self.lanes();
        loop {
            if g.draining {
                return None;
            }
            if let Some((at, job)) = g.lanes.iter_mut().find_map(VecDeque::pop_front) {
                drop(g);
                bpi_obs::gauge("server.queue_depth").add(-1);
                self.queue_wait_us.record(at.elapsed().as_micros() as u64);
                return Some(job);
            }
            g = self
                .ready
                .wait(g)
                .expect("no code panics under the run queue lock");
            if !g.draining && g.lanes.iter().all(VecDeque::is_empty) {
                self.idle_wakeups.inc();
            }
        }
    }

    /// Stops every worker at its next pop: sets the drain flag under the
    /// lock, then wakes them all. Queued jobs stay queued (and journaled).
    fn drain(&self) {
        self.lanes().draining = true;
        self.ready.notify_all();
    }

    fn depth(&self) -> usize {
        self.lanes().lanes.iter().map(VecDeque::len).sum()
    }
}

struct Shared {
    cfg: SchedCfg,
    store: Arc<Store>,
    journal: Arc<Journal>,
    queue: RunQueue,
    /// Summed cost of admitted-but-unfinished jobs.
    inflight_cost: AtomicUsize,
    /// Every job id of the journal's lifetime and where it stands, under
    /// one lock, so that `result` reads one state and duplicate detection
    /// sees in-flight and finished ids alike.
    jobs: Mutex<HashMap<String, JobState>>,
}

/// Where a job stands, as `result` reports it.
enum JobState {
    /// Admission under way and not yet journaled: `result` answers
    /// `unknown-id`, so a client never sees a job a crash can lose.
    Reserved,
    /// Journaled and in flight: `result` answers `pending`.
    Pending,
    /// The final response, served byte-identically.
    Done(Json),
}

pub struct Scheduler {
    shared: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Scheduler {
    pub fn new(cfg: SchedCfg, store: Arc<Store>, journal: Arc<Journal>) -> Scheduler {
        let shared = Arc::new(Shared {
            queue: RunQueue::new(cfg.queue_cap),
            cfg,
            store,
            journal,
            inflight_cost: AtomicUsize::new(0),
            jobs: Mutex::new(HashMap::new()),
        });
        let workers = (0..shared.cfg.workers.max(1))
            .map(|i| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("bpi-worker-{i}"))
                    .spawn(move || {
                        // Take the next job in scan order, run one slice,
                        // route the outcome; stop once the queue drains.
                        while let Some(job) = sh.queue.pop() {
                            run_one_slice(&sh, job);
                        }
                    })
                    .expect("spawn worker")
            })
            .collect();
        Scheduler {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// Replays a recovered journal: definitions first, then completed
    /// verdicts, then re-admission of in-flight jobs, each with its
    /// persisted checkpoint as text for its first slice to decode.
    pub fn recover(&self, rec: crate::journal::Recovered) {
        let sh = &self.shared;
        for (session, src) in &rec.defs {
            let _ = sh.store.set_defs(session, src);
        }
        let done = rec
            .done
            .into_iter()
            .map(|(id, resp)| (id, JobState::Done(resp)));
        sh.jobs.lock().unwrap().extend(done);
        for (id, req, ck_text) in rec.inflight {
            match parse_job(&req, sh) {
                Ok((prio, cost, deadline, work)) => {
                    let job = Job {
                        id: id.clone(),
                        prio,
                        work,
                        parked: ck_text.map(ParkState::Journaled),
                        deadline: deadline.map(|d| Instant::now() + d),
                        admitted_at: Instant::now(),
                        cost,
                        slices: 0,
                        reply: None,
                    };
                    sh.jobs.lock().unwrap().insert(id, JobState::Pending);
                    sh.inflight_cost.fetch_add(cost, Ordering::SeqCst);
                    bpi_obs::counter("server.recovered", bpi_obs::Det::Advisory).inc();
                    sh.queue.push(job, Lane::Recovered);
                }
                Err(resp) => {
                    // The request can no longer be parsed (e.g. its
                    // session defs record was torn away): complete it
                    // with the typed error rather than dropping it.
                    let _ = sh.journal.record_done(&id, &resp);
                    sh.jobs.lock().unwrap().insert(id, JobState::Done(resp));
                }
            }
        }
    }

    /// Admission gate. Synchronous ops (`defs`, `parse`, `stats`,
    /// `result`, `shutdown`) never reach here — only costed jobs do.
    pub fn submit(&self, req: &Json) -> Submit {
        let sh = &self.shared;
        if sh.queue.lanes().draining {
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
        // Duplicate detection across the journal lifetime; the id is
        // reserved under the same lock.
        {
            let mut jobs = sh.jobs.lock().unwrap();
            if jobs.contains_key(id) {
                return Submit::Immediate(reject(
                    RejectReason::DuplicateId,
                    "a job with this id already exists",
                ));
            }
            jobs.insert(id.to_string(), JobState::Reserved);
        }
        let unreserve = || {
            sh.jobs.lock().unwrap().remove(id);
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
        sh.jobs
            .lock()
            .unwrap()
            .insert(id.to_string(), JobState::Pending);
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
        if sh.queue.push(job, Lane::Fresh) {
            bpi_obs::counter("server.admitted", bpi_obs::Det::Advisory).inc();
            return Submit::Queued(rx);
        }
        // Roll the reservation back; the journal keeps the admitted
        // record, so recovery must see the rejection too — journal it as
        // the job's final response.
        let resp = reject(RejectReason::QueueFull, "priority queue at capacity");
        sh.inflight_cost.fetch_sub(cost, Ordering::SeqCst);
        let _ = sh.journal.record_done(id, &resp);
        let done = JobState::Done(resp.clone());
        sh.jobs.lock().unwrap().insert(id.to_string(), done);
        Submit::Immediate(resp)
    }

    /// Serves `{"op":"result"}`: the journaled final response (byte
    /// identical across restarts), `pending` while in flight.
    pub fn result_of(&self, id: &str) -> Json {
        match self.shared.jobs.lock().unwrap().get(id) {
            Some(JobState::Done(resp)) => resp.clone(),
            Some(JobState::Pending) => Json::obj(vec![("status", Json::str("pending"))]),
            Some(JobState::Reserved) | None => error("unknown-id", "no such job in this journal"),
        }
    }

    /// Current queue depth across all lanes (fresh + parked).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.depth()
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
        self.shared.queue.drain();
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

/// Decodes a recovered job's checkpoint against its work kind, through
/// the hardened codecs. A checkpoint that no longer decodes (corrupt, or
/// a retired format) reruns the job from scratch: the same verdict, by
/// determinism.
fn decode_park(work: &Work, text: &str) -> Option<ParkState> {
    let parked = match work {
        Work::Check { .. } => text
            .parse::<Checkpoint>()
            .ok()
            .map(|ck| ParkState::Check(Box::new(ck))),
        Work::Reliability { .. } => text.parse::<McCheckpoint>().ok().map(ParkState::Mc),
        Work::Explore { .. } => None,
    };
    if parked.is_none() {
        bpi_obs::counter("server.recover.reruns", bpi_obs::Det::Advisory).inc();
    }
    parked
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
            sh.queue.push(job, Lane::Parked);
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
    if let Some(ParkState::Journaled(text)) = &job.parked {
        job.parked = decode_park(&job.work, text);
    }
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
    let done = JobState::Done(resp.clone());
    sh.jobs.lock().unwrap().insert(job.id.clone(), done);
    sh.inflight_cost.fetch_sub(job.cost, Ordering::SeqCst);
    bpi_obs::counter("server.completed", bpi_obs::Det::Advisory).inc();
    bpi_obs::histogram("server.latency_ms").record(job.admitted_at.elapsed().as_millis() as u64);
    bpi_obs::histogram("server.slices_per_job").record(u64::from(job.slices));
    if let Some(tx) = job.reply {
        let _ = tx.send(resp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// Long enough for any wake-up, short enough that a lost one fails
    /// the test instead of hanging it.
    const WATCHDOG: Duration = Duration::from_secs(5);

    fn job(id: &str, prio: Priority) -> Job {
        Job {
            id: id.to_string(),
            prio,
            work: Work::Explore {
                p: bpi_core::builder::nil(),
                defs: Defs::new(),
                max_states: 1,
            },
            parked: None,
            deadline: None,
            admitted_at: Instant::now(),
            cost: 0,
            slices: 0,
            reply: None,
        }
    }

    /// One `pop` on its own thread; its answer arrives on the receiver.
    fn popper(q: &Arc<RunQueue>) -> mpsc::Receiver<Option<String>> {
        let (tx, rx) = mpsc::channel();
        let q = Arc::clone(q);
        std::thread::spawn(move || {
            let _ = tx.send(q.pop().map(|j| j.id));
        });
        rx
    }

    /// Waits out a popper that must still be blocked, so the next push
    /// or drain has to wake it.
    fn assert_blocked(rx: &mpsc::Receiver<Option<String>>) {
        let early = rx.recv_timeout(Duration::from_millis(30));
        assert!(early.is_err(), "pop returned {early:?} from empty lanes");
    }

    fn pop_within(q: &Arc<RunQueue>) -> Option<String> {
        popper(q)
            .recv_timeout(WATCHDOG)
            .expect("pop never returned")
    }

    const PRIOS: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];

    #[test]
    fn a_blocked_pop_returns_the_job_pushed_on_each_lane() {
        let q = Arc::new(RunQueue::new(4));
        for prio in PRIOS {
            for lane in [Lane::Fresh, Lane::Parked] {
                let id = format!("{prio:?}-{lane:?}");
                let rx = popper(&q);
                assert_blocked(&rx);
                assert!(q.push(job(&id, prio), lane));
                let got = rx.recv_timeout(WATCHDOG);
                assert_eq!(got, Ok(Some(id.clone())), "lost wake-up on {id}");
            }
        }
    }

    #[test]
    fn pops_follow_priority_then_fresh_before_parked() {
        let q = Arc::new(RunQueue::new(4));
        let mut expected = Vec::new();
        for prio in PRIOS {
            for lane in [Lane::Fresh, Lane::Parked] {
                for k in 0..2 {
                    expected.push(format!("{prio:?}-{lane:?}-{k}"));
                }
            }
        }
        // Pushed in reverse scan order; each lane is FIFO.
        for prio in PRIOS.into_iter().rev() {
            for lane in [Lane::Parked, Lane::Fresh] {
                for k in 0..2 {
                    let id = format!("{prio:?}-{lane:?}-{k}");
                    assert!(q.push(job(&id, prio), lane));
                }
            }
        }
        assert_eq!(q.depth(), expected.len());
        let got: Vec<String> = expected.iter().filter_map(|_| pop_within(&q)).collect();
        assert_eq!(got, expected);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn a_full_fresh_lane_refuses_and_recovery_overflows_into_parked() {
        let q = Arc::new(RunQueue::new(2));
        let (normal, low) = (Priority::Normal, Priority::Low);
        for k in 0..2 {
            assert!(q.push(job(&format!("fresh-{k}"), normal), Lane::Fresh));
        }
        assert!(!q.push(job("refused", normal), Lane::Fresh));
        // The cap is per priority, and parked lanes take any number.
        assert!(q.push(job("high", Priority::High), Lane::Fresh));
        for k in 0..10 {
            assert!(q.push(job(&format!("parked-{k}"), normal), Lane::Parked));
        }
        // A recovered job overflows the full fresh lane into parked, and
        // takes the fresh lane when it has room.
        assert!(q.push(job("recovered", normal), Lane::Recovered));
        assert!(q.push(job("low-parked", low), Lane::Parked));
        assert!(q.push(job("low-recovered", low), Lane::Recovered));
        let mut expected = vec!["high", "fresh-0", "fresh-1"];
        let parked: Vec<String> = (0..10).map(|k| format!("parked-{k}")).collect();
        expected.extend(parked.iter().map(String::as_str));
        expected.extend(["recovered", "low-recovered", "low-parked"]);
        let got: Vec<String> = expected.iter().filter_map(|_| pop_within(&q)).collect();
        assert_eq!(got, expected);
    }

    /// A journaled job's `result` reads `pending` until it reads the final
    /// response, never `unknown-id`, even when a poll races the worker
    /// that finishes the job.
    #[test]
    fn result_polls_see_pending_or_the_final_response() {
        const JOBS: usize = 400;
        let dir = std::env::temp_dir().join(format!("bpi-result-poll-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let journal = Arc::new(Journal::open(&dir).expect("open journal"));
        let cfg = SchedCfg {
            queue_cap: JOBS,
            state_budget: usize::MAX,
            ..SchedCfg::default()
        };
        let sched = Arc::new(Scheduler::new(cfg, Arc::new(Store::new()), journal));
        let admitted = Arc::new(AtomicUsize::new(0));
        let id = |k: usize| format!("tiny-{k}");
        let poller = {
            let (sched, admitted) = (Arc::clone(&sched), Arc::clone(&admitted));
            std::thread::spawn(move || {
                let mut finals: Vec<Option<String>> = vec![None; JOBS];
                while finals.iter().any(Option::is_none) {
                    for (k, last) in finals.iter_mut().enumerate() {
                        if last.is_some() || k >= admitted.load(Ordering::SeqCst) {
                            continue;
                        }
                        let r = sched.result_of(&id(k));
                        match r.str_field("status") {
                            Some("pending") => {}
                            Some("ok") => *last = Some(r.to_string()),
                            _ => panic!("job {k} is admitted, yet result answered {r}"),
                        }
                    }
                }
                finals
            })
        };
        let replies: Vec<Receiver<Json>> = (0..JOBS)
            .map(|k| {
                let req = Json::obj(vec![
                    ("op", Json::str("check")),
                    ("id", Json::str(id(k))),
                    ("variant", Json::str("strong-labelled")),
                    ("left", Json::str("a<>")),
                    ("right", Json::str("a<>")),
                ]);
                let Submit::Queued(rx) = sched.submit(&req) else {
                    panic!("job {k} was not admitted");
                };
                admitted.store(k + 1, Ordering::SeqCst);
                rx
            })
            .collect();
        let finals = poller.join().expect("every poll answers pending or final");
        for (k, (rx, last)) in replies.iter().zip(finals).enumerate() {
            let reply = rx.recv_timeout(WATCHDOG).expect("every job replies");
            assert_eq!(last, Some(reply.to_string()), "job {k}");
        }
        sched.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn draining_wakes_every_blocked_worker() {
        let q = Arc::new(RunQueue::new(4));
        let waiting: Vec<_> = (0..4).map(|_| popper(&q)).collect();
        for rx in &waiting {
            assert_blocked(rx);
        }
        q.drain();
        for rx in &waiting {
            assert_eq!(
                rx.recv_timeout(WATCHDOG),
                Ok(None),
                "a worker slept through the drain"
            );
        }
        // A drained queue keeps what it holds and hands out nothing.
        assert!(q.push(job("late", Priority::High), Lane::Fresh));
        assert_eq!(pop_within(&q), None);
        assert_eq!(q.depth(), 1);
    }
}
