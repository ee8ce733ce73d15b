//! Fault-injection runtime: lossy and crashy broadcast.
//!
//! The bπ-calculus models *reliable* broadcast — one output reaches every
//! listening component in the same transition (rules (12)–(14)). Real
//! broadcast media drop messages and lose nodes, and the paper's own
//! treatment of unreliability is the **noise** process `!a(x̃).0` of
//! axiom (H): a station that absorbs every broadcast on `a` and never
//! answers. This module makes that connection executable:
//!
//! * [`FaultPlan`] — a seeded, deterministic description of injected
//!   faults: per-channel message-loss probabilities, one-shot crash-stop
//!   and intermittent stop/resume faults per node, and a *bounded* number
//!   of delivery refusals (the finite "noise budget" of axiom (H));
//! * [`FaultySimulator`] — a random walker over the LTS, like
//!   [`crate::sim::Simulator`], except that broadcast delivery to each
//!   top-level parallel component is mediated by the plan. Every injected
//!   event is recorded in a [`FaultLog`] so a run can be replayed and
//!   audited;
//! * [`lossy_traces`] — *exhaustive* bounded trace semantics under
//!   adversarial loss on one channel, for checking the encoding theorem:
//!   dropping deliveries on `a` is trace-indistinguishable from composing
//!   with the noise process `!a(x̃).0` (see below), while unrestricted
//!   per-receiver loss can strictly *enlarge* the trace set — broadcast
//!   makes "missing a message" observable (see
//!   `loss_can_enable_new_behaviour`);
//! * [`noise`] and [`deafen`] — the paper-style noise process and a
//!   syntactic transform that stops a process listening on a channel,
//!   the two ingredients of the encoding check.
//!
//! ## Fault granularity
//!
//! Faults attach to the **top-level parallel components** of the system
//! (its "nodes"), in the sense of [`bpi_core::builder::components`]:
//! intra-node delivery is reliable, inter-node delivery on channel `a` is
//! dropped with the plan's loss probability for `a`. This matches the
//! intuition of stations on a shared medium and keeps the reliable
//! fragment of every run a genuine LTS execution: each recorded action is
//! a real transition of the respective component, and a lost delivery is
//! exactly a component that behaved as if it were the noise process for
//! that one broadcast. A broadcast that a node blocks (it listens on
//! the channel at another arity only) is no step, faulty or not.

use crate::lts::Lts;
use crate::sim::Trace;
use bpi_core::action::Action;
use bpi_core::builder::{components, inp, par_of, rec, var};
use bpi_core::name::Name;
use bpi_core::record::{fields, parse, Reader, Writer};
use bpi_core::subst::{unfold_call, unfold_rec};
use bpi_core::syntax::{Defs, Ident, Prefix, Process, RecDef, P};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::fmt;
use std::str::FromStr;

/// The paper's noise process `!a(x̃).0` at the given arity: forever
/// receive on `a` and do nothing. Encoded with `rec`, the calculus' own
/// replication: `(rec X(a). a(x̃).X⟨a⟩)⟨a⟩`.
///
/// Receiving returns it to itself *syntactically*, which is the formal
/// heart of the lossy-broadcast encoding: delivering a message to noise
/// and refusing to deliver it leave the very same state behind.
pub fn noise(a: Name, arity: usize) -> P {
    let id = Ident::new("Noise");
    let binders: Vec<Name> = (0..arity)
        .map(|i| Name::intern_raw(&format!("!nx{i}")))
        .collect();
    rec(id, [a], inp(a, binders, var(id, [a])), [a])
}

/// Rewrites every input prefix listening on the *free* channel `a` to
/// listen on a fresh "deaf" channel instead, so the result never receives
/// a broadcast on `a` (it discards, rule (14)). Binders shadowing `a`
/// (input objects, `νa`, `rec` parameters) are respected: occurrences of
/// `a` under them are different names and stay untouched.
pub fn deafen(p: &P, a: Name) -> P {
    let deaf = Name::intern_raw(&format!("{a}!deaf"));
    fn go(p: &P, a: Name, deaf: Name) -> P {
        match &**p {
            Process::Nil | Process::Call(..) | Process::Var(..) => p.clone(),
            Process::Act(pre, cont) => {
                let pre2 = match pre {
                    Prefix::Input(b, xs) if *b == a => Prefix::Input(deaf, xs.clone()),
                    other => other.clone(),
                };
                let shadowed = matches!(pre, Prefix::Input(_, xs) if xs.contains(&a));
                let cont2 = if shadowed {
                    cont.clone()
                } else {
                    go(cont, a, deaf)
                };
                Process::Act(pre2, cont2).rc()
            }
            Process::Sum(l, r) => Process::Sum(go(l, a, deaf), go(r, a, deaf)).rc(),
            Process::Par(l, r) => Process::Par(go(l, a, deaf), go(r, a, deaf)).rc(),
            Process::New(x, _) if *x == a => p.clone(),
            Process::New(x, cont) => Process::New(*x, go(cont, a, deaf)).rc(),
            Process::Match(x, y, l, r) => {
                Process::Match(*x, *y, go(l, a, deaf), go(r, a, deaf)).rc()
            }
            Process::Rec(def, args) => {
                if def.params.contains(&a) {
                    return p.clone();
                }
                Process::Rec(
                    RecDef {
                        ident: def.ident,
                        params: def.params.clone(),
                        body: go(&def.body, a, deaf),
                    },
                    args.clone(),
                )
                .rc()
            }
        }
    }
    go(p, a, deaf)
}

/// One injected fault, as it happened during a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// A broadcast on `chan` at step `step` was not delivered to `node`
    /// (which was listening and would have received it).
    MessageLost {
        step: usize,
        chan: Name,
        node: usize,
    },
    /// `node` refused one delivery out of its bounded noise budget
    /// (axiom (H)-style finite unreliability).
    DeliveryRefused {
        step: usize,
        chan: Name,
        node: usize,
    },
    /// `node` crash-stopped permanently at `step`.
    Crashed { step: usize, node: usize },
    /// `node` was frozen at `step` (it neither sends nor receives).
    Stopped { step: usize, node: usize },
    /// `node` resumed from its frozen state at `step`.
    Resumed { step: usize, node: usize },
}

/// Everything the fault injector did during one run, in order. Two runs
/// under the same [`FaultPlan`] produce identical logs, so a log together
/// with its plan is a complete replay recipe.
///
/// Logs serialise through the versioned `bpi-fault-log/v1` text codec
/// (one tab-separated record per event), so a persisted log replays
/// bit-for-bit after a round trip.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultLog {
    pub events: Vec<FaultEvent>,
}

impl FaultLog {
    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of lost deliveries.
    pub fn losses(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, FaultEvent::MessageLost { .. }))
            .count()
    }

    /// Number of budgeted delivery refusals.
    pub fn refusals(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, FaultEvent::DeliveryRefused { .. }))
            .count()
    }
}

const FAULT_LOG_HEADER: &str = "bpi-fault-log/v1";

impl fmt::Display for FaultLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut w = Writer::new(f, FAULT_LOG_HEADER)?;
        for ev in &self.events {
            match ev {
                FaultEvent::MessageLost { step, chan, node } => {
                    w.field("lost", format_args!("{step}\t{node}\t{chan}"))?
                }
                FaultEvent::DeliveryRefused { step, chan, node } => {
                    w.field("refused", format_args!("{step}\t{node}\t{chan}"))?
                }
                FaultEvent::Crashed { step, node } => {
                    w.field("crashed", format_args!("{step}\t{node}"))?
                }
                FaultEvent::Stopped { step, node } => {
                    w.field("stopped", format_args!("{step}\t{node}"))?
                }
                FaultEvent::Resumed { step, node } => {
                    w.field("resumed", format_args!("{step}\t{node}"))?
                }
            }
        }
        Ok(())
    }
}

/// Typed decode failure for the `bpi-fault-log/v1` codec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultLogParseError(pub String);

impl fmt::Display for FaultLogParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bpi-fault-log/v1: {}", self.0)
    }
}

impl std::error::Error for FaultLogParseError {}

impl FromStr for FaultLog {
    type Err = FaultLogParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let decode = || -> Result<FaultLog, String> {
            let mut r = Reader::new(s, FAULT_LOG_HEADER)?;
            let mut events = Vec::new();
            for rec in r.records() {
                let (tag, rest) = rec?;
                let ev = match tag {
                    "lost" | "refused" => {
                        let [step, node, chan] = fields(rest)?;
                        let (step, node) = (parse(step, "step")?, parse(node, "node")?);
                        let chan = parse(chan, "channel")?;
                        if tag == "lost" {
                            FaultEvent::MessageLost { step, chan, node }
                        } else {
                            FaultEvent::DeliveryRefused { step, chan, node }
                        }
                    }
                    "crashed" | "stopped" | "resumed" => {
                        let [step, node] = fields(rest)?;
                        let (step, node) = (parse(step, "step")?, parse(node, "node")?);
                        match tag {
                            "crashed" => FaultEvent::Crashed { step, node },
                            "stopped" => FaultEvent::Stopped { step, node },
                            _ => FaultEvent::Resumed { step, node },
                        }
                    }
                    _ => return Err(format!("unknown event {tag:?}")),
                };
                events.push(ev);
            }
            Ok(FaultLog { events })
        };
        decode().map_err(FaultLogParseError)
    }
}

/// Rejected [`FaultPlan`] configuration. Probabilities outside `[0, 1]`
/// (or NaN) used to be silently clamped; they are now surfaced at
/// construction so a typo'd loss sweep fails loudly instead of quietly
/// saturating at certainty.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultError {
    /// `what` names the offending knob (`"default_loss"`,
    /// `"channel_loss"`, `"refusal_prob"`), `value` is what the caller
    /// passed.
    InvalidProbability { what: &'static str, value: f64 },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::InvalidProbability { what, value } => {
                write!(f, "{what} = {value} is not a probability in [0, 1]")
            }
        }
    }
}

impl std::error::Error for FaultError {}

fn check_prob(what: &'static str, p: f64) -> Result<f64, FaultError> {
    if (0.0..=1.0).contains(&p) {
        Ok(p)
    } else {
        Err(FaultError::InvalidProbability { what, value: p })
    }
}

/// Deterministic seeded exponential backoff with jitter.
///
/// Retrying immediately after a lost broadcast wastes attempts exactly
/// when the medium is congested; production retry loops space attempts
/// exponentially and jitter them so synchronised senders de-correlate.
/// This helper is the workspace's one source of such schedules, and it
/// is a *pure function* of `(seed, attempt)` — no hidden RNG state — so
/// anything built on it (the retrying relay/transaction encodings, the
/// load generator's reconnect loop) replays bit-identically: the same
/// seed always yields the same schedule, and [`FaultLog`] replays of a
/// backoff-spaced run are as reproducible as immediate-retry ones.
///
/// Delays are abstract units — τ-steps when a schedule is compiled into
/// a process term, milliseconds in a client reconnect loop. Attempt `k`
/// waits in `[e/2, e]` where `e = min(base · 2ᵏ, cap)` ("equal jitter":
/// at least half the exponential envelope, never more than all of it).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Backoff {
    seed: u64,
    base: u32,
    cap: u32,
}

impl Backoff {
    /// A schedule with base delay 1 and cap 8, jittered from `seed`.
    pub fn new(seed: u64) -> Backoff {
        Backoff {
            seed,
            base: 1,
            cap: 8,
        }
    }

    /// Sets the delay of attempt 0 (clamped to ≥ 1).
    pub fn with_base(mut self, base: u32) -> Backoff {
        self.base = base.max(1);
        self
    }

    /// Sets the ceiling the exponential envelope saturates at (clamped
    /// to ≥ base).
    pub fn with_cap(mut self, cap: u32) -> Backoff {
        self.cap = cap.max(self.base);
        self
    }

    /// The seed the jitter flows from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The saturated exponential envelope of attempt `attempt`, before
    /// jitter: `min(base · 2^attempt, cap)`.
    pub fn envelope(&self, attempt: u32) -> u32 {
        self.base
            .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
            .min(self.cap)
    }

    /// The jittered delay before retry `attempt` (0-based). Pure in
    /// `(seed, attempt)`: calling it twice, in any order, from any
    /// thread, gives the same answer.
    pub fn delay(&self, attempt: u32) -> u32 {
        let e = self.envelope(attempt);
        let half = e / 2;
        let r = splitmix64(self.seed ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        half + (r % u64::from(e - half + 1)) as u32
    }

    /// The first `attempts` delays, in order.
    pub fn schedule(&self, attempts: u32) -> Vec<u32> {
        (0..attempts).map(|k| self.delay(k)).collect()
    }
}

/// SplitMix64 — the standard seed-scrambling finaliser, and the crate's
/// one copy of it: it decorrelates the retry jitter here, the
/// Monte-Carlo sample seeds (`prob::sample_seed`) and the chaos
/// harness's per-site draws, each a pure function of its seed, without
/// dragging in an RNG object.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A seeded, deterministic description of the faults to inject into a
/// run. The same plan always injects the same faults against the same
/// system: all randomness flows from `seed`.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    seed: u64,
    /// Loss probability for channels without an override.
    default_loss: f64,
    /// Per-channel loss probability overrides.
    channel_loss: Vec<(Name, f64)>,
    /// `(step, node)` — permanent crash-stop faults.
    crashes: Vec<(usize, usize)>,
    /// `(from_step, to_step, node)` — intermittent stop/resume faults.
    stops: Vec<(usize, usize, usize)>,
    /// Probability of a budgeted delivery refusal.
    refusal_prob: f64,
    /// Total refusals allowed across the run (the finite noise budget of
    /// axiom (H)).
    max_noise: usize,
}

impl FaultPlan {
    /// A fault-free plan: with no other settings the runtime behaves as a
    /// reliable random walk.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            default_loss: 0.0,
            channel_loss: Vec::new(),
            crashes: Vec::new(),
            stops: Vec::new(),
            refusal_prob: 0.0,
            max_noise: 0,
        }
    }

    /// Loss probability applied to every channel without an override.
    /// Rejects values outside `[0, 1]` (including NaN).
    pub fn with_default_loss(mut self, p: f64) -> Result<FaultPlan, FaultError> {
        self.default_loss = check_prob("default_loss", p)?;
        Ok(self)
    }

    /// Loss probability for one channel. Rejects values outside `[0, 1]`
    /// (including NaN).
    pub fn with_channel_loss(mut self, chan: Name, p: f64) -> Result<FaultPlan, FaultError> {
        let p = check_prob("channel_loss", p)?;
        self.channel_loss.retain(|(c, _)| *c != chan);
        self.channel_loss.push((chan, p));
        Ok(self)
    }

    /// Permanently crash `node` at the start of `step`.
    pub fn with_crash(mut self, step: usize, node: usize) -> FaultPlan {
        self.crashes.push((step, node));
        self
    }

    /// Freeze `node` at the start of `from_step` and resume it at the
    /// start of `to_step`. While frozen it neither sends nor receives.
    pub fn with_stop(mut self, from_step: usize, to_step: usize, node: usize) -> FaultPlan {
        self.stops.push((from_step, to_step, node));
        self
    }

    /// Allows up to `max_noise` delivery refusals, each taken with
    /// probability `prob` — bounded unreliability in the sense of
    /// axiom (H)'s noisy expansion. Rejects a `prob` outside `[0, 1]`
    /// (including NaN).
    pub fn with_refusals(mut self, prob: f64, max_noise: usize) -> Result<FaultPlan, FaultError> {
        self.refusal_prob = check_prob("refusal_prob", prob)?;
        self.max_noise = max_noise;
        Ok(self)
    }

    /// The seed all of the plan's randomness flows from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The same fault distribution driven by a different seed — the
    /// Monte-Carlo sampler derives one reseeded copy per sample so every
    /// trajectory is an independent, individually replayable run.
    pub fn reseeded(&self, seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..self.clone()
        }
    }

    /// The effective loss probability for a broadcast on `chan`.
    pub fn loss_rate(&self, chan: Name) -> f64 {
        self.channel_loss
            .iter()
            .find(|(c, _)| *c == chan)
            .map(|(_, p)| *p)
            .unwrap_or(self.default_loss)
    }

    /// Whether the plan's only faults are per-delivery message losses —
    /// no crashes, stops, or refusal budget. The exact probabilistic
    /// enumerator supports precisely this fragment (losses are the only
    /// *memoryless* faults; refusal budgets and scheduled node faults
    /// make the step distribution depend on history).
    pub fn is_loss_only(&self) -> bool {
        self.crashes.is_empty()
            && self.stops.is_empty()
            && (self.refusal_prob == 0.0 || self.max_noise == 0)
    }
}

/// A seeded random walker over step moves that injects the faults of a
/// [`FaultPlan`]. Deterministic: the same plan, system, and step bound
/// reproduce the same [`Trace`] and [`FaultLog`].
pub struct FaultySimulator<'d> {
    lts: Lts<'d>,
    rng: StdRng,
    plan: FaultPlan,
}

impl<'d> FaultySimulator<'d> {
    pub fn new(defs: &'d Defs, plan: FaultPlan) -> FaultySimulator<'d> {
        FaultySimulator {
            lts: Lts::new(defs),
            rng: StdRng::seed_from_u64(plan.seed()),
            plan,
        }
    }

    /// Runs at most `max_steps` faulty steps from `p`.
    pub fn run(&mut self, p: &P, max_steps: usize) -> (Trace, FaultLog) {
        self.run_internal(p, None, max_steps)
    }

    /// Runs until an output on `watch` occurs, the system terminates, or
    /// `max_steps` elapse.
    pub fn run_until_output(&mut self, p: &P, watch: Name, max_steps: usize) -> (Trace, FaultLog) {
        self.run_internal(p, Some(watch), max_steps)
    }

    fn run_internal(&mut self, p: &P, watch: Option<Name>, max_steps: usize) -> (Trace, FaultLog) {
        let mut comps = components(p);
        // `frozen[i]` holds the pre-stop state of a stopped node; the
        // live slot is nil so the node neither sends nor receives.
        let mut frozen: Vec<Option<P>> = vec![None; comps.len()];
        let mut noise_left = self.plan.max_noise;
        let mut log = FaultLog::default();
        let mut actions = Vec::new();
        let mut terminated = false;

        for step in 0..max_steps {
            // Scheduled node faults fire at the start of their step;
            // resumes before stops so a zero-length stop is a no-op.
            for &(from, to, node) in &self.plan.stops {
                if step == to && node < comps.len() {
                    if let Some(saved) = frozen[node].take() {
                        comps[node] = saved;
                        log.events.push(FaultEvent::Resumed { step, node });
                    }
                }
                if step == from && node < comps.len() && frozen[node].is_none() {
                    frozen[node] = Some(comps[node].clone());
                    comps[node] = bpi_core::builder::nil();
                    log.events.push(FaultEvent::Stopped { step, node });
                }
            }
            for &(at, node) in &self.plan.crashes {
                if step == at && node < comps.len() {
                    comps[node] = bpi_core::builder::nil();
                    frozen[node] = None;
                    log.events.push(FaultEvent::Crashed { step, node });
                }
            }

            let Some((mv, listeners)) = self.draw(&comps) else {
                terminated = true;
                break;
            };
            comps[mv.node] = mv.next;

            if let Action::Output { chan, .. } = &mv.act {
                // Faulty broadcast: each listener receives unless the
                // plan drops or refuses the delivery.
                for (j, rs) in listeners {
                    if self.rng.gen_bool(self.plan.loss_rate(*chan)) {
                        log.events.push(FaultEvent::MessageLost {
                            step,
                            chan: *chan,
                            node: j,
                        });
                        continue;
                    }
                    if noise_left > 0
                        && self.plan.refusal_prob > 0.0
                        && self.rng.gen_bool(self.plan.refusal_prob)
                    {
                        noise_left -= 1;
                        log.events.push(FaultEvent::DeliveryRefused {
                            step,
                            chan: *chan,
                            node: j,
                        });
                        continue;
                    }
                    comps[j] = rs[self.rng.gen_range(0..rs.len())].clone();
                }
            }

            let hit = watch.is_some_and(|w| mv.act.is_output() && mv.act.subject() == Some(w));
            actions.push(mv.act);
            if hit {
                break;
            }
        }
        let nodes = comps.into_iter().zip(frozen).map(|(c, f)| f.unwrap_or(c));
        let trace = Trace {
            actions,
            last: par_of(nodes),
            terminated,
        };
        record_faulty_run(&trace, &log);
        (trace, log)
    }

    /// Draws one enabled move of `comps` uniformly: a blocked broadcast
    /// is dropped and the draw repeated over the rest, so a run with none
    /// blocked makes the draws of one uniform draw over all moves.
    fn draw(&mut self, comps: &[P]) -> Option<(Move, Listeners)> {
        let mut cands = moves(&self.lts, comps);
        while !cands.is_empty() {
            let k = self.rng.gen_range(0..cands.len());
            if let Some(listeners) = deliveries(&self.lts, comps, &cands[k]) {
                return Some((cands.swap_remove(k), listeners));
            }
            cands.remove(k);
        }
        None
    }
}

/// A step transition `comps[node] —act→ next` of one node alone.
pub(crate) struct Move {
    node: usize,
    pub(crate) act: Action,
    next: P,
}

/// The listeners of a broadcast with their receive-derivatives.
pub(crate) type Listeners = Vec<(usize, Vec<P>)>;

/// The node-granular step, read by [`FaultySimulator`], by `prob`'s
/// exact chain and by [`lossy_traces`]: every node's step transitions,
/// by node. Only those that [`deliveries`] enables are system steps.
fn moves(lts: &Lts<'_>, comps: &[P]) -> Vec<Move> {
    let mut out = Vec::new();
    for (node, c) in comps.iter().enumerate() {
        for (act, next) in lts.step_transitions(c) {
            out.push(Move { node, act, next });
        }
    }
    out
}

/// Rules (12)–(14) across nodes: every other node takes a broadcast in
/// the same step, discarding it if it does not listen on the channel
/// and otherwise receiving it. A listening node with no
/// receive-derivative (it listens at another arity) blocks the
/// broadcast: `None`. Stopped and crashed nodes hold nil and never
/// block. The listeners come in node order; a τ move has none.
fn deliveries(lts: &Lts<'_>, comps: &[P], mv: &Move) -> Option<Listeners> {
    let Action::Output { chan, objects, .. } = &mv.act else {
        return Some(Vec::new());
    };
    let mut out = Vec::new();
    for (j, other) in comps.iter().enumerate() {
        if j == mv.node {
            continue;
        }
        // Both tests below unfold a recursive node: unfold it once.
        let other = &match &**other {
            Process::Call(id, args) => unfold_call(lts.defs, *id, args).unwrap_or(other.clone()),
            Process::Rec(def, args) => unfold_rec(def, args),
            _ => other.clone(),
        };
        if lts.discards(other, *chan) {
            continue;
        }
        let rs = lts.receives(other, *chan, objects);
        if rs.is_empty() {
            return None;
        }
        out.push((j, rs));
    }
    Some(out)
}

/// The enabled moves of `comps`, in [`moves`] order, with their listeners.
pub(crate) fn enabled(lts: &Lts<'_>, comps: &[P]) -> Vec<(Move, Listeners)> {
    let with = |mv: Move| deliveries(lts, comps, &mv).map(|ls| (mv, ls));
    moves(lts, comps).into_iter().filter_map(with).collect()
}

/// Every outcome of the enabled move `mv`: `comps` after it with each
/// listener `j` on one of the weighted options `opts(&comps[j], its
/// receive-derivatives)`, weighted `w` times the chosen options' weights
/// in node order. The weights sum to `w` times the product of each
/// listener's option total (`sum_folded_product`).
pub(crate) fn outcomes(
    comps: &[P],
    (mv, listeners): (Move, Listeners),
    w: f64,
    opts: impl Fn(&P, Vec<P>) -> Vec<(f64, P)>,
) -> Vec<(f64, Vec<P>)> {
    let mut base = comps.to_vec();
    base[mv.node] = mv.next;
    let mut acc = vec![(w, base)];
    for (j, rs) in listeners {
        let opts = opts(&comps[j], rs);
        let mut next = Vec::with_capacity(acc.len() * opts.len());
        for (w, state) in &acc {
            for (ow, op) in &opts {
                let mut s2 = state.clone();
                s2[j] = op.clone();
                next.push((w * ow, s2));
            }
        }
        acc = next;
    }
    acc
}

/// Exit bookkeeping for a faulty run. The [`FaultLog`] is a pure
/// function of (plan, seed, process), so all of these counters replay
/// deterministically; the per-event trace preserves log order.
fn record_faulty_run(trace: &Trace, log: &FaultLog) {
    use bpi_obs::{counter, Counter, Det, Value};
    use std::sync::LazyLock;
    static RUNS: LazyLock<&Counter> =
        LazyLock::new(|| counter("semantics.faults.runs", Det::Deterministic));
    static STEPS: LazyLock<&Counter> =
        LazyLock::new(|| counter("semantics.faults.steps", Det::Deterministic));
    static EVENTS: LazyLock<&Counter> =
        LazyLock::new(|| counter("semantics.faults.events", Det::Deterministic));
    static LOSSES: LazyLock<&Counter> =
        LazyLock::new(|| counter("semantics.faults.losses", Det::Deterministic));
    static REFUSALS: LazyLock<&Counter> =
        LazyLock::new(|| counter("semantics.faults.refusals", Det::Deterministic));
    if bpi_obs::metrics_enabled() {
        RUNS.inc();
        STEPS.add(trace.actions.len() as u64);
        EVENTS.add(log.events.len() as u64);
        LOSSES.add(log.losses() as u64);
        REFUSALS.add(log.refusals() as u64);
    }
    if bpi_obs::tracing_enabled() {
        for ev in &log.events {
            let (name, step, node, chan): (&'static str, usize, usize, Option<Name>) = match ev {
                FaultEvent::MessageLost { step, chan, node } => {
                    ("message_lost", *step, *node, Some(*chan))
                }
                FaultEvent::DeliveryRefused { step, chan, node } => {
                    ("delivery_refused", *step, *node, Some(*chan))
                }
                FaultEvent::Crashed { step, node } => ("crashed", *step, *node, None),
                FaultEvent::Stopped { step, node } => ("stopped", *step, *node, None),
                FaultEvent::Resumed { step, node } => ("resumed", *step, *node, None),
            };
            bpi_obs::emit("semantics.faults", name, || {
                let mut fields = vec![("step", Value::from(step)), ("node", Value::from(node))];
                if let Some(c) = chan {
                    fields.push(("chan", Value::from(c.to_string())));
                }
                fields
            });
        }
        bpi_obs::emit("semantics.faults", "run", || {
            vec![
                ("steps", Value::from(trace.actions.len())),
                ("events", Value::from(log.events.len())),
                ("terminated", Value::from(trace.terminated)),
            ]
        });
    }
}

/// The set of visible traces of length ≤ `depth` of `p` under
/// *adversarial* loss on `lossy_chan`: at every broadcast on that
/// channel, each other top-level component may independently miss the
/// delivery. Label rendering matches `bpi_equiv::testing::traces`
/// (outputs as `chan<objs>`, τ elided but depth-consuming, extruded
/// names as positional `%pos.k` markers, prefix-closed), so the two sets
/// are directly comparable.
pub fn lossy_traces(p: &P, defs: &Defs, lossy_chan: Name, depth: usize) -> BTreeSet<Vec<String>> {
    traces_with_loss(p, defs, Some(lossy_chan), depth)
}

/// Reliable node-granular traces — [`lossy_traces`] with no lossy
/// channel. Agrees with `bpi_equiv::testing::traces` on the same system.
pub fn reliable_traces(p: &P, defs: &Defs, depth: usize) -> BTreeSet<Vec<String>> {
    traces_with_loss(p, defs, None, depth)
}

fn traces_with_loss(
    p: &P,
    defs: &Defs,
    lossy_chan: Option<Name>,
    depth: usize,
) -> BTreeSet<Vec<String>> {
    let (lts, comps) = (Lts::new(defs), components(p));
    let mut out = BTreeSet::new();
    go(&lts, &comps, lossy_chan, depth, &[], &mut out);
    return out;

    fn go(
        lts: &Lts<'_>,
        comps: &[P],
        lossy: Option<Name>,
        depth: usize,
        prefix: &[String],
        out: &mut BTreeSet<Vec<String>>,
    ) {
        out.insert(prefix.to_vec());
        if depth == 0 {
            return;
        }
        for (mv, listeners) in enabled(lts, comps) {
            // On the lossy channel a listener may also miss the delivery.
            let miss = lossy.is_some() && mv.act.subject() == lossy;
            let opts = |stay: &P, rs: Vec<P>| {
                let rs = rs.into_iter().chain(miss.then(|| stay.clone()));
                rs.map(|r| (1.0, r)).collect()
            };
            // τ is elided from the trace but consumes depth.
            let label = mv
                .act
                .is_output()
                .then(|| mv.act.normalise_label(prefix.len()));
            let longer: Vec<String> = prefix.iter().cloned().chain(label).collect();
            for (_, next) in outcomes(comps, (mv, listeners), 1.0, opts) {
                go(lts, &next, lossy, depth - 1, &longer, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpi_core::builder::*;
    use bpi_core::canon::alpha_eq;

    fn d() -> Defs {
        Defs::new()
    }

    #[test]
    fn backoff_is_deterministic_and_exponential() {
        let b = Backoff::new(42).with_base(1).with_cap(8);
        // Pure in (seed, attempt): recomputing in any order agrees.
        let forward = b.schedule(10);
        let backward: Vec<u32> = (0..10).rev().map(|k| b.delay(k)).collect();
        assert_eq!(
            forward,
            backward.into_iter().rev().collect::<Vec<_>>(),
            "delay must be a pure function of (seed, attempt)"
        );
        assert_eq!(
            forward,
            Backoff::new(42).schedule(10),
            "same seed, same schedule"
        );
        // Equal-jitter bounds: delay(k) ∈ [e/2, e] with e the saturated
        // exponential envelope.
        for (k, &d) in forward.iter().enumerate() {
            let e = b.envelope(k as u32);
            assert!(
                d >= e / 2 && d <= e,
                "attempt {k}: delay {d} outside [{}..{e}]",
                e / 2
            );
        }
        // The envelope doubles then saturates at the cap.
        assert_eq!(b.envelope(0), 1);
        assert_eq!(b.envelope(1), 2);
        assert_eq!(b.envelope(2), 4);
        assert_eq!(b.envelope(3), 8);
        assert_eq!(b.envelope(4), 8);
        assert_eq!(b.envelope(63), 8, "huge attempts saturate, never overflow");
        // Different seeds de-correlate: some attempt differs.
        let other = Backoff::new(43).with_cap(64).schedule(10);
        assert_ne!(Backoff::new(42).with_cap(64).schedule(10), other);
    }

    #[test]
    fn noise_is_a_fixed_point_of_delivery() {
        // Delivering to noise and refusing to deliver leave literally the
        // same state: the formal core of the lossy-broadcast encoding.
        let defs = d();
        let [a, v] = names(["a", "v"]);
        let n = noise(a, 1);
        assert!(
            Lts::new(&defs).step_transitions(&n).is_empty(),
            "noise has no autonomous moves"
        );
        let rs = Lts::new(&defs).receives(&n, a, &[v]);
        assert_eq!(rs.len(), 1);
        assert!(alpha_eq(&rs[0], &n), "receive returns noise to itself");
    }

    #[test]
    fn deafen_rewrites_exactly_the_a_inputs() {
        let defs = d();
        let [a, b, v, x] = names(["a", "b", "v", "x"]);
        let p = par(inp(a, [x], out_(x, [])), inp_(b, [x]));
        let q = deafen(&p, a);
        // Deaf on a: no receive; still receives on b.
        assert!(Lts::new(&defs).receives(&q, a, &[v]).is_empty());
        assert!(Lts::new(&defs).discards(&q, a));
        assert_eq!(Lts::new(&defs).receives(&q, b, &[v]).len(), 1);
        // Shadowed occurrences stay: a(a).a(x) rebinds a — the inner
        // input listens on the *received* name, not the free a.
        let shadow = inp(a, [a], inp_(a, [x]));
        let ds = deafen(&shadow, a);
        match &*ds {
            Process::Act(Prefix::Input(subj, xs), cont) => {
                assert_ne!(*subj, a, "outer subject deafened");
                assert_eq!(xs, &vec![a]);
                assert!(alpha_eq(cont, &inp_(a, [x])), "inner input untouched");
            }
            other => panic!("unexpected shape {other:?}"),
        }
    }

    #[test]
    fn reliable_traces_match_node_free_semantics() {
        // Sanity: node-granular composition reproduces the LTS on a
        // broadcast with two listeners.
        let defs = d();
        let [a, v, x, y] = names(["a", "v", "x", "y"]);
        let p = par_of([
            out_(a, [v]),
            inp(a, [x], out_(x, [])),
            inp(a, [y], out_(y, [])),
        ]);
        let ts = reliable_traces(&p, &defs, 3);
        assert!(ts.contains(&vec!["a<v>".to_string()]));
        assert!(ts.contains(&vec![
            "a<v>".to_string(),
            "v<>".to_string(),
            "v<>".to_string()
        ]));
        // Reliable broadcast: no trace where a listener missed it and the
        // system still produced only one v.
        assert!(!ts.contains(&vec!["v<>".to_string()]));
    }

    #[test]
    fn loss_is_monotone_over_reliable_traces() {
        let defs = d();
        let [a, v, x] = names(["a", "v", "x"]);
        let p = par_of([out_(a, [v]), inp(a, [x], out_(x, []))]);
        let reliable = reliable_traces(&p, &defs, 3);
        let lossy = lossy_traces(&p, &defs, a, 3);
        assert!(
            reliable.is_subset(&lossy),
            "loss only adds behaviours, never removes them"
        );
    }

    #[test]
    fn loss_can_enable_new_behaviour() {
        // The reason general loss injection is NOT trace-preserving:
        //   p = ā ‖ a().b̄ ‖ (a().c̄ + b().d̄)
        // Reliably, broadcasting ā commits the third station to c̄. If its
        // delivery is lost it is still listening when b̄ arrives — and
        // answers d̄, a trace reliable broadcast can never produce.
        let defs = d();
        let [a, b, c, dd] = names(["a", "b", "c", "d"]);
        let p = par_of([
            out_(a, []),
            inp(a, [], out_(b, [])),
            sum(inp(a, [], out_(c, [])), inp(b, [], out_(dd, []))),
        ]);
        let reliable = reliable_traces(&p, &defs, 3);
        let lossy = lossy_traces(&p, &defs, a, 3);
        let witness = vec!["a<>".to_string(), "b<>".to_string(), "d<>".to_string()];
        assert!(!reliable.contains(&witness));
        assert!(lossy.contains(&witness));
        assert!(reliable.is_subset(&lossy));
        assert_ne!(reliable, lossy, "loss strictly enlarges the trace set");
    }

    #[test]
    fn noise_absorbs_loss_on_its_channel() {
        // The encoding theorem, in the small: if every a-listener is the
        // noise process, loss on a changes nothing — refusing a delivery
        // to noise and performing it land in the same state.
        let defs = d();
        let [a, b, v, x] = names(["a", "b", "v", "x"]);
        // A system that broadcasts on a and chats on b, deafened on a,
        // then composed with the paper-style noise station for a.
        let p = par_of([
            out(a, [v], out_(b, [])),
            inp(a, [x], out_(x, [])),
            inp(b, [], out_(b, [])),
        ]);
        let sys = par(deafen(&p, a), noise(a, 1));
        assert_eq!(
            lossy_traces(&sys, &defs, a, 4),
            reliable_traces(&sys, &defs, 4),
            "loss on a is invisible once a's only listener is noise"
        );
    }

    /// `a<v>.b<> | a(x,y).0` and `a<v>.b<> | (a(x).0 | a(x,y).0)`: a
    /// listener at arity 2 blocks the only broadcast, so neither system
    /// has a step.
    fn blocked_broadcasts() -> Vec<(P, Name)> {
        let [a, b, v, x, y] = names(["a", "b", "v", "x", "y"]);
        let sender = out(a, [v], out_(b, []));
        vec![
            (par(sender.clone(), inp_(a, [x, y])), a),
            (par(sender, par(inp_(a, [x]), inp_(a, [x, y]))), a),
        ]
    }

    #[test]
    fn a_blocked_broadcast_is_not_a_move() {
        let defs = d();
        for (p, a) in blocked_broadcasts() {
            assert!(Lts::new(&defs).step_transitions(&p).is_empty());
            assert_eq!(lossy_traces(&p, &defs, a, 3), BTreeSet::from([vec![]]));
            assert_eq!(reliable_traces(&p, &defs, 3), BTreeSet::from([vec![]]));
            for seed in 0..8 {
                for loss in [0.0, 0.3, 1.0] {
                    let plan = FaultPlan::new(seed).with_channel_loss(a, loss).unwrap();
                    let (tr, log) = FaultySimulator::new(&defs, plan).run(&p, 10);
                    assert!(tr.actions.is_empty(), "seed {seed}, loss {loss}: {tr:?}");
                    assert!(tr.terminated && log.is_empty());
                }
            }
        }
    }

    #[test]
    fn the_sampler_skips_a_blocked_broadcast_for_an_enabled_move() {
        // `a<v>` is blocked by `a(x,y)`; `c<>` is not. Every seed must
        // emit `c<>` and never `a<v>`.
        let defs = d();
        let [a, c, v, x, y] = names(["a", "c", "v", "x", "y"]);
        let p = par_of([out_(a, [v]), inp_(a, [x, y]), out_(c, [])]);
        for seed in 0..16 {
            let (tr, _) = FaultySimulator::new(&defs, FaultPlan::new(seed)).run(&p, 10);
            assert!(tr.saw_output_on(c) && !tr.saw_output_on(a), "{tr:?}");
        }
    }

    #[test]
    fn fault_free_plan_is_reliable() {
        let defs = d();
        let [a, c] = names(["a", "c"]);
        let p = par_of([out_(a, []), inp(a, [], out_(c, []))]);
        let mut sim = FaultySimulator::new(&defs, FaultPlan::new(7));
        let (tr, log) = sim.run(&p, 10);
        assert!(log.is_empty());
        assert!(tr.saw_output_on(a) && tr.saw_output_on(c));
        assert!(tr.terminated);
    }

    #[test]
    fn certain_loss_silences_the_listener() {
        let defs = d();
        let [a, b, c] = names(["a", "b", "c"]);
        let p = par_of([out(a, [], out_(b, [])), inp(a, [], out_(c, []))]);
        let plan = FaultPlan::new(3).with_channel_loss(a, 1.0).unwrap();
        let mut sim = FaultySimulator::new(&defs, plan);
        let (tr, log) = sim.run(&p, 20);
        assert!(tr.saw_output_on(a), "the broadcast itself still fires");
        assert!(tr.saw_output_on(b), "the sender is unaffected");
        assert!(!tr.saw_output_on(c), "the delivery never arrives");
        assert_eq!(log.losses(), 1);
        assert!(matches!(
            log.events[0],
            FaultEvent::MessageLost { chan, node: 1, .. } if chan == a
        ));
    }

    #[test]
    fn seeded_fault_runs_reproduce() {
        // Same plan ⇒ identical trace AND identical fault log.
        let defs = d();
        let [a, b, c, x] = names(["a", "b", "c", "x"]);
        let p = par_of([
            out(a, [b], out_(c, [])),
            inp(a, [x], out_(x, [])),
            inp(a, [x], out_(x, [])),
            out_(b, []),
        ]);
        let plan = FaultPlan::new(42)
            .with_default_loss(0.5)
            .unwrap()
            .with_refusals(0.3, 2)
            .unwrap();
        let (t1, l1) = FaultySimulator::new(&defs, plan.clone()).run(&p, 30);
        let (t2, l2) = FaultySimulator::new(&defs, plan).run(&p, 30);
        assert_eq!(t1.actions, t2.actions);
        assert_eq!(l1, l2);
        // And a different seed takes a different path eventually — not
        // asserted strictly, but the logs must at least be well-formed.
        let plan43 = FaultPlan::new(43).with_default_loss(0.5).unwrap();
        let (_, l3) = FaultySimulator::new(&defs, plan43).run(&p, 30);
        assert!(l3.refusals() == 0, "no refusal budget configured");
    }

    #[test]
    fn crash_stop_kills_a_node_permanently() {
        let defs = d();
        let [a, b] = names(["a", "b"]);
        let p = par_of([out_(a, []), out_(b, [])]);
        let mut sim = FaultySimulator::new(&defs, FaultPlan::new(1).with_crash(0, 0));
        let (tr, log) = sim.run(&p, 10);
        assert!(!tr.saw_output_on(a), "crashed node never speaks");
        assert!(tr.saw_output_on(b));
        assert_eq!(log.events, vec![FaultEvent::Crashed { step: 0, node: 0 }]);
    }

    #[test]
    fn stopped_node_misses_the_broadcast_then_resumes() {
        let defs = d();
        let [a, b, c] = names(["a", "b", "c"]);
        // Node 1 answers c̄ on hearing ā — unless it is frozen while ā
        // flies past. After resuming it still holds its input (frozen
        // state preserved), plus node 2 broadcasts b̄ to prove the system
        // keeps running.
        let p = par_of([out_(a, []), inp(a, [], out_(c, [])), out_(b, [])]);
        let plan = FaultPlan::new(5).with_stop(0, 2, 1);
        let (tr, log) = FaultySimulator::new(&defs, plan).run(&p, 10);
        assert!(tr.saw_output_on(a));
        assert!(tr.saw_output_on(b));
        assert!(!tr.saw_output_on(c), "the delivery flew past while frozen");
        assert!(log
            .events
            .contains(&FaultEvent::Stopped { step: 0, node: 1 }));
        assert!(log
            .events
            .contains(&FaultEvent::Resumed { step: 2, node: 1 }));
        // The frozen input survives in the final state: still listening.
        assert!(!Lts::new(&defs).receives(&tr.last, a, &[]).is_empty());
    }

    #[test]
    fn refusal_budget_is_bounded() {
        let defs = d();
        let a = Name::new("a");
        // Two consecutive broadcasts at a certain-refusal plan with
        // budget 1: exactly one refusal, the second delivery lands.
        let p = par_of([out(a, [], out_(a, [])), noise(a, 0)]);
        let plan = FaultPlan::new(11).with_refusals(1.0, 1).unwrap();
        let (tr, log) = FaultySimulator::new(&defs, plan).run(&p, 10);
        assert_eq!(tr.count_outputs_on(a), 2);
        assert_eq!(log.refusals(), 1, "noise budget caps refusals");
    }

    #[test]
    fn invalid_probabilities_are_rejected_typed() {
        let a = Name::new("a");
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let e = FaultPlan::new(0).with_default_loss(bad).unwrap_err();
            assert!(matches!(
                e,
                FaultError::InvalidProbability {
                    what: "default_loss",
                    ..
                }
            ));
            assert!(FaultPlan::new(0).with_channel_loss(a, bad).is_err());
            assert!(FaultPlan::new(0).with_refusals(bad, 3).is_err());
        }
        // The boundary values are probabilities and must pass.
        assert!(FaultPlan::new(0).with_default_loss(0.0).is_ok());
        assert!(FaultPlan::new(0).with_default_loss(1.0).is_ok());
        let e = FaultPlan::new(0).with_refusals(2.0, 1).unwrap_err();
        assert_eq!(
            e.to_string(),
            "refusal_prob = 2 is not a probability in [0, 1]"
        );
    }

    #[test]
    fn fault_log_codec_round_trips() {
        let [a, b] = names(["a", "b"]);
        let log = FaultLog {
            events: vec![
                FaultEvent::MessageLost {
                    step: 0,
                    chan: a,
                    node: 2,
                },
                FaultEvent::DeliveryRefused {
                    step: 3,
                    chan: b,
                    node: 0,
                },
                FaultEvent::Crashed { step: 4, node: 1 },
                FaultEvent::Stopped { step: 5, node: 2 },
                FaultEvent::Resumed { step: 7, node: 2 },
            ],
        };
        let text = log.to_string();
        assert!(text.starts_with("bpi-fault-log/v1\n"));
        let back: FaultLog = text.parse().expect("decode");
        assert_eq!(back, log, "decode∘encode must be the identity");
        assert_eq!(
            FaultLog::default().to_string().parse::<FaultLog>(),
            Ok(FaultLog::default())
        );
    }

    #[test]
    fn fault_log_codec_rejects_garbage() {
        assert!("".parse::<FaultLog>().is_err(), "missing header");
        assert!("bpi-fault-log/v0\n".parse::<FaultLog>().is_err());
        for bad in [
            "bpi-fault-log/v1\nteleported\t1\t2",
            "bpi-fault-log/v1\nlost\t1\t2",       // missing channel
            "bpi-fault-log/v1\nlost\t1\t2\t",     // empty channel
            "bpi-fault-log/v1\ncrashed\t1\t2\ta", // trailing field
            "bpi-fault-log/v1\nlost\tx\t2\ta",    // non-numeric step
            "bpi-fault-log/v1\nlost\t1\t2\ta\textra", // too many fields
        ] {
            assert!(bad.parse::<FaultLog>().is_err(), "accepted {bad:?}");
        }
    }
}
