//! Probabilistic fault semantics: the quantitative reading of a
//! [`FaultPlan`].
//!
//! The fault runtime of [`crate::faults`] is a *replay* machine: one
//! seed, one trajectory, one pass/fail verdict. This module asks the
//! quantitative question instead — **with what probability** does a
//! system under per-channel loss rates reach its goal barb? Two
//! backends answer it, one exact and one sampled, and agreeing with
//! each other is their tested contract:
//!
//! * [`convergence_exact`] — bounded-depth outcome enumeration. The
//!   faulty walk of [`FaultySimulator::run_until_output`] induces a
//!   finite-horizon DTMC: at every state the scheduler picks one of the
//!   enabled moves uniformly, and a broadcast then splits into
//!   weighted delivery outcomes (each listener independently misses the
//!   message with its channel's loss rate, and picks uniformly among
//!   its receive-derivatives otherwise). The enumerator builds exactly
//!   that chain, memoised on `(state, remaining-depth)`, and returns a
//!   **probability interval**: trajectories still undecided at the
//!   horizon are counted pessimistically in `p_lo` and optimistically
//!   in `p_hi`, so `p_hi − p_lo` is precisely the truncated mass — no
//!   silent pruning.
//! * [`convergence_mc`] — seeded Monte-Carlo over the very same walk.
//!   Sample `i` runs a fresh [`FaultySimulator`] under
//!   [`FaultPlan::reseeded`] with a splitmix64-derived per-sample seed,
//!   so every trajectory is bit-for-bit reproducible from
//!   `(plan, sample index)` — and therefore so is the whole estimate,
//!   including across an interrupt/resume boundary. The estimate
//!   carries a Wilson 95% confidence interval.
//!
//! Long Monte-Carlo runs are first-class engine runs: they take a
//! [`Budget`], burn [`CheckpointCfg`] fuel once per sample, and stop
//! with [`Interrupted`]-carrying [`McCheckpoint`]s (versioned text codec
//! `bpi-mc-checkpoint/v1`) that [`convergence_mc_resume`]
//! continues without redoing completed samples. Deterministic
//! `semantics.prob.*` counters record once, at completion, so an
//! interrupted-and-resumed estimate leaves the same trail as a quiet
//! one.
//!
//! The exact backend supports the **loss-only** fragment of fault
//! plans ([`FaultPlan::is_loss_only`]): message loss is the one
//! memoryless fault, while refusal budgets and scheduled crash/stop
//! faults make the step distribution depend on history, which a
//! state-indexed chain cannot express. Plans outside the fragment are
//! rejected with a typed [`ProbError::UnsupportedPlan`] — the sampler
//! handles every plan.

use crate::budget::{Budget, EngineError};
use crate::checkpoint::{CheckpointCfg, Interrupted};
use crate::faults::{self, splitmix64, FaultPlan, FaultySimulator};
use crate::lts::Lts;
use bpi_core::action::Action;
use bpi_core::builder::{components, par_of};
use bpi_core::dist::Dist;
use bpi_core::name::Name;
use bpi_core::record::{Reader, Writer};
use bpi_core::syntax::{Defs, P};
use bpi_obs::{counter, Counter, Det, Value};
use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;
use std::sync::LazyLock;

static SAMPLES: LazyLock<&Counter> =
    LazyLock::new(|| counter("semantics.prob.samples", Det::Deterministic));
static SUCCESSES: LazyLock<&Counter> =
    LazyLock::new(|| counter("semantics.prob.successes", Det::Deterministic));
static BRANCHES: LazyLock<&Counter> =
    LazyLock::new(|| counter("semantics.prob.branches", Det::Deterministic));
static PRUNED: LazyLock<&Counter> =
    LazyLock::new(|| counter("semantics.prob.truncated", Det::Advisory));

/// Why a probabilistic analysis could not run or finish.
#[derive(Clone, Debug, PartialEq)]
pub enum ProbError {
    /// The plan uses faults outside the exact backend's loss-only
    /// fragment (refusal budgets, crashes, stop/resume).
    UnsupportedPlan(&'static str),
    /// The budget tripped mid-enumeration.
    Engine(EngineError),
}

impl fmt::Display for ProbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProbError::UnsupportedPlan(what) => {
                write!(f, "exact enumeration unsupported: {what}")
            }
            ProbError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ProbError {}

impl From<EngineError> for ProbError {
    fn from(e: EngineError) -> ProbError {
        ProbError::Engine(e)
    }
}

/// The seed driving Monte-Carlo sample `i` of a plan: a pure, stable
/// function of `(plan seed, sample index)`, so resumed runs replay the
/// exact trajectories the interrupted run would have taken.
pub fn sample_seed(plan_seed: u64, i: u64) -> u64 {
    splitmix64(plan_seed ^ splitmix64(i.wrapping_add(1)))
}

// ---------------------------------------------------------------------
// Exact bounded-depth enumeration
// ---------------------------------------------------------------------

/// The result of an exact enumeration: a probability *interval* plus
/// work accounting.
#[derive(Clone, Debug, PartialEq)]
pub struct ExactOutcome {
    /// Lower bound: mass of trajectories that provably reach the watch
    /// barb within the horizon.
    pub p_lo: f64,
    /// Upper bound: `p_lo` plus the mass still undecided at the
    /// horizon. `p_hi − p_lo` is the truncation error.
    pub p_hi: f64,
    /// Distinct `(state, depth)` chain nodes solved.
    pub states: usize,
    /// Weighted successor edges enumerated across all solved nodes.
    pub branches: usize,
}

impl ExactOutcome {
    /// Midpoint point-estimate, for display.
    pub fn probability(&self) -> f64 {
        (self.p_lo + self.p_hi) / 2.0
    }

    /// The probability mass left undecided by the depth bound.
    pub fn truncated_mass(&self) -> f64 {
        self.p_hi - self.p_lo
    }
}

/// The distribution over next states after **one** step of the faulty
/// walk from `p` — the probabilistic LTS in the small. Mass sums to 1
/// whenever the system has at least one move (an empty distribution
/// means `p` is terminal). Exposed mostly for inspection and tests;
/// the enumerator uses the same internal kernel.
pub fn step_distribution(p: &P, defs: &Defs, plan: &FaultPlan) -> Result<Dist<P>, ProbError> {
    if !plan.is_loss_only() {
        return Err(ProbError::UnsupportedPlan(
            "step distributions cover loss-only plans",
        ));
    }
    let lts = Lts::new(defs);
    let comps = components(p);
    let mut out = Dist::new();
    for (w, next, _) in successors(&lts, &comps, plan) {
        out.push(par_of(next), w);
    }
    Ok(out)
}

/// The node-granular step ([`faults::enabled`]) weighted as
/// `FaultySimulator` draws it: uniform over the enabled moves, then per
/// listener a miss at the channel's loss rate or else a uniform pick of
/// its receive-derivatives. Successors carry the step's action.
fn successors(lts: &Lts<'_>, comps: &[P], plan: &FaultPlan) -> Vec<(f64, Vec<P>, Action)> {
    let enabled = faults::enabled(lts, comps);
    let cand_w = 1.0 / enabled.len() as f64;
    let mut out = Vec::new();
    for (mv, listeners) in enabled {
        let act = mv.act.clone();
        let loss = act.subject().map_or(0.0, |a| plan.loss_rate(a));
        let split = |stay: &P, rs: Vec<P>| {
            let mut opts = Vec::with_capacity(rs.len() + 1);
            if loss > 0.0 {
                opts.push((loss, stay.clone()));
            }
            if loss < 1.0 {
                let each = (1.0 - loss) / rs.len() as f64;
                opts.extend(rs.into_iter().map(|r| (each, r)));
            }
            opts
        };
        for (w, state) in faults::outcomes(comps, (mv, listeners), cand_w, split) {
            out.push((w, state, act.clone()));
        }
    }
    out
}

/// Exact probability that the faulty walk from `p` broadcasts on
/// `watch` within `depth` steps, by bounded-depth DTMC enumeration.
///
/// Returns a probability interval (see [`ExactOutcome`]); requires a
/// loss-only plan. The `budget` bounds the number of distinct
/// `(state, depth)` nodes solved.
pub fn convergence_exact(
    p: &P,
    defs: &Defs,
    plan: &FaultPlan,
    watch: Name,
    depth: usize,
    budget: &Budget,
) -> Result<ExactOutcome, ProbError> {
    if !plan.is_loss_only() {
        return Err(ProbError::UnsupportedPlan(
            "exact enumeration covers loss-only plans; use convergence_mc for \
             refusal/crash/stop plans",
        ));
    }
    let lts = Lts::new(defs);
    let comps = components(p);
    let mut memo: HashMap<(Vec<P>, usize), (f64, f64)> = HashMap::new();
    let mut branches = 0usize;

    // Depth-first solve of the finite-horizon chain. The value of a
    // node is the (lower, upper) probability of hitting the watch barb
    // within `d` more steps; `solve` is a pure function of its key, so
    // memoisation is sound.
    #[allow(clippy::too_many_arguments)]
    fn solve(
        lts: &Lts<'_>,
        plan: &FaultPlan,
        watch: Name,
        comps: &[P],
        d: usize,
        memo: &mut HashMap<(Vec<P>, usize), (f64, f64)>,
        branches: &mut usize,
        budget: &Budget,
    ) -> Result<(f64, f64), ProbError> {
        let key = (comps.to_vec(), d);
        if let Some(&v) = memo.get(&key) {
            return Ok(v);
        }
        budget.check(memo.len())?;
        let succs = successors(lts, comps, plan);
        if succs.is_empty() {
            // Terminal without the barb: a definite failure.
            memo.insert(key, (0.0, 0.0));
            return Ok((0.0, 0.0));
        }
        if d == 0 {
            // Alive at the horizon: undecided — 0 pessimistically, 1
            // optimistically. (Checked after terminality so deadlocked
            // states stay definite failures at every depth.)
            memo.insert(key, (0.0, 1.0));
            return Ok((0.0, 1.0));
        }
        let mut lo = 0.0;
        let mut hi = 0.0;
        for (w, state, act) in succs {
            *branches += 1;
            if act.is_output() && act.subject() == Some(watch) {
                // The watched broadcast fired: success on this branch
                // regardless of how its deliveries land.
                lo += w;
                hi += w;
            } else {
                let (slo, shi) = solve(lts, plan, watch, &state, d - 1, memo, branches, budget)?;
                lo += w * slo;
                hi += w * shi;
            }
        }
        memo.insert(key, (lo, hi));
        Ok((lo, hi))
    }

    let (p_lo, p_hi) = solve(
        &lts,
        plan,
        watch,
        &comps,
        depth,
        &mut memo,
        &mut branches,
        budget,
    )?;
    let outcome = ExactOutcome {
        p_lo,
        p_hi,
        states: memo.len(),
        branches,
    };
    record_exact(&outcome);
    Ok(outcome)
}

fn record_exact(o: &ExactOutcome) {
    if bpi_obs::metrics_enabled() {
        BRANCHES.add(o.branches as u64);
        if o.truncated_mass() > 0.0 {
            PRUNED.inc();
        }
    }
    bpi_obs::emit("semantics.prob", "exact", || {
        vec![
            ("p_lo", Value::from(o.p_lo)),
            ("p_hi", Value::from(o.p_hi)),
            ("states", Value::from(o.states)),
            ("branches", Value::from(o.branches)),
            ("truncated_mass", Value::from(o.truncated_mass())),
        ]
    });
}

// ---------------------------------------------------------------------
// Seeded Monte-Carlo estimation
// ---------------------------------------------------------------------

/// A Monte-Carlo reliability estimate with its Wilson 95% interval.
#[derive(Clone, Debug, PartialEq)]
pub struct ReliabilityEstimate {
    /// Point estimate `successes / samples`.
    pub probability: f64,
    /// Wilson score 95% confidence interval.
    pub ci: (f64, f64),
    pub samples: usize,
    pub successes: usize,
}

/// Wilson score interval at z = 1.96 (95%). Well-behaved at p̂ ∈ {0, 1}
/// where the naive normal interval collapses.
pub fn wilson_ci(successes: usize, samples: usize) -> (f64, f64) {
    if samples == 0 {
        return (0.0, 1.0);
    }
    let n = samples as f64;
    let z = 1.96f64;
    let z2 = z * z;
    let phat = successes as f64 / n;
    let denom = 1.0 + z2 / n;
    let centre = phat + z2 / (2.0 * n);
    let spread = z * (phat * (1.0 - phat) / n + z2 / (4.0 * n * n)).sqrt();
    (
        ((centre - spread) / denom).max(0.0),
        ((centre + spread) / denom).min(1.0),
    )
}

/// The frozen state of an in-progress Monte-Carlo estimation: samples
/// completed and successes seen. Because sample `i`'s trajectory is a
/// pure function of `(plan, i)`, this is *all* the state there is —
/// resuming replays the remaining indices and lands on the identical
/// estimate.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct McCheckpoint {
    /// Samples fully evaluated (indices `0..done`).
    pub done: usize,
    /// Successes among them.
    pub successes: usize,
}

const MC_HEADER: &str = "bpi-mc-checkpoint/v1";

impl fmt::Display for McCheckpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut w = Writer::new(f, MC_HEADER)?;
        w.field("done", self.done)?;
        w.field("successes", self.successes)
    }
}

impl FromStr for McCheckpoint {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut r = Reader::new(s, MC_HEADER)?;
        let done = r.value("done")?;
        let successes = r.value("successes")?;
        r.end()?;
        if successes > done {
            return Err(format!("successes {successes} exceeds done {done}"));
        }
        Ok(McCheckpoint { done, successes })
    }
}

/// Monte-Carlo estimate of the probability that the faulty walk from
/// `p` broadcasts on `watch` within `max_steps` steps.
///
/// Runs `samples` independent trajectories; sample `i` replays the
/// plan reseeded with [`sample_seed`]`(plan.seed(), i)`. Supports every
/// fault plan (losses, refusals, crashes, stops). The `budget` is
/// polled and `cfg` fuel burned once per sample, so a long estimation
/// is interruptible at every sample boundary and resumable with
/// [`convergence_mc_resume`].
#[allow(clippy::too_many_arguments)]
pub fn convergence_mc(
    p: &P,
    defs: &Defs,
    plan: &FaultPlan,
    watch: Name,
    max_steps: usize,
    samples: usize,
    budget: &Budget,
    cfg: &CheckpointCfg<McCheckpoint>,
) -> Result<ReliabilityEstimate, Interrupted<McCheckpoint>> {
    convergence_mc_resume(
        p,
        defs,
        plan,
        watch,
        max_steps,
        samples,
        budget,
        cfg,
        McCheckpoint::default(),
    )
}

/// [`convergence_mc`] continued from a checkpoint: evaluates only the
/// samples the interrupted run had not finished, and returns the same
/// estimate the uninterrupted run would have produced (sample seeds are
/// pure functions of the index).
#[allow(clippy::too_many_arguments)]
pub fn convergence_mc_resume(
    p: &P,
    defs: &Defs,
    plan: &FaultPlan,
    watch: Name,
    max_steps: usize,
    samples: usize,
    budget: &Budget,
    cfg: &CheckpointCfg<McCheckpoint>,
    from: McCheckpoint,
) -> Result<ReliabilityEstimate, Interrupted<McCheckpoint>> {
    if from.done > 0 {
        crate::checkpoint::record_resume("convergence_mc");
    }
    let mut done = from.done.min(samples);
    let mut successes = from.successes;
    while done < samples {
        if let Err(error) = cfg.poll(budget, done) {
            return Err(Interrupted {
                error,
                checkpoint: McCheckpoint { done, successes },
            });
        }
        let seed = sample_seed(plan.seed(), done as u64);
        let mut sim = FaultySimulator::new(defs, plan.reseeded(seed));
        let (trace, _log) = sim.run_until_output(p, watch, max_steps);
        if trace.saw_output_on(watch) {
            successes += 1;
        }
        done += 1;
    }
    let est = ReliabilityEstimate {
        probability: if samples == 0 {
            0.0
        } else {
            successes as f64 / samples as f64
        },
        ci: wilson_ci(successes, samples),
        samples,
        successes,
    };
    record_mc(&est);
    Ok(est)
}

fn record_mc(est: &ReliabilityEstimate) {
    // Deterministic: recorded once, at completion — the totals are pure
    // functions of (plan, samples), so an interrupted-and-resumed
    // estimation leaves the identical trail.
    if bpi_obs::metrics_enabled() {
        SAMPLES.add(est.samples as u64);
        SUCCESSES.add(est.successes as u64);
    }
    bpi_obs::emit("semantics.prob", "mc", || {
        vec![
            ("samples", Value::from(est.samples)),
            ("successes", Value::from(est.successes)),
            ("probability", Value::from(est.probability)),
            ("ci_lo", Value::from(est.ci.0)),
            ("ci_hi", Value::from(est.ci.1)),
        ]
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpi_core::builder::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    fn d() -> Defs {
        Defs::new()
    }

    /// ā ‖ a().c̄ with loss p on a: the c̄ barb fires iff the delivery
    /// lands, so its convergence probability is exactly 1 − p.
    fn relay() -> (P, Name, Name) {
        let [a, c] = names(["a", "c"]);
        (par_of([out_(a, []), inp(a, [], out_(c, []))]), a, c)
    }

    #[test]
    fn exact_matches_hand_computation() {
        let defs = d();
        let (p, a, c) = relay();
        for loss in [0.0, 0.25, 0.5, 0.9] {
            let plan = FaultPlan::new(1).with_channel_loss(a, loss).unwrap();
            let o = convergence_exact(&p, &defs, &plan, c, 4, &Budget::unlimited()).unwrap();
            assert!(
                (o.p_lo - (1.0 - loss)).abs() < 1e-12,
                "loss {loss}: got [{}, {}]",
                o.p_lo,
                o.p_hi
            );
            assert!(
                o.truncated_mass() < 1e-12,
                "depth 4 fully decides the relay"
            );
        }
    }

    #[test]
    fn step_distribution_is_stochastic() {
        let defs = d();
        let (p, a, _) = relay();
        let plan = FaultPlan::new(1).with_channel_loss(a, 0.3).unwrap();
        let dist = step_distribution(&p, &defs, &plan).unwrap();
        assert_eq!(dist.len(), 2, "delivered and lost outcomes");
        assert!((dist.total_mass() - 1.0).abs() < 1e-12);
        let nil_dist = step_distribution(&nil(), &defs, &plan).unwrap();
        assert!(nil_dist.is_empty(), "terminal state has no successors");
    }

    #[test]
    fn a_blocked_broadcast_has_probability_zero() {
        // A listener at arity 2 blocks `a<v>`: the system has no step,
        // so the watched `a` never fires under any loss rate.
        let defs = d();
        let [a, b, v, x, y] = names(["a", "b", "v", "x", "y"]);
        let sender = out(a, [v], out_(b, []));
        for p in [
            par(sender.clone(), inp_(a, [x, y])),
            par(sender, par(inp_(a, [x]), inp_(a, [x, y]))),
        ] {
            for loss in [0.0, 0.3, 1.0] {
                let plan = FaultPlan::new(5).with_channel_loss(a, loss).unwrap();
                assert!(step_distribution(&p, &defs, &plan).unwrap().is_empty());
                let o = convergence_exact(&p, &defs, &plan, a, 6, &Budget::unlimited()).unwrap();
                assert_eq!((o.p_lo, o.p_hi), (0.0, 0.0), "loss {loss}");
                let est = convergence_mc(
                    &p,
                    &defs,
                    &plan,
                    a,
                    16,
                    200,
                    &Budget::unlimited(),
                    &CheckpointCfg::default(),
                )
                .unwrap();
                assert_eq!(est.successes, 0, "loss {loss}");
            }
        }
    }

    #[test]
    fn exact_rejects_non_loss_plans() {
        let defs = d();
        let (p, _, c) = relay();
        let plan = FaultPlan::new(1).with_refusals(0.5, 2).unwrap();
        let e = convergence_exact(&p, &defs, &plan, c, 4, &Budget::unlimited());
        assert!(matches!(e, Err(ProbError::UnsupportedPlan(_))));
        let crashy = FaultPlan::new(1).with_crash(0, 0);
        assert!(matches!(
            convergence_exact(&p, &defs, &crashy, c, 4, &Budget::unlimited()),
            Err(ProbError::UnsupportedPlan(_))
        ));
    }

    #[test]
    fn exact_budget_trips_typed() {
        let defs = d();
        let (p, a, c) = relay();
        let plan = FaultPlan::new(1).with_channel_loss(a, 0.5).unwrap();
        let e = convergence_exact(&p, &defs, &plan, c, 6, &Budget::states(0));
        assert!(matches!(
            e,
            Err(ProbError::Engine(EngineError::StateBudgetExceeded {
                limit: 0
            }))
        ));
    }

    #[test]
    fn mc_is_deterministic_and_tracks_exact() {
        let defs = d();
        let (p, a, c) = relay();
        let plan = FaultPlan::new(99).with_channel_loss(a, 0.3).unwrap();
        let run = || {
            convergence_mc(
                &p,
                &defs,
                &plan,
                c,
                6,
                2_000,
                &Budget::unlimited(),
                &CheckpointCfg::default(),
            )
            .unwrap()
        };
        let e1 = run();
        let e2 = run();
        assert_eq!(e1, e2, "same plan ⇒ bit-identical estimate");
        assert!(
            e1.ci.0 <= 0.7 && 0.7 <= e1.ci.1,
            "true probability 0.7 outside CI [{}, {}]",
            e1.ci.0,
            e1.ci.1
        );
    }

    #[test]
    fn mc_interrupts_and_resumes_bit_for_bit() {
        let defs = d();
        let (p, a, c) = relay();
        let plan = FaultPlan::new(7).with_channel_loss(a, 0.4).unwrap();
        let quiet = convergence_mc(
            &p,
            &defs,
            &plan,
            c,
            6,
            500,
            &Budget::unlimited(),
            &CheckpointCfg::default(),
        )
        .unwrap();
        // Interrupt at every 100-sample boundary via fuel, then resume.
        let mut ckpt = McCheckpoint::default();
        loop {
            let cfg = CheckpointCfg::default().with_fuel(Arc::new(AtomicUsize::new(100)));
            match convergence_mc_resume(
                &p,
                &defs,
                &plan,
                c,
                6,
                500,
                &Budget::unlimited(),
                &cfg,
                ckpt.clone(),
            ) {
                Ok(est) => {
                    assert_eq!(est, quiet, "resumed estimate must match the quiet run");
                    break;
                }
                Err(i) => {
                    assert_eq!(i.error, EngineError::Cancelled);
                    assert_eq!(i.checkpoint.done, ckpt.done + 100);
                    // Round-trip the checkpoint through its codec, as a
                    // persistence layer would.
                    ckpt = i.checkpoint.to_string().parse().unwrap();
                }
            }
        }
    }

    #[test]
    fn mc_budget_stops_with_checkpoint() {
        let defs = d();
        let (p, a, c) = relay();
        let plan = FaultPlan::new(3).with_channel_loss(a, 0.2).unwrap();
        let err = convergence_mc(
            &p,
            &defs,
            &plan,
            c,
            6,
            1_000,
            &Budget::states(10),
            &CheckpointCfg::default(),
        )
        .unwrap_err();
        assert_eq!(err.error, EngineError::StateBudgetExceeded { limit: 10 });
        assert_eq!(err.checkpoint.done, 11, "checkpoint marks the boundary");
    }

    #[test]
    fn mc_checkpoint_codec_round_trips() {
        let c = McCheckpoint {
            done: 123,
            successes: 45,
        };
        let text = c.to_string();
        assert!(text.starts_with("bpi-mc-checkpoint/v1\n"));
        assert_eq!(text.parse::<McCheckpoint>().unwrap(), c);
        assert!("junk".parse::<McCheckpoint>().is_err());
        assert!("bpi-mc-checkpoint/v1\ndone\t1"
            .parse::<McCheckpoint>()
            .is_err());
        assert!("bpi-mc-checkpoint/v1\ndone\t1\nsuccesses\t2"
            .parse::<McCheckpoint>()
            .is_err());
    }

    #[test]
    fn wilson_interval_is_sane() {
        let (lo, hi) = wilson_ci(0, 0);
        assert_eq!((lo, hi), (0.0, 1.0));
        let (lo, hi) = wilson_ci(0, 100);
        assert!(lo < 1e-12);
        assert!(hi > 0.0 && hi < 0.06);
        let (lo, hi) = wilson_ci(100, 100);
        assert!(lo > 0.94 && lo < 1.0);
        assert!(hi > 1.0 - 1e-12, "upper end collapses to 1 at p̂ = 1");
        let (lo, hi) = wilson_ci(50, 100);
        assert!(lo < 0.5 && 0.5 < hi);
        assert!(hi - lo < 0.25, "reasonably tight at n = 100");
    }

    #[test]
    fn sample_seeds_are_spread() {
        let s: std::collections::BTreeSet<u64> = (0..1000).map(|i| sample_seed(42, i)).collect();
        assert_eq!(s.len(), 1000, "no collisions across 1000 indices");
        assert_ne!(sample_seed(1, 0), sample_seed(2, 0));
    }
}
