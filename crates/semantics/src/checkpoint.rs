//! Checkpoint/resume plumbing for the long-running engines.
//!
//! The expensive analyses the `bpi-server` daemon slices — `bpi-equiv`'s
//! check pipeline (graph build, then pairwise or partition refinement)
//! and Monte-Carlo reliability ([`crate::prob`]) — are *resumable*
//! computations: a frontier build is fully described by its visited
//! states + pending frontier, any intermediate refinement relation is a
//! superset of the greatest fixpoint, and a sampler is described by its
//! sample counts. This module provides the shared machinery:
//!
//! * [`Interrupted`] — a typed interruption *carrying* the checkpoint,
//!   so budget exhaustion never throws partial work away;
//! * [`CheckpointCfg`] — a fuel tank: an optional cooperative
//!   [`fuel`](CheckpointCfg::fuel) countdown that forces a checkpointed
//!   stop after exactly N units (the daemon's preemptive slices and the
//!   interrupt-at-every-boundary differential tests are built on it),
//!   and [`CheckpointCfg::poll`], the per-unit interruption poll every
//!   checkpointed engine runs.
//!
//! The checkpoints themselves live with their engines (`bpi-equiv`'s
//! `checkpoint` module, [`crate::prob::McCheckpoint`]), each a
//! `bpi_core::record` document.
//!
//! A checkpointed engine stops when its [`Budget`] runs out (state
//! ceiling, deadline, cancellation) or its fuel tank is empty, and the
//! check pipeline also when a product is above its fixed pair ceiling
//! ([`EngineError::PairCeilingExceeded`]). Either way it returns
//! [`Interrupted`] with the checkpoint of the last unit boundary.
//! Retrying, parking and panic isolation are the caller's business; in
//! this workspace the `bpi-server` daemon's slice loop is the one caller
//! that does them.
//!
//! Snapshot/resume events surface as **advisory** `bpi-obs` counters —
//! deterministic counters stay functions of the final result, which is
//! the invariant the differential resume suite checks.

use crate::budget::{Budget, EngineError};
use bpi_obs::{counter, Counter, Det, Value};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, LazyLock};

static CKPT_SNAPSHOTS: LazyLock<&Counter> =
    LazyLock::new(|| counter("semantics.checkpoint.snapshots", Det::Advisory));
static CKPT_RESUMES: LazyLock<&Counter> =
    LazyLock::new(|| counter("semantics.checkpoint.resumes", Det::Advisory));

/// An engine stop that lost nothing: the typed reason plus a checkpoint
/// from which the engine's resume entry point (such as
/// [`crate::prob::convergence_mc_resume`]) continues without redoing
/// completed work.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Interrupted<C> {
    /// Why the engine stopped: the budget ran out, the fuel tank did
    /// ([`EngineError::Cancelled`]), or a fixed ceiling was exceeded.
    pub error: EngineError,
    /// The state of the run at the stop boundary.
    pub checkpoint: C,
}

impl<C> Interrupted<C> {
    /// Maps the checkpoint payload, keeping the error.
    pub fn map<D>(self, f: impl FnOnce(C) -> D) -> Interrupted<D> {
        Interrupted {
            error: self.error,
            checkpoint: f(self.checkpoint),
        }
    }
}

impl<C> std::fmt::Display for Interrupted<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "interrupted ({}) with checkpoint", self.error)
    }
}

impl<C: std::fmt::Debug> std::error::Error for Interrupted<C> {}

/// The fuel tank of one engine run; `C` is the checkpoint the engine
/// hands back when it stops. The default has no tank and never stops a
/// run, so only the [`Budget`] can interrupt it.
#[derive(Debug)]
pub struct CheckpointCfg<C> {
    /// Cooperative unit countdown shared with the caller: each completed
    /// unit decrements it, and when it reaches zero the engine stops
    /// with [`EngineError::Cancelled`] *and a checkpoint*. This is how
    /// the daemon slices a long check, and how the differential suite
    /// interrupts a run at every feasible boundary.
    pub fuel: Option<Arc<AtomicUsize>>,
    checkpoint: PhantomData<fn() -> C>,
}

impl<C> Default for CheckpointCfg<C> {
    fn default() -> Self {
        CheckpointCfg {
            fuel: None,
            checkpoint: PhantomData,
        }
    }
}

impl<C> CheckpointCfg<C> {
    /// Stop (with a checkpoint) after `n` units.
    pub fn fuelled(n: usize) -> CheckpointCfg<C> {
        CheckpointCfg::default().with_fuel(Arc::new(AtomicUsize::new(n)))
    }

    /// Adds a fuel countdown to this configuration.
    pub fn with_fuel(mut self, fuel: Arc<AtomicUsize>) -> CheckpointCfg<C> {
        self.fuel = Some(fuel);
        self
    }

    /// Burns one unit of fuel; `Err(Cancelled)` when the tank is empty.
    pub fn burn_fuel(&self) -> Result<(), EngineError> {
        let Some(fuel) = &self.fuel else {
            return Ok(());
        };
        match fuel.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1)) {
            Ok(_) => Ok(()),
            Err(_) => Err(EngineError::Cancelled),
        }
    }

    /// The per-unit interruption poll of every checkpointed engine, run
    /// once per unit *before* committing it: the budget first (its
    /// deadline, cancellation flag, and state ceiling against
    /// `states_used`), then one unit of fuel. Returns the typed reason
    /// to stop.
    pub fn poll(&self, budget: &Budget, states_used: usize) -> Result<(), EngineError> {
        budget.check(states_used)?;
        self.burn_fuel()
    }
}

/// Advisory bookkeeping for the snapshot an interrupted run hands back.
pub fn record_snapshot(kind: &'static str) {
    if bpi_obs::metrics_enabled() {
        CKPT_SNAPSHOTS.inc();
    }
    bpi_obs::emit("semantics.checkpoint", "snapshot", || {
        vec![("kind", Value::from(kind))]
    });
}

/// Advisory bookkeeping for a resumed run of `engine`.
pub fn record_resume(engine: &'static str) {
    if bpi_obs::metrics_enabled() {
        CKPT_RESUMES.inc();
    }
    bpi_obs::emit("semantics.checkpoint", "resume", || {
        vec![("engine", Value::from(engine))]
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuel_counts_down_to_cancelled() {
        let cfg: CheckpointCfg<()> = CheckpointCfg::fuelled(2);
        assert_eq!(cfg.burn_fuel(), Ok(()));
        assert_eq!(cfg.burn_fuel(), Ok(()));
        assert_eq!(cfg.burn_fuel(), Err(EngineError::Cancelled));
        assert_eq!(cfg.burn_fuel(), Err(EngineError::Cancelled));
        let inert: CheckpointCfg<()> = CheckpointCfg::default();
        assert_eq!(inert.burn_fuel(), Ok(()));
    }

    #[test]
    fn poll_checks_the_budget_before_burning_fuel() {
        let cfg: CheckpointCfg<()> = CheckpointCfg::fuelled(1);
        let tank = cfg.fuel.clone().unwrap();
        let tight = Budget::states(3);
        assert_eq!(
            cfg.poll(&tight, 4),
            Err(EngineError::StateBudgetExceeded { limit: 3 })
        );
        assert_eq!(tank.load(Ordering::SeqCst), 1, "budget stops burn no fuel");
        assert_eq!(cfg.poll(&tight, 3), Ok(()));
        assert_eq!(cfg.poll(&tight, 3), Err(EngineError::Cancelled));
    }
}
