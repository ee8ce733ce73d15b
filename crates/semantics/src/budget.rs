//! Resource budgets and typed exhaustion errors for the heavy engines.
//!
//! Every state-space engine in this workspace (weak closures, graph
//! exploration, bisimulation graphs, the axiomatic prover) can in
//! principle diverge on an adversarial input: the bπ LTS is finitely
//! branching but not finite-state. Historically each engine policed its
//! own `usize` bound and `panic!`ed past it; a [`Budget`] replaces those
//! ad-hoc limits with one composable description — a state-count ceiling,
//! an optional wall-clock deadline, and an optional cooperative
//! cancellation flag — and exhaustion surfaces as a typed
//! [`EngineError`] instead of a crash, so callers degrade gracefully
//! (report "inconclusive", or drop the work).
//!
//! A budget is one of the two reasons a checkpointed engine stops; the
//! other is an empty fuel tank ([`crate::CheckpointCfg`]). Either way
//! the engine hands back its checkpoint, and retrying is the caller's
//! policy: in this workspace only the `bpi-server` daemon's slice loop
//! parks, resumes and isolates panics.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why an engine stopped before finishing its job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The engine visited more distinct states than the budget allows.
    StateBudgetExceeded {
        /// The configured ceiling that was hit.
        limit: usize,
    },
    /// The wall-clock deadline passed mid-run.
    DeadlineExceeded,
    /// The cooperative cancellation flag was raised by another thread,
    /// or a [`crate::CheckpointCfg`] fuel tank ran dry.
    Cancelled,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::StateBudgetExceeded { limit } => {
                write!(f, "state budget of {limit} states exhausted")
            }
            EngineError::DeadlineExceeded => f.write_str("wall-clock deadline exceeded"),
            EngineError::Cancelled => f.write_str("cancelled cooperatively"),
        }
    }
}

impl std::error::Error for EngineError {}

/// A resource envelope for one engine run: state count, wall clock, and
/// cooperative cancellation. Cheap to clone; clones share the
/// cancellation flag.
#[derive(Clone, Debug)]
pub struct Budget {
    max_states: usize,
    deadline: Option<Instant>,
    cancel: Option<Arc<AtomicBool>>,
}

impl Budget {
    /// A budget bounded only by `max_states`.
    pub fn states(max_states: usize) -> Budget {
        Budget {
            max_states,
            deadline: None,
            cancel: None,
        }
    }

    /// No limits at all. `check` still honours a deadline or flag added
    /// later with the builder methods.
    pub fn unlimited() -> Budget {
        Budget::states(usize::MAX)
    }

    /// Adds a wall-clock deadline `timeout` from now.
    pub fn with_deadline(mut self, timeout: Duration) -> Budget {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Adds an absolute wall-clock deadline.
    pub fn with_deadline_at(mut self, deadline: Instant) -> Budget {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a cancellation flag. Raising the flag (from any thread)
    /// makes every subsequent `check` fail with [`EngineError::Cancelled`].
    pub fn with_cancel_flag(mut self, flag: Arc<AtomicBool>) -> Budget {
        self.cancel = Some(flag);
        self
    }

    /// The state-count ceiling.
    pub fn max_states(&self) -> usize {
        self.max_states
    }

    /// The absolute wall-clock deadline, if one was set.
    pub fn deadline_at(&self) -> Option<Instant> {
        self.deadline
    }

    /// Wall-clock time left before the deadline: `None` with no
    /// deadline, `Some(ZERO)` once it has passed. Admission-control
    /// callers use this to refuse work whose deadline cannot be met
    /// instead of queueing it to die.
    pub fn time_remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Whether the cancellation flag (if any) has been raised.
    pub fn is_cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|f| f.load(Ordering::Relaxed))
    }

    /// Polls every constraint against the current usage. Engines call
    /// this once per state they expand.
    pub fn check(&self, states_used: usize) -> Result<(), EngineError> {
        if self.is_cancelled() {
            return Err(EngineError::Cancelled);
        }
        if let Some(d) = self.deadline {
            if Instant::now() > d {
                return Err(EngineError::DeadlineExceeded);
            }
        }
        if states_used > self.max_states {
            return Err(EngineError::StateBudgetExceeded {
                limit: self.max_states,
            });
        }
        Ok(())
    }
}

impl Default for Budget {
    fn default() -> Budget {
        Budget::unlimited()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_budget_trips() {
        let b = Budget::states(10);
        assert_eq!(b.check(10), Ok(()));
        assert_eq!(
            b.check(11),
            Err(EngineError::StateBudgetExceeded { limit: 10 })
        );
    }

    #[test]
    fn deadline_trips() {
        let b = Budget::unlimited().with_deadline(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(b.check(0), Err(EngineError::DeadlineExceeded));
    }

    #[test]
    fn cancellation_trips_across_clones() {
        let flag = Arc::new(AtomicBool::new(false));
        let b = Budget::unlimited().with_cancel_flag(Arc::clone(&flag));
        let c = b.clone();
        assert_eq!(c.check(0), Ok(()));
        flag.store(true, Ordering::Relaxed);
        assert_eq!(b.check(0), Err(EngineError::Cancelled));
        assert_eq!(c.check(0), Err(EngineError::Cancelled));
    }
}
