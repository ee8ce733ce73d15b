//! Checkpoint/resume plumbing for the long-running fixpoint engines.
//!
//! The two expensive analyses in this workspace — reachable-graph
//! construction ([`crate::explore`], `bpi-equiv`'s `Graph::build*`) and
//! partition refinement (`bpi-equiv`'s `refine*` family) — are both
//! *resumable* computations: a frontier build is fully described by its
//! visited states + pending frontier, and any intermediate refinement
//! relation is a superset of the greatest fixpoint, so re-seeding the
//! worklist from a relation snapshot converges to the same answer. This
//! module provides the shared machinery:
//!
//! * [`Interrupted`] — a typed interruption *carrying* the checkpoint,
//!   so budget exhaustion never throws partial work away;
//! * [`CheckpointCfg`] — a fuel tank: an optional cooperative
//!   [`fuel`](CheckpointCfg::fuel) countdown that forces a checkpointed
//!   stop after exactly N units (the daemon's preemptive slices and the
//!   interrupt-at-every-boundary differential tests are built on it),
//!   and [`CheckpointCfg::poll`], the per-unit interruption poll every
//!   checkpointed engine runs;
//! * [`ExploreCheckpoint`] — the serializable frozen state of a
//!   step-move exploration, a `bpi_core::record` document (with serde
//!   impls carrying the same text).
//!
//! A checkpointed engine stops for exactly two reasons: its [`Budget`]
//! runs out (state ceiling, deadline, cancellation) or its fuel tank is
//! empty. Either way it returns [`Interrupted`] with the checkpoint of
//! the last unit boundary. Retrying, parking and panic isolation are the
//! caller's business; in this workspace the `bpi-server` daemon's slice
//! loop is the one caller that does them.
//!
//! Snapshot/resume events surface as **advisory** `bpi-obs` counters —
//! deterministic counters stay functions of the final result, which is
//! the invariant the differential resume suite checks.

use crate::budget::{Budget, EngineError};
use bpi_core::action::Action;
use bpi_core::name::Name;
use bpi_core::record::{Reader, Writer};
use bpi_core::syntax::P;
use bpi_obs::{counter, Counter, Det, Value};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, LazyLock};

static CKPT_SNAPSHOTS: LazyLock<&Counter> =
    LazyLock::new(|| counter("semantics.checkpoint.snapshots", Det::Advisory));
static CKPT_RESUMES: LazyLock<&Counter> =
    LazyLock::new(|| counter("semantics.checkpoint.resumes", Det::Advisory));

/// An engine stop that lost nothing: the typed reason plus a checkpoint
/// from which [`resume`](crate::explore::explore_resume_from)-style APIs
/// continue without redoing completed work.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Interrupted<C> {
    /// Why the engine stopped: the budget ran out, or the fuel tank did
    /// ([`EngineError::Cancelled`]).
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

/// The frozen state of an in-progress step-move exploration
/// ([`crate::explore::explore_with_checkpoint`]): everything needed to
/// continue — visited states, their recorded edges, the pending LIFO
/// frontier, the protected-name set, and the fault-log replay cursor for
/// runs driven against a [`crate::FaultLog`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExploreCheckpoint {
    /// Discovered (normalised) states; index 0 is the initial state.
    pub states: Vec<P>,
    /// `edges[i]` — recorded transitions of state `i` (empty for states
    /// still on the frontier).
    pub edges: Vec<Vec<(Action, usize)>>,
    /// Indices of states not yet expanded, in LIFO order (the next state
    /// to expand is the *last* element).
    pub frontier: Vec<usize>,
    /// Names protected from extruded-name normalisation, in
    /// first-occurrence order.
    pub protected: Vec<Name>,
    /// Whether extruded-name normalisation was on.
    pub normalize_extruded: bool,
    /// States expanded so far, counted on across resumes.
    pub expanded: usize,
    /// Replay cursor into the driving [`crate::FaultLog`], for analyses
    /// that interleave exploration with fault replay: the number of
    /// fault events already consumed when this snapshot was taken.
    pub fault_cursor: usize,
}

impl ExploreCheckpoint {
    /// Fraction-of-work hint: states visited so far.
    pub fn states_explored(&self) -> usize {
        self.states.len()
    }

    /// Serialises to the versioned line-based text format (see the
    /// `Display` impl; `from_text` inverts it).
    pub fn to_text(&self) -> String {
        self.to_string()
    }

    /// Parses the text format produced by [`ExploreCheckpoint::to_text`].
    pub fn from_text(s: &str) -> Result<ExploreCheckpoint, String> {
        s.parse()
    }
}

/// The checkpoint text format, one record per line, tab-separated:
///
/// ```text
/// bpi-explore-checkpoint/v1
/// normalize_extruded<TAB>true
/// expanded<TAB>7
/// fault_cursor<TAB>0
/// protected<TAB>a,b
/// frontier<TAB>5,6
/// state<TAB><process in concrete syntax>     (one per state, in order)
/// edge<TAB><src><TAB><label><TAB><dst>       (one per edge, in order)
/// ```
///
/// A `bpi_core::record` document: processes and labels serialise
/// through their concrete syntax, so checkpoints are human-readable and
/// survive interner re-seeding across processes.
impl std::fmt::Display for ExploreCheckpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut w = Writer::new(f, "bpi-explore-checkpoint/v1")?;
        w.field("normalize_extruded", self.normalize_extruded)?;
        w.field("expanded", self.expanded)?;
        w.field("fault_cursor", self.fault_cursor)?;
        w.list("protected", &self.protected)?;
        w.list("frontier", &self.frontier)?;
        w.states(&self.states)?;
        w.edges(&self.edges)
    }
}

impl std::str::FromStr for ExploreCheckpoint {
    type Err = String;

    fn from_str(s: &str) -> Result<ExploreCheckpoint, String> {
        let mut r = Reader::new(s, "bpi-explore-checkpoint/v1")?;
        let normalize_extruded = r.value("normalize_extruded")?;
        let expanded = r.value("expanded")?;
        let fault_cursor = r.value("fault_cursor")?;
        let protected = r.list("protected")?;
        let frontier: Vec<usize> = r.list("frontier")?;
        let (states, edges) = r.graph(|_, _| Ok(false))?;
        if frontier.iter().any(|&i| i >= states.len()) {
            return Err("frontier index out of range".into());
        }
        Ok(ExploreCheckpoint {
            states,
            edges,
            frontier,
            protected,
            normalize_extruded,
            expanded,
            fault_cursor,
        })
    }
}

bpi_core::text_serde!(ExploreCheckpoint, "a bpi-explore-checkpoint/v1 document");

#[cfg(test)]
mod tests {
    use super::*;
    use bpi_core::builder::*;

    fn sample() -> ExploreCheckpoint {
        let [a, b, x] = names(["a", "b", "x"]);
        ExploreCheckpoint {
            states: vec![
                par(out_(a, [b]), inp(a, [x], out_(x, []))),
                out_(b, []),
                nil(),
            ],
            edges: vec![
                vec![(Action::free_output(a, vec![b]), 1), (Action::Tau, 2)],
                vec![(Action::free_output(b, vec![]), 2)],
                vec![],
            ],
            frontier: vec![2],
            protected: vec![a, b],
            normalize_extruded: true,
            expanded: 2,
            fault_cursor: 3,
        }
    }

    #[test]
    fn text_roundtrip() {
        let c = sample();
        let text = c.to_text();
        let back = ExploreCheckpoint::from_text(&text)
            .unwrap_or_else(|e| panic!("parse failed: {e}\n{text}"));
        assert_eq!(back, c);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(ExploreCheckpoint::from_text("").is_err());
        assert!(ExploreCheckpoint::from_text("bpi-explore-checkpoint/v2").is_err());
        let mut text = sample().to_text();
        text.push_str("edge\t99\ttau\t0\n");
        assert!(ExploreCheckpoint::from_text(&text).is_err(), "oob edge");
        let garbled = sample().to_text().replace("state\t", "sate\t");
        assert!(ExploreCheckpoint::from_text(&garbled).is_err());
    }

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
