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
//! * [`CheckpointCfg`] — how often to snapshot (`every` N units), an
//!   optional cooperative [`fuel`](CheckpointCfg::fuel) countdown that
//!   forces a checkpointed stop after exactly N units (the
//!   interrupt-at-every-boundary differential tests are built on it),
//!   and a [`CheckpointSlot`] that always holds the latest snapshot for
//!   a supervisor to grab after a crash;
//! * [`ExploreCheckpoint`] — the serializable frozen state of a
//!   step-move exploration, a `bpi_core::record` document (with serde
//!   impls carrying the same text).
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
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, LazyLock, Mutex};

static CKPT_SNAPSHOTS: LazyLock<&Counter> =
    LazyLock::new(|| counter("semantics.checkpoint.snapshots", Det::Advisory));
static CKPT_RESUMES: LazyLock<&Counter> =
    LazyLock::new(|| counter("semantics.checkpoint.resumes", Det::Advisory));

/// An engine stop that lost nothing: the typed reason plus a checkpoint
/// from which [`resume`](crate::explore::explore_resume_from)-style APIs
/// continue without redoing completed work.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Interrupted<C> {
    /// Why the engine stopped (never [`EngineError::WorkerPanicked`]:
    /// only the supervisor reports that).
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

/// A shared slot holding the most recent periodic snapshot. Cloned
/// handles refer to the same slot; a supervisor keeps one and, if the
/// supervised run dies without returning (a panic), takes the last
/// snapshot from here to resume.
#[derive(Debug)]
pub struct CheckpointSlot<C>(Arc<Mutex<Option<C>>>);

impl<C> Clone for CheckpointSlot<C> {
    fn clone(&self) -> Self {
        CheckpointSlot(Arc::clone(&self.0))
    }
}

impl<C> Default for CheckpointSlot<C> {
    fn default() -> Self {
        CheckpointSlot::new()
    }
}

impl<C> CheckpointSlot<C> {
    /// An empty slot.
    pub fn new() -> CheckpointSlot<C> {
        CheckpointSlot(Arc::new(Mutex::new(None)))
    }

    /// Replaces the stored snapshot with a newer one.
    pub fn publish(&self, c: C) {
        *self.0.lock().unwrap_or_else(|e| e.into_inner()) = Some(c);
    }

    /// Removes and returns the latest snapshot, if any.
    pub fn take(&self) -> Option<C> {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).take()
    }

    /// Whether a snapshot is currently stored.
    pub fn is_some(&self) -> bool {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).is_some()
    }
}

/// Checkpointing policy for one engine run. The default (`every = 0`,
/// no fuel, no slot) means "snapshot only when interrupted" — zero
/// overhead on the happy path.
#[derive(Debug)]
pub struct CheckpointCfg<C> {
    /// Publish a snapshot to [`slot`](CheckpointCfg::slot) every N
    /// completed units (states expanded / refinement rounds); 0 disables
    /// periodic snapshots.
    pub every: usize,
    /// Cooperative unit countdown shared with the caller: each completed
    /// unit decrements it, and when it reaches zero the engine stops
    /// with [`EngineError::Cancelled`] *and a checkpoint*. This is how
    /// the differential suite interrupts a run at every feasible
    /// boundary, and how anytime supervisors pause work.
    pub fuel: Option<Arc<AtomicUsize>>,
    /// Where periodic snapshots go; also the supervisor's crash-recovery
    /// source.
    pub slot: Option<CheckpointSlot<C>>,
}

impl<C> Default for CheckpointCfg<C> {
    fn default() -> Self {
        CheckpointCfg {
            every: 0,
            fuel: None,
            slot: None,
        }
    }
}

impl<C> CheckpointCfg<C> {
    /// Snapshot every `n` units into `slot`.
    pub fn periodic(n: usize, slot: CheckpointSlot<C>) -> CheckpointCfg<C> {
        CheckpointCfg {
            every: n,
            fuel: None,
            slot: Some(slot),
        }
    }

    /// Stop (with a checkpoint) after `n` units.
    pub fn fuelled(n: usize) -> CheckpointCfg<C> {
        CheckpointCfg {
            every: 0,
            fuel: Some(Arc::new(AtomicUsize::new(n))),
            slot: None,
        }
    }

    /// Adds a fuel countdown to this configuration.
    pub fn with_fuel(mut self, fuel: Arc<AtomicUsize>) -> CheckpointCfg<C> {
        self.fuel = Some(fuel);
        self
    }

    /// True when this configuration can never interrupt or snapshot —
    /// engines then skip all checkpoint bookkeeping.
    pub fn is_inert(&self) -> bool {
        self.every == 0 && self.fuel.is_none()
    }

    /// Burns one unit of fuel; `Err(Cancelled)` when the tank is empty.
    /// Engines call this once per unit *before* committing the unit.
    pub fn burn_fuel(&self) -> Result<(), EngineError> {
        let Some(fuel) = &self.fuel else {
            return Ok(());
        };
        match fuel.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1)) {
            Ok(_) => Ok(()),
            Err(_) => Err(EngineError::Cancelled),
        }
    }

    /// Publishes a periodic snapshot if `units` completed units call for
    /// one (and a slot is attached). `snap` runs only when needed.
    pub fn maybe_snapshot(&self, units: usize, snap: impl FnOnce() -> C) {
        if self.every > 0 && units > 0 && units.is_multiple_of(self.every) {
            if let Some(slot) = &self.slot {
                slot.publish(snap());
                record_snapshot("periodic");
            }
        }
    }
}

/// Advisory bookkeeping for an emitted snapshot (periodic or on-error).
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
    /// States expanded so far (continues the `every` phase on resume).
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

/// Per-unit budget-and-interruption poll shared by the checkpoint-aware
/// sequential engines: chaos pressure (armed supervisors only), the real
/// budget, then the fuel countdown. Returns the typed reason to stop.
pub(crate) fn poll_unit<C>(
    cfg: &CheckpointCfg<C>,
    budget: &Budget,
    states_used: usize,
    chaos_site: &'static str,
) -> Result<(), EngineError> {
    crate::chaos::pressure(chaos_site)?;
    budget.check(states_used)?;
    cfg.burn_fuel()
}

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
        assert!(inert.is_inert());
        assert_eq!(inert.burn_fuel(), Ok(()));
    }

    #[test]
    fn periodic_snapshots_land_in_the_slot() {
        let slot = CheckpointSlot::new();
        let cfg = CheckpointCfg::periodic(2, slot.clone());
        cfg.maybe_snapshot(1, || 1u32);
        assert!(!slot.is_some());
        cfg.maybe_snapshot(2, || 2u32);
        assert_eq!(slot.take(), Some(2));
        cfg.maybe_snapshot(4, || 4u32);
        cfg.maybe_snapshot(6, || 6u32);
        assert_eq!(slot.take(), Some(6), "slot keeps only the latest");
    }
}
