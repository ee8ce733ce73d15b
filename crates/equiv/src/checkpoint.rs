//! Checkpoint/resume for the bisimulation pipeline.
//!
//! Long-running checks lose work in three places: the two graph builds
//! and the refinement fixpoint. This module gives each a serializable
//! snapshot and stitches them into one umbrella [`Checkpoint`] for the
//! whole [`Checker`] pipeline, so a budget exhaustion, deadline,
//! cancellation or empty fuel tank surfaces as a typed [`Interrupted`]
//! carrying everything needed to continue:
//!
//! * [`GraphCheckpoint`] — an in-progress (or completed) FIFO graph
//!   build: committed states/edges/discards plus the pending queue.
//!   Resumed by the pipeline's next graph phase; completed builds are
//!   bit-identical to straight [`Graph::build`]s.
//! * [`RefineSnapshot`] — a refinement run at a round boundary, on
//!   whichever engine the dispatch picked for the product: a
//!   [`PartitionCheckpoint`] (block array and dirty worklist, linear in
//!   the state count; resumed by
//!   [`crate::partition::refine_partition_resume`]) on partition-safe
//!   products, a [`RefineCheckpoint`] otherwise. Because all refinement
//!   engines are chaotic iterations of the same monotone transfer
//!   operator, any intermediate pair relation is a superset of the
//!   greatest fixpoint, so the relation (plus a round count for
//!   reporting) is the pairwise engine's *whole* resumable state;
//!   resumed by [`crate::bisim::refine_resume`]. Products at or below the
//!   naive cutover refine in one unbudgeted sweep and never park here.
//! * [`Checkpoint`] — which phase the pipeline was in, with the completed
//!   prefix embedded, so [`Checker::resume_from`] is self-contained given
//!   the same defs/options/variant.
//!
//! All of them serialise as `bpi_core::record` documents, so
//! checkpoints survive process restarts and interner re-seeding.
//!
//! [`Checker::run_slice`] closes the loop: it runs the pipeline on a
//! fuel tank and parks the checkpoint when the tank runs dry. The
//! `bpi-server` daemon drives it slice by slice, journals each parked
//! checkpoint, and is the one supervisor: it resumes parked checks after
//! a restart and isolates a panicking slice with `catch_unwind`.

use crate::bisim::{
    engine_for, partition_relation, refine, refine_budgeted, refine_resume, Checker, Engine,
    PairRelation, Variant,
};
use crate::graph::{shared_pool, Graph, Opts};
use crate::partition::{refine_partition_budgeted, refine_partition_resume};
use bpi_core::action::Action;
use bpi_core::name::{Name, NameSet};
use bpi_core::parser::parse_process;
use bpi_core::record::{self, Reader, Writer};
use bpi_core::syntax::P;
use bpi_obs::Value;
use bpi_semantics::budget::EngineError;
use bpi_semantics::checkpoint::{record_resume, CheckpointCfg, Interrupted};
use bpi_semantics::normalize_state_cached;
use std::collections::VecDeque;
use std::sync::Arc;

/// An in-progress (or completed) sequential FIFO graph build: everything
/// the pipeline's graph phase needs to continue without re-expanding a
/// committed state. `pending` is the FIFO work queue (front = next state
/// to expand); an empty queue means the build is complete.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphCheckpoint {
    /// Committed α-canonical states in discovery order.
    pub states: Vec<P>,
    /// Outgoing edges per committed state (empty for states still
    /// pending expansion).
    pub edges: Vec<Vec<(Action, usize)>>,
    /// Discarded pool channels per committed state.
    pub discarding: Vec<NameSet>,
    /// FIFO queue of states discovered but not yet expanded.
    pub pending: VecDeque<usize>,
    /// The global input pool of the build.
    pub pool: Vec<Name>,
}

impl GraphCheckpoint {
    /// The initial snapshot of a fresh build: the normalised seed state,
    /// queued.
    pub fn seed(seed: &P, pool: &[Name]) -> GraphCheckpoint {
        GraphCheckpoint {
            states: vec![normalize_state_cached(seed, None)],
            edges: vec![Vec::new()],
            discarding: vec![NameSet::new()],
            pending: VecDeque::from([0]),
            pool: pool.to_vec(),
        }
    }

    /// Snapshot of a **completed** build (used to embed a finished phase
    /// in the umbrella [`Checkpoint`]).
    pub fn of_graph(g: &Graph) -> GraphCheckpoint {
        GraphCheckpoint {
            states: g.states.clone(),
            edges: (0..g.len())
                .map(|i| {
                    g.edge_ids(i)
                        .map(|(l, j)| (g.label(l).clone(), j))
                        .collect()
                })
                .collect(),
            discarding: g.discarding.clone(),
            pending: VecDeque::new(),
            pool: g.pool.clone(),
        }
    }

    /// Whether the build has no pending work left.
    pub fn complete(&self) -> bool {
        self.pending.is_empty()
    }

    /// Fraction-of-work hint: states committed so far.
    pub fn states_explored(&self) -> usize {
        self.states.len()
    }

    /// Serialises to the versioned line-based text format (see the
    /// `Display` impl; `from_text` inverts it).
    pub fn to_text(&self) -> String {
        self.to_string()
    }

    /// Parses the text format produced by [`GraphCheckpoint::to_text`].
    pub fn from_text(s: &str) -> Result<GraphCheckpoint, String> {
        s.parse()
    }
}

/// The graph-checkpoint text format, one record per line, tab-separated:
///
/// ```text
/// bpi-graph-checkpoint/v2
/// pool<TAB>a,b,#w0
/// pending<TAB>3,4
/// node<TAB><kind><TAB>…                      (the states' node table)
/// state<TAB><node>                           (one per state, in order)
/// disc<TAB><state><TAB>a,b                   (one per non-empty set, by spelling)
/// edge<TAB><src><TAB><label><TAB><dst>       (one per edge, in order)
/// ```
///
/// Each distinct subterm of the states is one `node` record naming its
/// children by earlier node indices (`bpi_core::record::Writer::states`),
/// so a prefix term `π.p` costs one record over `p` and a τ-ladder's
/// text grows linearly in its states. `v1` wrote every state in full
/// concrete syntax; it is retired, and a `v1` section is a decode
/// error, which the daemon answers by rerunning the job.
impl std::fmt::Display for GraphCheckpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut w = Writer::new(f, "bpi-graph-checkpoint/v2")?;
        w.list("pool", &self.pool)?;
        w.list("pending", &self.pending)?;
        w.states(&self.states)?;
        for (i, d) in self.discarding.iter().enumerate() {
            if !d.is_empty() {
                // By spelling, not interner id: the text must not depend on
                // the order a process happened to intern its names in.
                let mut names: Vec<&str> = d.iter().map(Name::spelling).collect();
                names.sort_unstable();
                w.list(format_args!("disc\t{i}"), &names)?;
            }
        }
        w.edges(&self.edges)
    }
}

impl std::str::FromStr for GraphCheckpoint {
    type Err = String;

    fn from_str(s: &str) -> Result<GraphCheckpoint, String> {
        let mut r = Reader::new(s, "bpi-graph-checkpoint/v2")?;
        let pool = r.list("pool")?;
        let pending: VecDeque<usize> = r.list("pending")?.into();
        let mut disc: Vec<(usize, Vec<Name>)> = Vec::new();
        let (states, edges) = r.graph(|tag, rest| {
            if tag != "disc" {
                return Ok(false);
            }
            let [i, names] = record::fields(rest)?;
            disc.push((
                record::parse(i, "disc state")?,
                record::list(names, "disc")?,
            ));
            Ok(true)
        })?;
        // Every build holds its root state from the first snapshot on;
        // a section without one would resume into an empty graph.
        if states.is_empty() {
            return Err("graph checkpoint without a state record".into());
        }
        let n = states.len();
        let mut discarding: Vec<NameSet> = vec![NameSet::new(); n];
        for (i, names) in disc {
            *discarding
                .get_mut(i)
                .ok_or_else(|| format!("disc record for state {i} out of range"))? =
                NameSet::from_iter(names);
        }
        if pending.iter().any(|&i| i >= n) {
            return Err("pending index out of range".into());
        }
        Ok(GraphCheckpoint {
            states,
            edges,
            discarding,
            pending,
            pool,
        })
    }
}

/// A refinement relation at a round boundary — the complete resumable
/// state of any refinement engine (see the module docs for why).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RefineCheckpoint {
    /// The relation: `rel[i][j]` iff the pair still survives.
    pub rel: Vec<Vec<bool>>,
    /// Rounds completed when the snapshot was taken (reporting only —
    /// resumption correctness does not depend on it).
    pub rounds: u64,
}

impl RefineCheckpoint {
    pub fn to_text(&self) -> String {
        self.to_string()
    }

    pub fn from_text(s: &str) -> Result<RefineCheckpoint, String> {
        s.parse()
    }
}

/// The refine-checkpoint text format:
///
/// ```text
/// bpi-refine-checkpoint/v1
/// rounds<TAB>3
/// dims<TAB>4<TAB>5
/// row<TAB>10110                              (one per row, 1 = related)
/// ```
impl std::fmt::Display for RefineCheckpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut w = Writer::new(f, "bpi-refine-checkpoint/v1")?;
        w.field("rounds", self.rounds)?;
        let n2 = self.rel.first().map_or(0, |r| r.len());
        w.field("dims", format_args!("{}\t{n2}", self.rel.len()))?;
        for row in &self.rel {
            let bits: String = row.iter().map(|&b| if b { '1' } else { '0' }).collect();
            w.field("row", bits)?;
        }
        Ok(())
    }
}

impl std::str::FromStr for RefineCheckpoint {
    type Err = String;

    fn from_str(s: &str) -> Result<RefineCheckpoint, String> {
        let mut r = Reader::new(s, "bpi-refine-checkpoint/v1")?;
        let rounds = r.value("rounds")?;
        let (n1, n2): (usize, usize) = r.pair("dims")?;
        // The relation grows by the rows actually read: `dims` is only
        // checked against them, never trusted to size an allocation.
        let mut rel = Vec::new();
        for rec in r.records() {
            let (tag, bits) = rec?;
            if tag != "row" {
                return Err(format!("unrecognised record {tag:?}"));
            }
            if bits.len() != n2 {
                return Err(format!(
                    "row of width {} in a {n2}-column relation",
                    bits.len()
                ));
            }
            if let Some(c) = bits.chars().find(|c| !matches!(c, '0' | '1')) {
                return Err(format!("bad relation bit {c:?}"));
            }
            rel.push(bits.bytes().map(|b| b == b'1').collect());
        }
        if rel.len() != n1 {
            return Err(format!("{} rows in a {n1}-row relation", rel.len()));
        }
        Ok(RefineCheckpoint { rel, rounds })
    }
}

/// A partition-refinement run at a round boundary: the block
/// assignment over the disjoint union of the two graphs plus the dirty
/// worklist — linear in the state count, unlike a pair relation. The
/// signature buckets are *not* serialized: signatures of clean states
/// are pure functions of the block array, so
/// [`crate::partition::refine_partition_resume`] rebuilds them and
/// replays the remaining rounds bit-for-bit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionCheckpoint {
    /// States of the first graph (union states `0..n1`).
    pub n1: usize,
    /// States of the second graph (union states `n1..n1 + n2`).
    pub n2: usize,
    /// Current block id per union state.
    pub blocks: Vec<u32>,
    /// Dirty states awaiting signature recomputation, in queue order.
    pub worklist: VecDeque<u32>,
    /// Rounds completed when the snapshot was taken.
    pub rounds: u64,
    /// Splits performed when the snapshot was taken.
    pub splits: u64,
}

impl PartitionCheckpoint {
    pub fn to_text(&self) -> String {
        self.to_string()
    }

    pub fn from_text(s: &str) -> Result<PartitionCheckpoint, String> {
        s.parse()
    }
}

/// The partition-checkpoint text format:
///
/// ```text
/// bpi-partition-checkpoint/v1
/// dims<TAB>4<TAB>5
/// rounds<TAB>3
/// splits<TAB>2
/// blocks<TAB>0,1,0,2,…                      (block id per union state)
/// worklist<TAB>3,7                          (dirty states, queue order)
/// ```
impl std::fmt::Display for PartitionCheckpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut w = Writer::new(f, "bpi-partition-checkpoint/v1")?;
        w.field("dims", format_args!("{}\t{}", self.n1, self.n2))?;
        w.field("rounds", self.rounds)?;
        w.field("splits", self.splits)?;
        w.list("blocks", &self.blocks)?;
        w.list("worklist", &self.worklist)
    }
}

impl std::str::FromStr for PartitionCheckpoint {
    type Err = String;

    fn from_str(s: &str) -> Result<PartitionCheckpoint, String> {
        let mut r = Reader::new(s, "bpi-partition-checkpoint/v1")?;
        let (n1, n2): (usize, usize) = r.pair("dims")?;
        let union = n1
            .checked_add(n2)
            .ok_or_else(|| format!("dims {n1}+{n2} overflow"))?;
        let rounds = r.value("rounds")?;
        let splits = r.value("splits")?;
        let blocks: Vec<u32> = r.list("blocks")?;
        if blocks.len() != union {
            return Err(format!(
                "{} block entries for {n1}+{n2} union states",
                blocks.len()
            ));
        }
        // A partition of n states has at most n blocks. An unchecked id
        // would make the refiner's bucket table allocate `max_id + 1`
        // entries on restore — a corrupted byte must be a typed error,
        // not a multi-gigabyte allocation.
        if let Some(&bad) = blocks.iter().find(|&&b| b as usize >= union) {
            return Err(format!(
                "block id {bad} out of range for {n1}+{n2} union states"
            ));
        }
        let worklist: VecDeque<u32> = r.list("worklist")?.into();
        if let Some(&bad) = worklist.iter().find(|&&u| u as usize >= union) {
            return Err(format!("worklist state {bad} out of range"));
        }
        r.end()?;
        Ok(PartitionCheckpoint {
            n1,
            n2,
            blocks,
            worklist,
            rounds,
            splits,
        })
    }
}

/// The refine phase's snapshot, from whichever engine ran: each variant
/// keeps its own versioned text format, and the header line names it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RefineSnapshot {
    /// The pairwise round engine (partition-unsafe products).
    Pairwise(RefineCheckpoint),
    /// The partition refiner (partition-safe products).
    Partition(PartitionCheckpoint),
}

impl RefineSnapshot {
    /// The state counts of the two graphs the snapshot refines.
    fn dims(&self) -> (usize, usize) {
        match self {
            RefineSnapshot::Pairwise(c) => (c.rel.len(), c.rel.first().map_or(0, Vec::len)),
            RefineSnapshot::Partition(c) => (c.n1, c.n2),
        }
    }
}

impl std::fmt::Display for RefineSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RefineSnapshot::Pairwise(c) => write!(f, "{c}"),
            RefineSnapshot::Partition(c) => write!(f, "{c}"),
        }
    }
}

impl std::str::FromStr for RefineSnapshot {
    type Err = String;

    fn from_str(s: &str) -> Result<RefineSnapshot, String> {
        if Reader::new(s, "bpi-partition-checkpoint/v1").is_ok() {
            s.parse().map(RefineSnapshot::Partition)
        } else {
            s.parse().map(RefineSnapshot::Pairwise)
        }
    }
}

/// Where the [`Checker`] pipeline was interrupted, with the completed
/// prefix embedded — self-contained given the same defs, options and
/// variant.
#[derive(Clone, Debug, PartialEq)]
pub enum Checkpoint {
    /// Interrupted while building the left graph. Carries the right seed
    /// so resumption can start phase 2 without the original call's
    /// arguments.
    BuildLeft {
        left: GraphCheckpoint,
        right_seed: P,
    },
    /// Left graph complete; interrupted while building the right one.
    BuildRight {
        left: GraphCheckpoint,
        right: GraphCheckpoint,
    },
    /// Both graphs complete; interrupted at a refinement round boundary.
    Refine {
        left: GraphCheckpoint,
        right: GraphCheckpoint,
        refine: RefineSnapshot,
    },
}

impl Checkpoint {
    /// Which pipeline phase the snapshot was taken in.
    pub fn phase(&self) -> &'static str {
        match self {
            Checkpoint::BuildLeft { .. } => "build_left",
            Checkpoint::BuildRight { .. } => "build_right",
            Checkpoint::Refine { .. } => "refine",
        }
    }

    /// States committed across both graphs.
    pub fn states_explored(&self) -> usize {
        match self {
            Checkpoint::BuildLeft { left, .. } => left.states_explored(),
            Checkpoint::BuildRight { left, right } | Checkpoint::Refine { left, right, .. } => {
                left.states_explored() + right.states_explored()
            }
        }
    }

    pub fn to_text(&self) -> String {
        self.to_string()
    }

    pub fn from_text(s: &str) -> Result<Checkpoint, String> {
        s.parse()
    }
}

/// The umbrella text format: a phase header, then the sub-documents in
/// `#section`-delimited blocks (their own versioned formats verbatim):
///
/// ```text
/// bpi-equiv-checkpoint/v1
/// phase<TAB>build_left
/// right_seed<TAB><process>                   (build_left only)
/// #section left
/// bpi-graph-checkpoint/v2
/// …
/// #section refine                            (refine only)
/// bpi-partition-checkpoint/v1                 (or bpi-refine-checkpoint/v1)
/// …
/// ```
impl std::fmt::Display for Checkpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut w = Writer::new(f, "bpi-equiv-checkpoint/v1")?;
        w.field("phase", self.phase())?;
        match self {
            Checkpoint::BuildLeft { left, right_seed } => {
                w.field("right_seed", right_seed)?;
                w.section("left", left)
            }
            Checkpoint::BuildRight { left, right } => {
                w.section("left", left)?;
                w.section("right", right)
            }
            Checkpoint::Refine {
                left,
                right,
                refine,
            } => {
                w.section("left", left)?;
                w.section("right", right)?;
                w.section("refine", refine)
            }
        }
    }
}

impl std::str::FromStr for Checkpoint {
    type Err = String;

    fn from_str(s: &str) -> Result<Checkpoint, String> {
        let mut r = Reader::new(s, "bpi-equiv-checkpoint/v1")?;
        let phase = r.field("phase")?;
        let mut right_seed: Option<P> = None;
        let sections = r.sections(|tag, p| {
            if tag != "right_seed" {
                return Ok(false);
            }
            let seed = parse_process(p).map_err(|e| format!("bad right_seed {p:?}: {e}"))?;
            right_seed = Some(seed);
            Ok(true)
        })?;
        let graph = |name: &str| -> Result<GraphCheckpoint, String> { sections.get(name)?.parse() };
        // Cross-section validation: each phase's invariants are what the
        // resume path *assumes* (completed prefixes really completed,
        // relation dimensions matching the graphs), so a truncated or
        // spliced document fails here with a typed error instead of
        // tripping an assert (or panic) deep inside `resume_from`.
        match phase {
            "build_left" => Ok(Checkpoint::BuildLeft {
                left: graph("left")?,
                right_seed: right_seed.ok_or("build_left checkpoint missing right_seed")?,
            }),
            "build_right" => {
                let left = graph("left")?;
                if !left.complete() {
                    return Err("build_right checkpoint with incomplete left graph".into());
                }
                Ok(Checkpoint::BuildRight {
                    left,
                    right: graph("right")?,
                })
            }
            "refine" => {
                let left = graph("left")?;
                let right = graph("right")?;
                if !left.complete() || !right.complete() {
                    return Err("refine checkpoint with incomplete graph section".into());
                }
                let refine: RefineSnapshot = sections.get("refine")?.parse()?;
                let (n1, n2) = refine.dims();
                if (n1, n2) != (left.states.len(), right.states.len()) {
                    return Err(format!(
                        "refine section is {n1}x{n2} over {}x{} graphs",
                        left.states.len(),
                        right.states.len()
                    ));
                }
                Ok(Checkpoint::Refine {
                    left,
                    right,
                    refine,
                })
            }
            other => Err(format!("unknown phase {other:?}")),
        }
    }
}

/// Runs one resumable phase engine on `cfg`'s fuel tank (the *same*
/// shared cell: fuel counts pipeline units, not per-phase units),
/// wrapping an interruption's snapshot into an umbrella [`Checkpoint`].
fn wrapped<C, T>(
    cfg: &CheckpointCfg<Checkpoint>,
    wrap: &dyn Fn(C) -> Checkpoint,
    run: impl FnOnce(&CheckpointCfg<C>) -> Result<T, Interrupted<C>>,
) -> Result<T, Interrupted<Checkpoint>> {
    let mut inner = CheckpointCfg::default();
    inner.fuel = cfg.fuel.clone();
    run(&inner).map_err(|i| i.map(wrap))
}

/// Outcome of one [`Checker::run_slice`] call — the park/unpark
/// primitive of preemptive fair scheduling: a long check runs in
/// fuel-bounded slices, and between slices the scheduler is free to run
/// someone else.
#[derive(Debug)]
pub enum SliceOutcome {
    /// The fixpoint landed within the slice.
    Done {
        /// Whether the relation holds at the root pair.
        holds: bool,
        /// A distinguishing experiment when it fails.
        explanation: Option<String>,
    },
    /// The slice's fuel ran out at a phase/round boundary. The snapshot
    /// resumes bit-identically via another `run_slice` (same defs,
    /// options and variant) — in this process or, serialised, in the
    /// next one.
    Parked(Box<Checkpoint>),
}

/// The largest product `n₁·n₂` the checkpointed pipeline refines:
/// 20,000², the product of two graphs at `Opts::default()`'s ceiling.
/// Every engine above the naive cutover ends in an n₁×n₂ relation (the
/// partition refiner's blocks are expanded into one for the root
/// verdict and the explanation; the pairwise engine works on one
/// throughout), so without this bound a check's memory would grow with
/// the square of its `max_states`, which a served check's client picks.
pub const MAX_REFINE_PAIRS: usize = 20_000 * 20_000;

impl<'d> Checker<'d> {
    /// [`Checker::try_fixpoint`] in checkpointed form: builds both graphs
    /// and refines on `cfg`'s fuel tank, returning any interruption as
    /// [`Interrupted`] with an umbrella [`Checkpoint`] in place of the
    /// bare error.
    ///
    /// Differences from the plain path, by design:
    /// * the global graph memo is **bypassed** (a memo hit would skip the
    ///   states a checkpoint must contain), and
    /// * graph builds run sequentially (the canonical FIFO order *is* the
    ///   checkpoint format), and
    /// * the graphs are always monolithic: compose has no checkpointed
    ///   phases, and a served failure explanation is a formula over the
    ///   monolithic graphs.
    /// * a product of more than [`MAX_REFINE_PAIRS`] pairs is not
    ///   refined: the right build stops with
    ///   [`EngineError::PairCeilingExceeded`] once it would commit more
    ///   than ⌊`MAX_REFINE_PAIRS`/n₁⌋ states (n₁ the left graph's), and
    ///   so does a snapshot whose two complete graphs exceed it.
    ///
    /// Refinement runs on the engine [`crate::refine_auto`] picks for the
    /// product.
    ///
    /// Deterministic metrics are recorded once per completed phase, so an
    /// interrupted-and-resumed run leaves the same deterministic counter
    /// trail as a straight `run_with_checkpoint` call.
    pub fn run_with_checkpoint(
        &self,
        v: Variant,
        p: &P,
        q: &P,
        cfg: &CheckpointCfg<Checkpoint>,
    ) -> Result<(Arc<Graph>, Arc<Graph>, PairRelation), Interrupted<Checkpoint>> {
        let _span = bpi_obs::span("equiv.check", "run_with_checkpoint");
        let pool = shared_pool(p, q, self.opts.fresh_inputs);
        self.advance(
            v,
            Checkpoint::BuildLeft {
                left: GraphCheckpoint::seed(p, &pool),
                right_seed: q.clone(),
            },
            cfg,
        )
    }

    /// Continues [`Checker::run_with_checkpoint`] from a snapshot —
    /// typically the next slice of a parked check, a run under a larger
    /// budget after a [`EngineError::StateBudgetExceeded`], or a fresh
    /// process after deserialising the checkpoint. The caller must
    /// supply the same variant, defs and options as the original run.
    pub fn resume_from(
        &self,
        v: Variant,
        ck: Checkpoint,
        cfg: &CheckpointCfg<Checkpoint>,
    ) -> Result<(Arc<Graph>, Arc<Graph>, PairRelation), Interrupted<Checkpoint>> {
        let _span = bpi_obs::span("equiv.check", "resume_from");
        record_resume("checker");
        bpi_obs::emit("equiv.check", "resumed", || {
            vec![
                ("phase", Value::from(ck.phase())),
                ("states", Value::from(ck.states_explored())),
            ]
        });
        self.advance(v, ck, cfg)
    }

    /// The pipeline proper: finish whichever phase the checkpoint is in,
    /// then the remaining ones.
    fn advance(
        &self,
        v: Variant,
        ck: Checkpoint,
        cfg: &CheckpointCfg<Checkpoint>,
    ) -> Result<(Arc<Graph>, Arc<Graph>, PairRelation), Interrupted<Checkpoint>> {
        let (g1, g2, left_done, right_done, refine_ck) = match ck {
            Checkpoint::BuildLeft { left, right_seed } => {
                let g1 = self.graph_phase(left, self.opts, cfg, &|gck| Checkpoint::BuildLeft {
                    left: gck,
                    right_seed: right_seed.clone(),
                })?;
                let left_done = GraphCheckpoint::of_graph(&g1);
                let right = GraphCheckpoint::seed(&right_seed, &g1.pool);
                let g2 = self.right_phase(g1.len(), right, cfg, &|gck| Checkpoint::BuildRight {
                    left: left_done.clone(),
                    right: gck,
                })?;
                let right_done = GraphCheckpoint::of_graph(&g2);
                (Arc::new(g1), Arc::new(g2), left_done, right_done, None)
            }
            Checkpoint::BuildRight { left, right } => {
                let g1 = Arc::new(Graph::from_complete_checkpoint(left.clone()));
                let g2 = self.right_phase(g1.len(), right, cfg, &|gck| Checkpoint::BuildRight {
                    left: left.clone(),
                    right: gck,
                })?;
                let right_done = GraphCheckpoint::of_graph(&g2);
                (g1, Arc::new(g2), left, right_done, None)
            }
            Checkpoint::Refine {
                left,
                right,
                refine,
            } => {
                let g1 = Arc::new(Graph::from_complete_checkpoint(left.clone()));
                let g2 = Arc::new(Graph::from_complete_checkpoint(right.clone()));
                (g1, g2, left, right, Some(refine))
            }
        };
        if g1.len().saturating_mul(g2.len()) > MAX_REFINE_PAIRS {
            return Err(Interrupted {
                error: EngineError::PairCeilingExceeded {
                    limit: MAX_REFINE_PAIRS,
                },
                // Both graphs are complete, so this resumes at the refine
                // phase.
                checkpoint: Checkpoint::BuildRight {
                    left: left_done,
                    right: right_done,
                },
            });
        }
        let rel = self.refine_phase(v, &g1, &g2, refine_ck, cfg, &|refine| Checkpoint::Refine {
            left: left_done.clone(),
            right: right_done.clone(),
            refine,
        })?;
        Ok((g1, g2, rel))
    }

    /// Runs (or finishes) the refine phase. A fresh phase refines on the
    /// engine [`crate::refine_auto`] picks: the naive sweep at or below
    /// the cutover (unbudgeted — the cutover bounds its work), the
    /// partition refiner on partition-safe products, the pairwise round
    /// engine otherwise. A resumed phase continues on the engine whose
    /// snapshot it carries.
    fn refine_phase(
        &self,
        v: Variant,
        g1: &Graph,
        g2: &Graph,
        from: Option<RefineSnapshot>,
        cfg: &CheckpointCfg<Checkpoint>,
        wrap: &dyn Fn(RefineSnapshot) -> Checkpoint,
    ) -> Result<PairRelation, Interrupted<Checkpoint>> {
        let budget = &self.budget;
        let pairwise = |c| wrap(RefineSnapshot::Pairwise(c));
        let partition = |c| wrap(RefineSnapshot::Partition(c));
        match from {
            None => match engine_for(g1, g2) {
                Engine::Naive => Ok(refine(v, g1, g2)),
                Engine::Worklist => wrapped(cfg, &pairwise, |inner| {
                    refine_budgeted(v, g1, g2, budget, inner)
                }),
                Engine::Partition => wrapped(cfg, &partition, |inner| {
                    refine_partition_budgeted(v, g1, g2, budget, inner)
                })
                .map(|part| partition_relation(&part)),
            },
            Some(RefineSnapshot::Pairwise(ck)) => wrapped(cfg, &pairwise, |inner| {
                refine_resume(v, g1, g2, budget, inner, ck)
            }),
            Some(RefineSnapshot::Partition(ck)) => wrapped(cfg, &partition, |inner| {
                refine_partition_resume(v, g1, g2, budget, inner, ck)
            })
            .map(|part| partition_relation(&part)),
        }
    }

    /// Runs (or finishes) one graph build phase under `opts`,
    /// translating its snapshots and errors into umbrella checkpoints.
    fn graph_phase(
        &self,
        ck: GraphCheckpoint,
        opts: Opts,
        cfg: &CheckpointCfg<Checkpoint>,
        wrap: &dyn Fn(GraphCheckpoint) -> Checkpoint,
    ) -> Result<Graph, Interrupted<Checkpoint>> {
        if ck.complete() {
            return Ok(Graph::from_complete_checkpoint(ck));
        }
        wrapped(cfg, wrap, |inner| {
            Graph::continue_checkpointed(ck, self.defs, opts, &self.budget, inner)
        })
    }

    /// The right build, against a left graph of `n1` states: capped at
    /// ⌊[`MAX_REFINE_PAIRS`]/n₁⌋ states, since a larger graph could not
    /// be refined, and stopped with [`EngineError::PairCeilingExceeded`]
    /// when that cap, not the check's own ceiling, is what stops it.
    fn right_phase(
        &self,
        n1: usize,
        ck: GraphCheckpoint,
        cfg: &CheckpointCfg<Checkpoint>,
        wrap: &dyn Fn(GraphCheckpoint) -> Checkpoint,
    ) -> Result<Graph, Interrupted<Checkpoint>> {
        let own = self.opts.max_states.min(self.budget.max_states());
        let pairs = MAX_REFINE_PAIRS / n1.max(1);
        let opts = Opts {
            max_states: self.opts.max_states.min(pairs),
            ..self.opts
        };
        self.graph_phase(ck, opts, cfg, wrap).map_err(|mut i| {
            if pairs < own && matches!(i.error, EngineError::StateBudgetExceeded { .. }) {
                i.error = EngineError::PairCeilingExceeded {
                    limit: MAX_REFINE_PAIRS,
                };
            }
            i
        })
    }

    /// Runs at most `fuel` pipeline units (states committed in the
    /// build phases, partition or pairwise refinement rounds — a product
    /// at or below the naive cutover refines in one unbudgeted sweep) of
    /// a check, starting fresh (`from = None`) or from a parked
    /// snapshot. Returns
    /// [`SliceOutcome::Parked`] when the fuel runs out,
    /// [`SliceOutcome::Done`] when the fixpoint lands, and passes
    /// through any *other* interruption (deadline, budget, pair ceiling,
    /// external cancellation) as the typed [`Interrupted`] — fuel
    /// exhaustion is scheduling, everything else is the caller's policy.
    ///
    /// Because the pipeline both parks and resumes only at unit
    /// boundaries, a run chopped into slices of any size commits the
    /// same states in the same order and refines through the same
    /// rounds as an uninterrupted run — the PR 5 resume-invisibility
    /// invariant is what makes preemption safe to apply blindly.
    pub fn run_slice(
        &self,
        v: Variant,
        p: &P,
        q: &P,
        from: Option<Checkpoint>,
        fuel: usize,
    ) -> Result<SliceOutcome, Interrupted<Checkpoint>> {
        let cfg: CheckpointCfg<Checkpoint> = CheckpointCfg::fuelled(fuel.max(1));
        let tank = cfg.fuel.clone().expect("fuelled cfg has a tank");
        let r = match from {
            Some(ck) => self.resume_from(v, ck, &cfg),
            None => self.run_with_checkpoint(v, p, q, &cfg),
        };
        match r {
            Ok((g1, g2, rel)) => {
                if rel.holds(0, 0) {
                    Ok(SliceOutcome::Done {
                        holds: true,
                        explanation: None,
                    })
                } else {
                    let why = crate::distinguish::explain_fixpoint(v, &g1, &g2, &rel.rel)
                        .map(|d| format!("{v:?} fails at the root pair: {d}"));
                    Ok(SliceOutcome::Done {
                        holds: false,
                        explanation: why,
                    })
                }
            }
            // Fuel exhaustion surfaces as Cancelled; only treat it as a
            // park when the tank really is dry (a budget's cancel flag
            // raises the same error and must stay a typed stop).
            Err(i)
                if i.error == EngineError::Cancelled
                    && tank.load(std::sync::atomic::Ordering::SeqCst) == 0 =>
            {
                Ok(SliceOutcome::Parked(Box::new(i.checkpoint)))
            }
            Err(i) => Err(i),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bisim::Verdict;
    use bpi_core::builder::*;
    use bpi_core::syntax::Defs;
    use bpi_semantics::Budget;

    fn sample_graph_ckpt() -> GraphCheckpoint {
        let d = Defs::new();
        let [a, b, x] = names(["a", "b", "x"]);
        let p = par(out_(a, [b]), inp(a, [x], out_(x, [])));
        let pool = shared_pool(&p, &nil(), 1);
        let g = Graph::build(&p, &d, &pool, Opts::default()).unwrap();
        GraphCheckpoint::of_graph(&g)
    }

    #[test]
    fn graph_checkpoint_text_roundtrip() {
        let ck = sample_graph_ckpt();
        let back = GraphCheckpoint::from_text(&ck.to_text()).unwrap();
        assert_eq!(ck, back);
        assert!(back.complete());
    }

    #[test]
    fn partition_checkpoint_text_roundtrip() {
        let ck = PartitionCheckpoint {
            n1: 3,
            n2: 2,
            blocks: vec![0, 1, 0, 2, 1],
            worklist: std::collections::VecDeque::from([4, 0]),
            rounds: 5,
            splits: 2,
        };
        let back = PartitionCheckpoint::from_text(&ck.to_text()).unwrap();
        assert_eq!(ck, back);
        // An empty worklist (quiescent snapshot) roundtrips too.
        let quiescent = PartitionCheckpoint {
            worklist: std::collections::VecDeque::new(),
            ..ck
        };
        let back = PartitionCheckpoint::from_text(&quiescent.to_text()).unwrap();
        assert_eq!(quiescent, back);
    }

    #[test]
    fn partition_checkpoint_rejects_malformed_documents() {
        for bad in [
            "",
            "bpi-partition-checkpoint/v2\ndims\t1\t1",
            "bpi-partition-checkpoint/v1\ndims\t1\t1\nrounds\t0\nsplits\t0\nblocks\t0\nworklist\t",
            "bpi-partition-checkpoint/v1\ndims\t2\t0\nrounds\t0\nsplits\t0\nblocks\t0,0\nworklist\t7",
            "bpi-partition-checkpoint/v1\ndims\t2\t0\nrounds\t0\nsplits\t0\nblocks\t0,x\nworklist\t",
            "bpi-partition-checkpoint/v1\ndims\t2\t0\nrounds\t0\nsplits\t0\nblocks\t0,0\nworklist\t\njunk\trecord",
        ] {
            assert!(
                PartitionCheckpoint::from_text(bad).is_err(),
                "accepted malformed document {bad:?}"
            );
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "bpi-graph-checkpoint/v1\npool\t\npending\t\nstate\t0", // retired version
            "bpi-graph-checkpoint/v2\npool\t\npending\t1\nnode\tnil\nstate\t0", // pending out of range
            "bpi-refine-checkpoint/v1\nrounds\t1\ndims\t1\t2\nrow\t1",
            "bpi-equiv-checkpoint/v1\nphase\tnonsense",
            "bpi-equiv-checkpoint/v1\nphase\tbuild_left\n#section left\nbpi-graph-checkpoint/v2\npool\t\npending\t",
        ] {
            assert!(
                Checkpoint::from_text(bad).is_err()
                    || GraphCheckpoint::from_text(bad).is_err()
                        && RefineCheckpoint::from_text(bad).is_err(),
                "accepted malformed document {bad:?}"
            );
        }
        // Every build holds its root state: a graph section without a
        // `state` record is malformed on its own and inside an umbrella
        // (resuming one indexed the root pair of an empty relation).
        let stateless = "bpi-graph-checkpoint/v2\npool\t\npending\t\nnode\tnil\n";
        assert!(GraphCheckpoint::from_text(stateless).is_err());
        for doc in [
            format!("bpi-equiv-checkpoint/v1\nphase\tbuild_left\nright_seed\t0\n#section left\n{stateless}"),
            format!(
                "bpi-equiv-checkpoint/v1\nphase\trefine\n#section left\n{stateless}#section right\n\
                 {stateless}#section refine\nbpi-refine-checkpoint/v1\nrounds\t0\ndims\t0\t0\n"
            ),
        ] {
            assert!(Checkpoint::from_text(&doc).is_err(), "accepted {doc:?}");
        }
    }

    #[test]
    fn checkpointed_pipeline_matches_plain_checker() {
        let d = Defs::new();
        let [a, b] = names(["a", "b"]);
        let p = out(a, [b], tau(out_(b, [])));
        let q = out(a, [b], out_(b, []));
        let c = Checker::new(&d);
        for v in [Variant::StrongLabelled, Variant::WeakLabelled] {
            let (_, _, rel) = c
                .run_with_checkpoint(v, &p, &q, &CheckpointCfg::default())
                .expect("unbudgeted run cannot be interrupted");
            let plain = c.check(v, &p, &q);
            assert_eq!(
                rel.holds(0, 0),
                plain == Verdict::Holds,
                "{v:?} verdict diverged from the plain checker"
            );
        }
    }

    #[test]
    fn budget_exhaustion_checkpoints_and_resumes_to_the_same_verdict() {
        // BPump(a) has an unbounded graph: a small ceiling interrupts the
        // left build with a resumable snapshot; nil vs nil under a small
        // fuel interrupts later phases too.
        let d = Defs::new();
        let [a, b] = names(["a", "b"]);
        let p = out(a, [b], tau(out_(b, [])));
        let q = out(a, [b], out_(b, []));
        let c = Checker::new(&d).with_budget(Budget::states(2));
        let err =
            match c.run_with_checkpoint(Variant::StrongLabelled, &p, &q, &CheckpointCfg::default())
            {
                Err(i) => i,
                Ok(_) => panic!("a 2-state ceiling must interrupt"),
            };
        assert_eq!(
            err.error,
            EngineError::StateBudgetExceeded { limit: 2 },
            "typed error must surface inside Interrupted"
        );
        // Resume under a sufficient budget — straight to the answer.
        let c2 = Checker::new(&d);
        let (_, _, rel) = c2
            .resume_from(
                Variant::StrongLabelled,
                err.checkpoint,
                &CheckpointCfg::default(),
            )
            .expect("resume under an unlimited budget completes");
        assert_eq!(
            rel.holds(0, 0),
            c2.check(Variant::StrongLabelled, &p, &q) == Verdict::Holds
        );
    }
}
