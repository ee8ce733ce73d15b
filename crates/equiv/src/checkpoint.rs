//! Checkpoint/resume for the bisimulation pipeline.
//!
//! Long-running checks lose work in three places: the two graph builds
//! and the refinement fixpoint. This module gives each a serializable
//! snapshot and stitches them into one umbrella [`Checkpoint`] for the
//! whole [`Checker`] pipeline, so a budget exhaustion, deadline,
//! cancellation, chaos injection or panicked worker surfaces as a typed
//! [`Interrupted`] carrying everything needed to continue:
//!
//! * [`GraphCheckpoint`] — an in-progress (or completed) FIFO graph
//!   build: committed states/edges/discards plus the pending queue.
//!   Resumed by [`Graph::resume_from`]; completed builds are bit-identical
//!   to straight [`Graph::build`]s.
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
//! All of them serialise through a versioned line-based text format (and
//! serde, via the same concrete syntax as `bpi-core`'s impls), so
//! checkpoints survive process restarts and interner re-seeding.
//!
//! [`Checker::check_supervised`] closes the loop: it runs the pipeline
//! under [`bpi_semantics::supervise`], which isolates panics with
//! `catch_unwind`, grows the budget on retryable errors, resumes from the
//! last snapshot instead of restarting cold, and — when attempts run out —
//! returns a [`SupervisedVerdict::Inconclusive`] that still carries the
//! final checkpoint as a partial verdict.

use crate::bisim::{
    engine_for, partition_relation, refine, refine_budgeted, refine_resume, Checker, Engine,
    PairRelation, Variant,
};
use crate::graph::{shared_pool, Graph};
use crate::partition::{refine_partition_budgeted, refine_partition_resume};
use bpi_core::action::Action;
use bpi_core::name::{Name, NameSet};
use bpi_core::syntax::P;
use bpi_obs::Value;
use bpi_semantics::budget::EngineError;
use bpi_semantics::checkpoint::{record_resume, CheckpointCfg, CheckpointSlot, Interrupted};
use bpi_semantics::normalize_state_cached;
use bpi_semantics::supervise::SuperviseError;
use std::collections::VecDeque;
use std::sync::Arc;

/// An in-progress (or completed) sequential FIFO graph build: everything
/// [`Graph::resume_from`] needs to continue without re-expanding a
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
            edges: g.edges.clone(),
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

fn join_csv<T: std::fmt::Display>(xs: impl IntoIterator<Item = T>) -> String {
    let mut out = String::new();
    for (i, x) in xs.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&x.to_string());
    }
    out
}

fn names_csv(s: &str) -> Vec<Name> {
    s.split(',')
        .filter(|x| !x.is_empty())
        .map(Name::intern_raw)
        .collect()
}

/// The graph-checkpoint text format, one record per line, tab-separated:
///
/// ```text
/// bpi-graph-checkpoint/v1
/// pool<TAB>a,b,#w0
/// pending<TAB>3,4
/// state<TAB><process in concrete syntax>     (one per state, in order)
/// disc<TAB><state><TAB>a,b                   (one per non-empty set)
/// edge<TAB><src><TAB><label><TAB><dst>       (one per edge, in order)
/// ```
impl std::fmt::Display for GraphCheckpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "bpi-graph-checkpoint/v1")?;
        writeln!(f, "pool\t{}", join_csv(self.pool.iter()))?;
        writeln!(f, "pending\t{}", join_csv(self.pending.iter()))?;
        for p in &self.states {
            writeln!(f, "state\t{p}")?;
        }
        for (i, d) in self.discarding.iter().enumerate() {
            if !d.is_empty() {
                writeln!(f, "disc\t{i}\t{}", join_csv(d.iter()))?;
            }
        }
        for (i, es) in self.edges.iter().enumerate() {
            for (act, j) in es {
                writeln!(f, "edge\t{i}\t{act}\t{j}")?;
            }
        }
        Ok(())
    }
}

impl std::str::FromStr for GraphCheckpoint {
    type Err = String;

    fn from_str(s: &str) -> Result<GraphCheckpoint, String> {
        let mut lines = s.lines();
        if lines.next() != Some("bpi-graph-checkpoint/v1") {
            return Err("not a bpi-graph-checkpoint/v1 document".into());
        }
        fn field<'a>(line: Option<&'a str>, key: &str) -> Result<&'a str, String> {
            let line = line.ok_or_else(|| format!("missing {key} record"))?;
            line.strip_prefix(key)
                .and_then(|r| r.strip_prefix('\t'))
                .ok_or_else(|| format!("expected {key} record, got {line:?}"))
        }
        let pool = names_csv(field(lines.next(), "pool")?);
        let pending: VecDeque<usize> = {
            let s = field(lines.next(), "pending")?;
            if s.is_empty() {
                VecDeque::new()
            } else {
                s.split(',')
                    .map(|x| x.parse().map_err(|e| format!("bad pending index: {e}")))
                    .collect::<Result<_, String>>()?
            }
        };
        let mut states: Vec<P> = Vec::new();
        let mut disc_lines: Vec<(usize, Vec<Name>)> = Vec::new();
        let mut edge_lines: Vec<(usize, Action, usize)> = Vec::new();
        for line in lines {
            if let Some(text) = line.strip_prefix("state\t") {
                if !disc_lines.is_empty() || !edge_lines.is_empty() {
                    return Err("state record after disc/edge records".into());
                }
                states.push(
                    bpi_core::parser::parse_process(text)
                        .map_err(|e| format!("bad state {text:?}: {e}"))?,
                );
            } else if let Some(rest) = line.strip_prefix("disc\t") {
                let (i, csv) = rest
                    .split_once('\t')
                    .ok_or("disc record missing name list")?;
                let i: usize = i.parse().map_err(|e| format!("bad disc state: {e}"))?;
                disc_lines.push((i, names_csv(csv)));
            } else if let Some(rest) = line.strip_prefix("edge\t") {
                let mut parts = rest.splitn(3, '\t');
                let src: usize = parts
                    .next()
                    .ok_or("edge missing source")?
                    .parse()
                    .map_err(|e| format!("bad edge source: {e}"))?;
                let act: Action = parts
                    .next()
                    .ok_or("edge missing label")?
                    .parse()
                    .map_err(|e| format!("bad edge label: {e}"))?;
                let dst: usize = parts
                    .next()
                    .ok_or("edge missing target")?
                    .parse()
                    .map_err(|e| format!("bad edge target: {e}"))?;
                edge_lines.push((src, act, dst));
            } else if !line.is_empty() {
                return Err(format!("unrecognised record {line:?}"));
            }
        }
        // Every build holds its root state from the first snapshot on;
        // a section without one would resume into an empty graph.
        if states.is_empty() {
            return Err("graph checkpoint without a state record".into());
        }
        let n = states.len();
        let mut edges: Vec<Vec<(Action, usize)>> = vec![Vec::new(); n];
        for (src, act, dst) in edge_lines {
            if src >= n || dst >= n {
                return Err(format!("edge {src}->{dst} out of range ({n} states)"));
            }
            edges[src].push((act, dst));
        }
        let mut discarding: Vec<NameSet> = vec![NameSet::new(); n];
        for (i, names) in disc_lines {
            if i >= n {
                return Err(format!("disc record for state {i} out of range"));
            }
            discarding[i] = NameSet::from_iter(names);
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
        writeln!(f, "bpi-refine-checkpoint/v1")?;
        writeln!(f, "rounds\t{}", self.rounds)?;
        let n2 = self.rel.first().map_or(0, |r| r.len());
        writeln!(f, "dims\t{}\t{}", self.rel.len(), n2)?;
        for row in &self.rel {
            let bits: String = row.iter().map(|&b| if b { '1' } else { '0' }).collect();
            writeln!(f, "row\t{bits}")?;
        }
        Ok(())
    }
}

impl std::str::FromStr for RefineCheckpoint {
    type Err = String;

    fn from_str(s: &str) -> Result<RefineCheckpoint, String> {
        let mut lines = s.lines();
        if lines.next() != Some("bpi-refine-checkpoint/v1") {
            return Err("not a bpi-refine-checkpoint/v1 document".into());
        }
        let rounds: u64 = lines
            .next()
            .and_then(|l| l.strip_prefix("rounds\t"))
            .ok_or("missing rounds record")?
            .parse()
            .map_err(|e| format!("bad rounds: {e}"))?;
        let (n1, n2) = {
            let dims = lines
                .next()
                .and_then(|l| l.strip_prefix("dims\t"))
                .ok_or("missing dims record")?;
            let (a, b) = dims.split_once('\t').ok_or("bad dims record")?;
            (
                a.parse::<usize>().map_err(|e| format!("bad dims: {e}"))?,
                b.parse::<usize>().map_err(|e| format!("bad dims: {e}"))?,
            )
        };
        let mut rel = Vec::with_capacity(n1);
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let bits = line
                .strip_prefix("row\t")
                .ok_or_else(|| format!("unrecognised record {line:?}"))?;
            if bits.len() != n2 {
                return Err(format!(
                    "row of width {} in a {n2}-column relation",
                    bits.len()
                ));
            }
            let row: Result<Vec<bool>, String> = bits
                .chars()
                .map(|c| match c {
                    '0' => Ok(false),
                    '1' => Ok(true),
                    _ => Err(format!("bad relation bit {c:?}")),
                })
                .collect();
            rel.push(row?);
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
    pub worklist: std::collections::VecDeque<u32>,
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
        writeln!(f, "bpi-partition-checkpoint/v1")?;
        writeln!(f, "dims\t{}\t{}", self.n1, self.n2)?;
        writeln!(f, "rounds\t{}", self.rounds)?;
        writeln!(f, "splits\t{}", self.splits)?;
        writeln!(f, "blocks\t{}", join_csv(self.blocks.iter()))?;
        writeln!(f, "worklist\t{}", join_csv(self.worklist.iter()))?;
        Ok(())
    }
}

impl std::str::FromStr for PartitionCheckpoint {
    type Err = String;

    fn from_str(s: &str) -> Result<PartitionCheckpoint, String> {
        fn u32s_csv(s: &str) -> Result<Vec<u32>, String> {
            s.split(',')
                .filter(|x| !x.is_empty())
                .map(|x| x.parse::<u32>().map_err(|e| format!("bad id {x:?}: {e}")))
                .collect()
        }
        let mut lines = s.lines();
        if lines.next() != Some("bpi-partition-checkpoint/v1") {
            return Err("not a bpi-partition-checkpoint/v1 document".into());
        }
        let (n1, n2) = {
            let dims = lines
                .next()
                .and_then(|l| l.strip_prefix("dims\t"))
                .ok_or("missing dims record")?;
            let (a, b) = dims.split_once('\t').ok_or("bad dims record")?;
            (
                a.parse::<usize>().map_err(|e| format!("bad dims: {e}"))?,
                b.parse::<usize>().map_err(|e| format!("bad dims: {e}"))?,
            )
        };
        let rounds: u64 = lines
            .next()
            .and_then(|l| l.strip_prefix("rounds\t"))
            .ok_or("missing rounds record")?
            .parse()
            .map_err(|e| format!("bad rounds: {e}"))?;
        let splits: u64 = lines
            .next()
            .and_then(|l| l.strip_prefix("splits\t"))
            .ok_or("missing splits record")?
            .parse()
            .map_err(|e| format!("bad splits: {e}"))?;
        let blocks = u32s_csv(
            lines
                .next()
                .and_then(|l| l.strip_prefix("blocks\t"))
                .ok_or("missing blocks record")?,
        )?;
        if blocks.len() != n1 + n2 {
            return Err(format!(
                "{} block entries for {n1}+{n2} union states",
                blocks.len()
            ));
        }
        // A partition of n states has at most n blocks. An unchecked id
        // would make the refiner's bucket table allocate `max_id + 1`
        // entries on restore — a corrupted byte must be a typed error,
        // not a multi-gigabyte allocation.
        if let Some(&bad) = blocks.iter().find(|&&b| b as usize >= n1 + n2) {
            return Err(format!(
                "block id {bad} out of range for {n1}+{n2} union states"
            ));
        }
        let worklist: std::collections::VecDeque<u32> = u32s_csv(
            lines
                .next()
                .and_then(|l| l.strip_prefix("worklist\t"))
                .ok_or("missing worklist record")?,
        )?
        .into();
        if let Some(&bad) = worklist.iter().find(|&&u| u as usize >= n1 + n2) {
            return Err(format!("worklist state {bad} out of range"));
        }
        if let Some(extra) = lines.find(|l| !l.is_empty()) {
            return Err(format!("unrecognised record {extra:?}"));
        }
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
    /// Rounds completed when the snapshot was taken.
    pub fn rounds(&self) -> u64 {
        match self {
            RefineSnapshot::Pairwise(c) => c.rounds,
            RefineSnapshot::Partition(c) => c.rounds,
        }
    }

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
        if s.lines().next() == Some("bpi-partition-checkpoint/v1") {
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

    /// Refinement rounds completed (0 before the refine phase).
    pub fn rounds(&self) -> u64 {
        match self {
            Checkpoint::Refine { refine, .. } => refine.rounds(),
            _ => 0,
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
/// bpi-graph-checkpoint/v1
/// …
/// #section refine                            (refine only)
/// bpi-partition-checkpoint/v1                 (or bpi-refine-checkpoint/v1)
/// …
/// ```
impl std::fmt::Display for Checkpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "bpi-equiv-checkpoint/v1")?;
        writeln!(f, "phase\t{}", self.phase())?;
        match self {
            Checkpoint::BuildLeft { left, right_seed } => {
                writeln!(f, "right_seed\t{right_seed}")?;
                writeln!(f, "#section left")?;
                write!(f, "{left}")?;
            }
            Checkpoint::BuildRight { left, right } => {
                writeln!(f, "#section left")?;
                write!(f, "{left}")?;
                writeln!(f, "#section right")?;
                write!(f, "{right}")?;
            }
            Checkpoint::Refine {
                left,
                right,
                refine,
            } => {
                writeln!(f, "#section left")?;
                write!(f, "{left}")?;
                writeln!(f, "#section right")?;
                write!(f, "{right}")?;
                writeln!(f, "#section refine")?;
                write!(f, "{refine}")?;
            }
        }
        Ok(())
    }
}

impl std::str::FromStr for Checkpoint {
    type Err = String;

    fn from_str(s: &str) -> Result<Checkpoint, String> {
        let mut lines = s.lines();
        if lines.next() != Some("bpi-equiv-checkpoint/v1") {
            return Err("not a bpi-equiv-checkpoint/v1 document".into());
        }
        let phase = lines
            .next()
            .and_then(|l| l.strip_prefix("phase\t"))
            .ok_or("missing phase record")?
            .to_string();
        let mut right_seed: Option<P> = None;
        let mut sections: Vec<(String, String)> = Vec::new();
        for line in lines {
            if let Some(name) = line.strip_prefix("#section ") {
                sections.push((name.to_string(), String::new()));
            } else if let Some((_, body)) = sections.last_mut() {
                body.push_str(line);
                body.push('\n');
            } else if let Some(p) = line.strip_prefix("right_seed\t") {
                right_seed = Some(
                    bpi_core::parser::parse_process(p)
                        .map_err(|e| format!("bad right_seed {p:?}: {e}"))?,
                );
            } else if !line.is_empty() {
                return Err(format!("unrecognised record {line:?}"));
            }
        }
        let section = |name: &str| -> Result<&str, String> {
            sections
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, b)| b.as_str())
                .ok_or_else(|| format!("missing #section {name}"))
        };
        // Cross-section validation: each phase's invariants are what the
        // resume path *assumes* (completed prefixes really completed,
        // relation dimensions matching the graphs), so a truncated or
        // spliced document fails here with a typed error instead of
        // tripping an assert (or panic) deep inside `resume_from`.
        match phase.as_str() {
            "build_left" => Ok(Checkpoint::BuildLeft {
                left: section("left")?.parse()?,
                right_seed: right_seed.ok_or("build_left checkpoint missing right_seed")?,
            }),
            "build_right" => {
                let left: GraphCheckpoint = section("left")?.parse()?;
                if !left.complete() {
                    return Err("build_right checkpoint with incomplete left graph".into());
                }
                Ok(Checkpoint::BuildRight {
                    left,
                    right: section("right")?.parse()?,
                })
            }
            "refine" => {
                let left: GraphCheckpoint = section("left")?.parse()?;
                let right: GraphCheckpoint = section("right")?.parse()?;
                if !left.complete() || !right.complete() {
                    return Err("refine checkpoint with incomplete graph section".into());
                }
                let refine: RefineSnapshot = section("refine")?.parse()?;
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

macro_rules! text_serde {
    ($ty:ident, $visitor:ident, $expecting:literal) => {
        impl serde::ser::Serialize for $ty {
            fn serialize<S: serde::ser::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                s.collect_str(self)
            }
        }

        struct $visitor;

        impl serde::de::Visitor<'_> for $visitor {
            type Value = $ty;
            fn expecting(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str($expecting)
            }
            fn visit_str<E: serde::de::Error>(self, v: &str) -> Result<$ty, E> {
                v.parse().map_err(E::custom)
            }
        }

        impl<'de> serde::de::Deserialize<'de> for $ty {
            fn deserialize<D: serde::de::Deserializer<'de>>(d: D) -> Result<$ty, D::Error> {
                d.deserialize_str($visitor)
            }
        }
    };
}

text_serde!(
    GraphCheckpoint,
    GraphCkptVisitor,
    "a bpi-graph-checkpoint/v1 document"
);
text_serde!(
    RefineCheckpoint,
    RefineCkptVisitor,
    "a bpi-refine-checkpoint/v1 document"
);
text_serde!(
    PartitionCheckpoint,
    PartitionCkptVisitor,
    "a bpi-partition-checkpoint/v1 document"
);
text_serde!(
    Checkpoint,
    EquivCkptVisitor,
    "a bpi-equiv-checkpoint/v1 document"
);

/// Relays the latest snapshot of an inner (per-phase) slot into the
/// pipeline-level slot on scope exit — **including unwinds**, so a
/// supervisor's `catch_unwind` still finds the freshest periodic snapshot
/// after a raw panic mid-phase.
struct Relay<'a, C> {
    inner: CheckpointSlot<C>,
    outer: Option<CheckpointSlot<Checkpoint>>,
    wrap: &'a dyn Fn(C) -> Checkpoint,
}

impl<C> Drop for Relay<'_, C> {
    fn drop(&mut self) {
        if let Some(outer) = &self.outer {
            if let Some(c) = self.inner.take() {
                outer.publish((self.wrap)(c));
            }
        }
    }
}

/// Runs one resumable phase engine under a per-phase config derived from
/// `cfg` — same cadence, the *same shared* fuel cell (fuel counts
/// pipeline units, not per-phase units), a fresh slot when `cfg` has one
/// — relaying its periodic snapshots into the pipeline slot and wrapping
/// an interruption's snapshot into an umbrella [`Checkpoint`].
fn relayed<C, T>(
    cfg: &CheckpointCfg<Checkpoint>,
    wrap: &dyn Fn(C) -> Checkpoint,
    run: impl FnOnce(&CheckpointCfg<C>) -> Result<T, Interrupted<C>>,
) -> Result<T, Interrupted<Checkpoint>> {
    let slot: CheckpointSlot<C> = CheckpointSlot::new();
    let inner = CheckpointCfg {
        every: cfg.every,
        fuel: cfg.fuel.clone(),
        slot: cfg.slot.as_ref().map(|_| slot.clone()),
    };
    let relay = Relay {
        inner: slot,
        outer: cfg.slot.clone(),
        wrap,
    };
    run(&inner).map_err(|i| {
        // Drain the relay before publishing so the freshest (error)
        // snapshot wins in the pipeline slot.
        drop(relay);
        let i = i.map(wrap);
        if let Some(slot) = &cfg.slot {
            slot.publish(i.checkpoint.clone());
        }
        i
    })
}

/// Anytime answer of [`Checker::check_supervised`]: like
/// [`crate::bisim::Verdict`], but an inconclusive outcome carries the
/// partial work — the final checkpoint and how far it got — instead of
/// discarding it.
#[derive(Debug)]
pub enum SupervisedVerdict {
    /// The relation holds at the roots.
    Holds,
    /// The relation fails; the string names the variant and roots.
    Fails(String),
    /// Attempts ran out (or an unretryable stop arrived) before the
    /// fixpoint was reached.
    Inconclusive {
        /// The final stop reason (panics surface as
        /// [`EngineError::WorkerPanicked`], never an abort).
        error: EngineError,
        /// The last snapshot from any attempt — resumable later with
        /// [`Checker::resume_from`].
        checkpoint: Option<Box<Checkpoint>>,
        /// States committed across both graphs at that snapshot.
        states_explored: usize,
        /// Refinement rounds completed at that snapshot.
        rounds: u64,
    },
}

impl SupervisedVerdict {
    /// `true` only for [`SupervisedVerdict::Holds`].
    pub fn holds(&self) -> bool {
        matches!(self, SupervisedVerdict::Holds)
    }

    pub fn is_inconclusive(&self) -> bool {
        matches!(self, SupervisedVerdict::Inconclusive { .. })
    }
}

/// Snapshot cadence of [`Checker::check_supervised`]: every 256 pipeline
/// units (states committed in the build phases, rounds in refinement).
const SUPERVISED_EVERY: usize = 256;

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

impl<'d> Checker<'d> {
    /// [`Checker::try_fixpoint`] in checkpointed form: builds both graphs
    /// and refines, emitting periodic snapshots per `cfg` and returning
    /// any interruption as [`Interrupted`] with an umbrella
    /// [`Checkpoint`] in place of the bare error.
    ///
    /// Differences from the plain path, by design:
    /// * the global graph memo is **bypassed** (a memo hit would skip the
    ///   states a checkpoint must contain), and
    /// * graph builds run sequentially (the canonical FIFO order *is* the
    ///   checkpoint format), and `BPI_COMPOSE` is not consulted.
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
    /// typically under a grown budget after a
    /// [`EngineError::StateBudgetExceeded`], or in a fresh process after
    /// deserialising the checkpoint. The caller must supply the same
    /// variant, defs and options as the original run.
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
                let g1 = self.graph_phase(left, cfg, &|gck| Checkpoint::BuildLeft {
                    left: gck,
                    right_seed: right_seed.clone(),
                })?;
                let left_done = GraphCheckpoint::of_graph(&g1);
                let right = GraphCheckpoint::seed(&right_seed, &g1.pool);
                if let Some(slot) = &cfg.slot {
                    slot.publish(Checkpoint::BuildRight {
                        left: left_done.clone(),
                        right: right.clone(),
                    });
                }
                let g2 = self.graph_phase(right, cfg, &|gck| Checkpoint::BuildRight {
                    left: left_done.clone(),
                    right: gck,
                })?;
                let right_done = GraphCheckpoint::of_graph(&g2);
                (Arc::new(g1), Arc::new(g2), left_done, right_done, None)
            }
            Checkpoint::BuildRight { left, right } => {
                let g1 = Arc::new(Graph::from_complete_checkpoint(left.clone()));
                let g2 = self.graph_phase(right, cfg, &|gck| Checkpoint::BuildRight {
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
                Engine::Worklist => relayed(cfg, &pairwise, |inner| {
                    refine_budgeted(v, g1, g2, budget, inner)
                }),
                Engine::Partition => relayed(cfg, &partition, |inner| {
                    refine_partition_budgeted(v, g1, g2, budget, inner)
                })
                .map(|part| partition_relation(&part)),
            },
            Some(RefineSnapshot::Pairwise(ck)) => relayed(cfg, &pairwise, |inner| {
                refine_resume(v, g1, g2, budget, inner, ck)
            }),
            Some(RefineSnapshot::Partition(ck)) => relayed(cfg, &partition, |inner| {
                refine_partition_resume(v, g1, g2, budget, inner, ck)
            })
            .map(|part| partition_relation(&part)),
        }
    }

    /// Runs (or finishes) one graph build phase, translating its
    /// snapshots and errors into umbrella checkpoints.
    fn graph_phase(
        &self,
        ck: GraphCheckpoint,
        cfg: &CheckpointCfg<Checkpoint>,
        wrap: &dyn Fn(GraphCheckpoint) -> Checkpoint,
    ) -> Result<Graph, Interrupted<Checkpoint>> {
        if ck.complete() {
            return Ok(Graph::from_complete_checkpoint(ck));
        }
        relayed(cfg, wrap, |inner| {
            Graph::continue_build(ck, self.defs, self.opts, &self.budget, inner)
        })
    }

    /// Runs at most `fuel` pipeline units (states committed in the
    /// build phases, partition or pairwise refinement rounds — a product
    /// at or below the naive cutover refines in one unbudgeted sweep) of
    /// a check, starting fresh (`from = None`) or from a parked
    /// snapshot. Returns
    /// [`SliceOutcome::Parked`] when the fuel runs out,
    /// [`SliceOutcome::Done`] when the fixpoint lands, and passes
    /// through any *other* interruption (deadline, budget, external
    /// cancellation) as the typed [`Interrupted`] — fuel exhaustion is
    /// scheduling, everything else is the caller's policy.
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

    /// [`Checker::check`] under supervision: worker panics are isolated
    /// (`catch_unwind`), retryable exhaustion grows the budget and
    /// **resumes from the last checkpoint** instead of re-exploring, and
    /// when `attempts` run out the verdict is an *anytime* partial answer
    /// carrying the final checkpoint.
    pub fn check_supervised(&self, v: Variant, p: &P, q: &P, attempts: usize) -> SupervisedVerdict {
        let _span = bpi_obs::span("equiv.check", "check_supervised");
        let r = bpi_semantics::supervise(self.budget.clone(), attempts, |budget, slot, resume| {
            let c = Checker {
                defs: self.defs,
                opts: self.opts,
                budget: budget.clone(),
                threads: self.threads,
            };
            let cfg = CheckpointCfg::periodic(SUPERVISED_EVERY, slot.clone());
            match resume {
                Some(ck) => c.resume_from(v, ck, &cfg),
                None => c.run_with_checkpoint(v, p, q, &cfg),
            }
        });
        let verdict = match r {
            Ok((g1, g2, rel)) => {
                if rel.holds(0, 0) {
                    SupervisedVerdict::Holds
                } else {
                    // The fixpoint is already in hand — extract the
                    // distinguishing experiment without re-running.
                    let why = crate::distinguish::explain_fixpoint(v, &g1, &g2, &rel.rel)
                        .map(|d| format!("{v:?} fails at the root pair: {d}"))
                        .unwrap_or_else(|| format!("{v:?} fails at the root pair"));
                    SupervisedVerdict::Fails(why)
                }
            }
            Err(SuperviseError {
                error, checkpoint, ..
            }) => SupervisedVerdict::Inconclusive {
                states_explored: checkpoint.as_ref().map_or(0, |c| c.states_explored()),
                rounds: checkpoint.as_ref().map_or(0, |c| c.rounds()),
                checkpoint: checkpoint.map(Box::new),
                error,
            },
        };
        bpi_obs::emit("equiv.check", "supervised_verdict", || {
            vec![
                ("variant", Value::from(format!("{v:?}"))),
                (
                    "verdict",
                    Value::from(match &verdict {
                        SupervisedVerdict::Holds => "holds".to_string(),
                        SupervisedVerdict::Fails(_) => "fails".to_string(),
                        SupervisedVerdict::Inconclusive { error, .. } => {
                            format!("inconclusive: {error}")
                        }
                    }),
                ),
            ]
        });
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bisim::Verdict;
    use crate::graph::Opts;
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
        use serde::de::value::{Error as ValueError, StrDeserializer};
        use serde::de::{Deserialize, IntoDeserializer};
        let ck = sample_graph_ckpt();
        let text = ck.to_text();
        let back = GraphCheckpoint::from_text(&text).unwrap();
        assert_eq!(ck, back);
        assert!(back.complete());
        // Serde serialises through `collect_str(self)`, i.e. exactly the
        // text format; deserialise the text back through serde too.
        let d: StrDeserializer<'_, ValueError> = text.as_str().into_deserializer();
        assert_eq!(GraphCheckpoint::deserialize(d).unwrap(), ck);
    }

    #[test]
    fn refine_checkpoint_text_roundtrip() {
        let ck = RefineCheckpoint {
            rel: vec![vec![true, false, true], vec![false, false, true]],
            rounds: 7,
        };
        let back = RefineCheckpoint::from_text(&ck.to_text()).unwrap();
        assert_eq!(ck, back);
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
    fn umbrella_checkpoint_text_roundtrip_all_phases() {
        let left = sample_graph_ckpt();
        let [a] = names(["a"]);
        let cks = [
            Checkpoint::BuildLeft {
                left: left.clone(),
                right_seed: tau(out_(a, [])),
            },
            Checkpoint::BuildRight {
                left: left.clone(),
                right: GraphCheckpoint::seed(&nil(), &left.pool),
            },
            Checkpoint::Refine {
                left: left.clone(),
                right: left.clone(),
                refine: RefineSnapshot::Pairwise(RefineCheckpoint {
                    rel: vec![vec![true; left.states.len()]; left.states.len()],
                    rounds: 2,
                }),
            },
            Checkpoint::Refine {
                left: left.clone(),
                right: left.clone(),
                refine: RefineSnapshot::Partition(PartitionCheckpoint {
                    n1: left.states.len(),
                    n2: left.states.len(),
                    blocks: vec![0; 2 * left.states.len()],
                    worklist: std::collections::VecDeque::from([1]),
                    rounds: 3,
                    splits: 0,
                }),
            },
        ];
        for ck in cks {
            let back = Checkpoint::from_text(&ck.to_text()).unwrap();
            assert_eq!(ck, back, "phase {} did not roundtrip", ck.phase());
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "bpi-graph-checkpoint/v2\npool\t\npending\t",
            "bpi-graph-checkpoint/v1\npool\t\npending\t0", // pending out of range
            "bpi-refine-checkpoint/v1\nrounds\t1\ndims\t1\t2\nrow\t1",
            "bpi-equiv-checkpoint/v1\nphase\tnonsense",
            "bpi-equiv-checkpoint/v1\nphase\tbuild_left\n#section left\nbpi-graph-checkpoint/v1\npool\t\npending\t",
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
        let stateless = "bpi-graph-checkpoint/v1\npool\t\npending\t\n";
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

    #[test]
    fn supervised_check_escalates_to_a_verdict() {
        let d = Defs::new();
        let [a, b] = names(["a", "b"]);
        let p = out(a, [b], tau(out_(b, [])));
        let q = out(a, [b], out_(b, []));
        // Budget far too small; the supervisor doubles it per attempt and
        // resumes from the checkpoint until the answer lands.
        let c = Checker::new(&d).with_budget(Budget::states(1));
        let verdict = c.check_supervised(Variant::WeakLabelled, &p, &q, 8);
        assert!(verdict.holds(), "got {verdict:?}");
        // With one attempt the same budget is an anytime partial verdict
        // carrying a checkpoint, never a panic.
        let v1 = c.check_supervised(Variant::WeakLabelled, &p, &q, 1);
        match v1 {
            SupervisedVerdict::Inconclusive {
                error, checkpoint, ..
            } => {
                assert_eq!(error, EngineError::StateBudgetExceeded { limit: 1 });
                assert!(checkpoint.is_some(), "exhaustion must keep the checkpoint");
            }
            other => panic!("expected Inconclusive, got {other:?}"),
        }
    }
}
