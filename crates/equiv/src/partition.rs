//! Coarsest-partition refinement over the frozen CSR graphs: the
//! block/splitter engine that replaces O(n₁·n₂) pair tables with a
//! partition of the *disjoint union* of the two graphs.
//!
//! ## Algorithm
//!
//! Kanellakis–Smolka signature refinement with the Paige–Tarjan
//! "process the smaller half" discipline. Every union state carries a
//! *signature* — a canonical encoding of what the transfer property of
//! the chosen [`Variant`] can observe about it through the current
//! partition (barbs, plus per-label block sets of its move targets; see
//! `Refiner::signature`). Start from the single-block partition and
//! repeatedly split blocks whose members' signatures diverge, until
//! every block is signature-homogeneous. Two invariants carry the
//! correctness argument (DESIGN.md §12):
//!
//! * **Never over-splits.** If two states are bisimilar, their
//!   signatures agree with respect to *any* partition coarser than
//!   bisimilarity (block sets project along partition refinement), so
//!   the refinement never separates a bisimilar pair and the split
//!   order is irrelevant to the result.
//! * **Stability at quiescence.** When no signature diverges inside any
//!   block, the induced equivalence is a bisimulation for the variant —
//!   for the weak variants this is the classic left-saturation argument
//!   (the strong-left/weak-right fixpoint equals the fully saturated
//!   one), with the saturated match sets (`tau_closure`, `weak_label`,
//!   `weak_discard`) taken directly from the [`Graph`] caches the
//!   pairwise `direction` predicate uses.
//!
//! Together: the final partition *is* bisimilarity on the union, and
//! [`partition_to_relation`] restricts it to cross pairs — the same
//! relation every pairwise engine computes.
//!
//! The smaller-half discipline lives in the split step: the largest
//! signature class keeps the block id, so only the members of the
//! smaller classes change block — and only *their* dependents (inverse
//! edges for the strong variants, inverse reachability for the weak
//! ones, shared with the pairwise engine via the per-graph dependency
//! cache) are re-examined. Work is proportional to what actually moved,
//! never to the size of the block that stayed.
//!
//! ## The mixed-arity guard
//!
//! Labelled bisimilarity matches inputs by *input-or-discard*, and with
//! mixed input arities on one channel the pairwise relation is not
//! transitive (`a(x).0 ~ 0` and `0 ~ a(x,y).0` but `a(x).0 ≁
//! a(x,y).0`), so **no** partition agrees with it pointwise.
//! [`partition_safe`] detects exactly this — some channel carrying
//! input labels of two different arities across the two graphs, or
//! differing pools — and the adaptive dispatch falls back to the
//! pairwise worklist there. On arity-uniform products (every generator
//! corpus in `worklist_oracle.rs`, and any monadic system) the discard
//! self-loop folds into the per-label signature and the partition is
//! exact for all six variants.
//!
//! A *silent blocker* needs no guard. `a(x).0 | a(x,y).0` listens on
//! `a` at arities 1 and 2, and each side refuses the other's, so it
//! neither receives on `a` nor discards it and carries no input label
//! on `a`. Against a state that discards `a` the pairwise clause fails
//! (the discard self-loop has nothing to answer it), and the labelled
//! signatures observe that loop under a pseudo-label of `a` whenever
//! no input label names `a` and the union holds both kinds of state.
//!
//! ## Resumability
//!
//! [`refine_partition_budgeted`] polls the [`Budget`] and the
//! checkpoint fuel at every round boundary and returns
//! [`Interrupted`] carrying a [`PartitionCheckpoint`] — the block
//! assignment and the dirty-state worklist, *not* a pair relation, so
//! the snapshot stays linear in the state count. [`refine_partition_resume`]
//! rebuilds the signature buckets from the block array (signatures of
//! clean states are pure functions of the partition) and continues
//! bit-for-bit: same final partition, same round and split counts. The
//! checkpointed [`crate::Checker`] pipeline refines partition-safe
//! products above the naive cutover with this pair — served checks park
//! and resume here.

use crate::bisim::{PairRelation, Variant};
use crate::checkpoint::PartitionCheckpoint;
use crate::graph::Graph;
use bpi_core::action::Action;
use bpi_core::name::{Name, NameSet};
use bpi_core::syntax::P;
use bpi_obs::{counter, Counter, Det, Value};
use bpi_semantics::budget::Budget;
use bpi_semantics::checkpoint::{record_resume, record_snapshot, CheckpointCfg, Interrupted};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, LazyLock};

// All three are result-derived and deterministic: the engine is
// sequential with a fixed processing order, and an interrupted-and-
// resumed run replays the same rounds and splits as an uninterrupted one
// (counters are recorded once, on completion, from totals carried
// through the checkpoint).
static PARTITION_BLOCKS: LazyLock<&Counter> =
    LazyLock::new(|| counter("equiv.partition.blocks", Det::Deterministic));
static PARTITION_SPLITS: LazyLock<&Counter> =
    LazyLock::new(|| counter("equiv.partition.splits", Det::Deterministic));
static PARTITION_ROUNDS: LazyLock<&Counter> =
    LazyLock::new(|| counter("equiv.partition.rounds", Det::Deterministic));

fn record_partition(part: &Partition, rounds: u64, splits: u64) {
    if !bpi_obs::metrics_enabled() && !bpi_obs::tracing_enabled() {
        return;
    }
    if bpi_obs::metrics_enabled() {
        PARTITION_BLOCKS.add(part.num_blocks as u64);
        PARTITION_SPLITS.add(splits);
        PARTITION_ROUNDS.add(rounds);
    }
    bpi_obs::emit("equiv.partition", "done", || {
        vec![
            ("states", Value::from(part.blocks.len())),
            ("blocks", Value::from(part.num_blocks)),
            ("splits", Value::from(splits as usize)),
            ("rounds", Value::from(rounds as usize)),
        ]
    });
}

/// A stable partition of the disjoint union of two graphs (`g2` states
/// are offset by `n1`; `n2 == 0` for a self-partition). Block ids are
/// canonical: numbered by first occurrence scanning union states in
/// order, so equal partitions have equal `blocks` arrays regardless of
/// the refinement schedule that produced them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    pub n1: usize,
    pub n2: usize,
    pub blocks: Vec<u32>,
    pub num_blocks: usize,
}

impl Partition {
    /// Whether union states `u` and `w` landed in the same block.
    pub fn same_block(&self, u: usize, w: usize) -> bool {
        self.blocks[u] == self.blocks[w]
    }
}

/// Restricts a union partition to the cross pairs: `(i, j)` related iff
/// `g1`'s state `i` and `g2`'s state `j` share a block. On
/// partition-safe products this is exactly the greatest fixpoint the
/// pairwise engines compute (`partition_oracle.rs` proves it pointwise).
pub fn partition_to_relation(part: &Partition) -> PairRelation {
    let rel = (0..part.n1)
        .map(|i| {
            (0..part.n2)
                .map(|j| part.blocks[i] == part.blocks[part.n1 + j])
                .collect()
        })
        .collect();
    PairRelation { rel }
}

/// Whether the partition refiner agrees with the pairwise engines on
/// this product: the pools must coincide and every channel must carry
/// input labels of at most one arity across *both* graphs. With mixed
/// arities the input-or-discard clause makes the pairwise relation
/// non-transitive, so no partition can reproduce it (module docs); the
/// dispatch falls back to the worklist instead.
pub fn partition_safe(g1: &Graph, g2: &Graph) -> bool {
    if g1.pool != g2.pool {
        return false;
    }
    let mut arity: BTreeMap<Name, usize> = BTreeMap::new();
    for g in [g1, g2] {
        for act in g.csr().labels() {
            if !act.is_input() {
                continue;
            }
            let a = act.subject().expect("input labels have a subject");
            let k = act.objects().len();
            match arity.get(&a) {
                Some(&k0) if k0 != k => return false,
                Some(_) => {}
                None => {
                    arity.insert(a, k);
                }
            }
        }
    }
    true
}

/// A state's signature: sorted `(component key, sorted data)` pairs.
/// Key 0 encodes the variant's barb set (joint channel ids), key 1 the
/// unlabelled move component (τ successors, step successors, or their
/// closures), key `2 + l` the block set reachable under joint label
/// `l`. Empty components are omitted — uniformly, so omission itself
/// never distinguishes states spuriously.
type Sig = Vec<(u32, Vec<u32>)>;

const KEY_BARBS: u32 = 0;
const KEY_MOVES: u32 = 1;
const KEY_LABEL: u32 = 2;

/// The disjoint-union view: joint label and channel interning across
/// one or two graphs, built eagerly and deterministically (sorted
/// tables) so signatures are comparable across the union and across
/// interrupted/resumed runs.
struct UnionView<'a> {
    g1: &'a Graph,
    g2: Option<&'a Graph>,
    n1: usize,
    n: usize,
    /// Sorted joint label table.
    labels: Vec<Action>,
    /// Local label id → joint label id, per part.
    lmap1: Vec<u32>,
    lmap2: Vec<u32>,
    /// Joint channel interning for barb components.
    chan_ids: BTreeMap<Name, u32>,
    /// Joint *input* label ids grouped by subject channel — the labels a
    /// discard self-loop answers.
    inputs_by_chan: BTreeMap<Name, Vec<u32>>,
    /// Signature keys of the pseudo-labels: a channel no input label
    /// names, which some union state discards and another does not (a
    /// silent blocker, listening at arities a sibling refuses). The
    /// discard self-loop is observed under this key instead.
    pseudo: BTreeMap<Name, u32>,
}

impl<'a> UnionView<'a> {
    fn new(g1: &'a Graph, g2: Option<&'a Graph>) -> UnionView<'a> {
        let n1 = g1.len();
        let n = n1 + g2.map_or(0, |g| g.len());
        let parts: Vec<&Graph> = std::iter::once(g1).chain(g2).collect();
        let mut label_set: BTreeSet<Action> = BTreeSet::new();
        let mut names: BTreeSet<Name> = BTreeSet::new();
        for g in &parts {
            label_set.extend(g.csr().labels().iter().cloned());
            for act in g.csr().labels() {
                if let Some(a) = act.subject() {
                    names.insert(a);
                }
            }
            for ds in &g.discarding {
                names.extend(ds.iter());
            }
            names.extend(g.pool.iter().copied());
        }
        let labels: Vec<Action> = label_set.into_iter().collect();
        let index: BTreeMap<&Action, u32> = labels
            .iter()
            .enumerate()
            .map(|(i, a)| (a, i as u32))
            .collect();
        let lmap = |g: &Graph| -> Vec<u32> { g.csr().labels().iter().map(|a| index[a]).collect() };
        let lmap1 = lmap(g1);
        let lmap2 = g2.map(lmap).unwrap_or_default();
        let chan_ids: BTreeMap<Name, u32> = names
            .into_iter()
            .enumerate()
            .map(|(i, a)| (a, i as u32))
            .collect();
        let mut inputs_by_chan: BTreeMap<Name, Vec<u32>> = BTreeMap::new();
        for (jl, act) in labels.iter().enumerate() {
            if act.is_input() {
                let a = act.subject().expect("input labels have a subject");
                inputs_by_chan.entry(a).or_default().push(jl as u32);
            }
        }
        // A channel every state discards needs no pseudo-label: the
        // component would be `{own block}` (strong) or the τ-closure's
        // blocks (weak), which never tell two states of a block apart.
        let states = || parts.iter().flat_map(|g| &g.discarding);
        let pseudo = chan_ids
            .iter()
            .filter(|(a, _)| {
                !inputs_by_chan.contains_key(a)
                    && states().any(|ds| ds.contains(**a))
                    && !states().all(|ds| ds.contains(**a))
            })
            .map(|(&a, &c)| (a, KEY_LABEL + labels.len() as u32 + c))
            .collect();
        UnionView {
            g1,
            g2,
            n1,
            n,
            labels,
            lmap1,
            lmap2,
            chan_ids,
            inputs_by_chan,
            pseudo,
        }
    }

    /// Resolves a union state to its graph, local index and offset.
    fn part(&self, u: usize) -> (&'a Graph, usize, usize) {
        if u < self.n1 {
            (self.g1, u, 0)
        } else {
            (
                self.g2.expect("offset state implies a second part"),
                u - self.n1,
                self.n1,
            )
        }
    }
}

fn push_names(
    sig: &mut Sig,
    key: u32,
    names: impl Iterator<Item = Name>,
    ids: &BTreeMap<Name, u32>,
) {
    let data: Vec<u32> = names.map(|a| ids[&a]).collect();
    if !data.is_empty() {
        sig.push((key, data));
    }
}

fn push_blocks(sig: &mut Sig, key: u32, it: impl Iterator<Item = u32>) {
    let set: BTreeSet<u32> = it.collect();
    if !set.is_empty() {
        sig.push((key, set.into_iter().collect()));
    }
}

/// The mutable refinement state. Each block keeps its members bucketed
/// by stored signature; a round recomputes signatures of the dirty
/// states only (dependents of last round's moved states), rebuckets the
/// changed ones, then splits every touched block — the largest bucket
/// keeps the block id (ties: first in signature order), every other
/// bucket becomes a fresh block and dirties its members' dependents.
struct Refiner<'a> {
    view: UnionView<'a>,
    v: Variant,
    blk: Vec<u32>,
    /// Per block: members (sorted) grouped by their stored signature.
    blocks: Vec<BTreeMap<Sig, BTreeSet<u32>>>,
    /// Stored signature per state; `None` until first bucketed.
    sigs: Vec<Option<Sig>>,
    dirty: VecDeque<u32>,
    in_dirty: Vec<bool>,
    deps1: Arc<Vec<Vec<usize>>>,
    deps2: Option<Arc<Vec<Vec<usize>>>>,
    rounds: u64,
    splits: u64,
}

impl<'a> Refiner<'a> {
    fn new(v: Variant, g1: &'a Graph, g2: Option<&'a Graph>) -> Refiner<'a> {
        let view = UnionView::new(g1, g2);
        let n = view.n;
        let weak = v.is_weak();
        Refiner {
            deps1: g1.dependents(weak),
            deps2: g2.map(|g| g.dependents(weak)),
            view,
            v,
            blk: vec![0; n],
            blocks: vec![BTreeMap::new()],
            sigs: vec![None; n],
            dirty: (0..n as u32).collect(),
            in_dirty: vec![true; n],
            rounds: 0,
            splits: 0,
        }
    }

    /// Restores a round-boundary snapshot: the block array and dirty
    /// queue come from the checkpoint; buckets are rebuilt by
    /// recomputing signatures of the *clean* states (pure functions of
    /// the partition, so identical to the values the interrupted run
    /// stored). Dirty states stay unbucketed and re-enter through the
    /// normal round path, exactly as they would have.
    fn restore(
        v: Variant,
        g1: &'a Graph,
        g2: Option<&'a Graph>,
        ck: PartitionCheckpoint,
    ) -> Refiner<'a> {
        let mut r = Refiner::new(v, g1, g2);
        assert_eq!(ck.blocks.len(), r.view.n, "checkpoint/graph state mismatch");
        assert_eq!(ck.n1, r.view.n1, "checkpoint/graph split mismatch");
        r.blk = ck.blocks;
        let num_blocks = r.blk.iter().map(|&b| b as usize + 1).max().unwrap_or(1);
        r.blocks = vec![BTreeMap::new(); num_blocks];
        r.in_dirty = vec![false; r.view.n];
        for &u in &ck.worklist {
            r.in_dirty[u as usize] = true;
        }
        r.dirty = ck.worklist;
        for u in 0..r.view.n {
            if r.in_dirty[u] {
                continue;
            }
            let s = r.signature(u as u32);
            r.blocks[r.blk[u] as usize]
                .entry(s.clone())
                .or_default()
                .insert(u as u32);
            r.sigs[u] = Some(s);
        }
        r.rounds = ck.rounds;
        r.splits = ck.splits;
        r
    }

    fn checkpoint(&self) -> PartitionCheckpoint {
        PartitionCheckpoint {
            n1: self.view.n1,
            n2: self.view.n - self.view.n1,
            blocks: self.blk.clone(),
            worklist: self.dirty.clone(),
            rounds: self.rounds,
            splits: self.splits,
        }
    }

    /// The variant's signature of union state `u` with respect to the
    /// current partition. Per variant this encodes exactly the
    /// observations the pairwise `direction` predicate makes, with weak
    /// match sets pre-saturated (left-saturation makes that equivalent):
    ///
    /// * `StrongBarbed` — strong barbs; τ-successor blocks.
    /// * `WeakBarbed` — weak barbs; τ-closure blocks.
    /// * `StrongStep` — strong barbs; step-successor blocks (τ or any
    ///   output).
    /// * `WeakStep` — weak step barbs; step-closure blocks.
    /// * `StrongLabelled` — τ-successor blocks; per joint label, the
    ///   blocks reachable under that label, with a discarded channel
    ///   contributing `{own block}` to every input label on it (the
    ///   discard self-loop of the input-or-discard clause), or to its
    ///   pseudo-label when no input label names it.
    /// * `WeakLabelled` — τ-closure blocks; per joint output label the
    ///   `⇒—l→⇒` blocks; per joint input label those plus the weak
    ///   discard continuations on its channel; per pseudo-label the weak
    ///   discard continuations alone.
    fn signature(&self, u: u32) -> Sig {
        let u = u as usize;
        let (g, i, off) = self.view.part(u);
        let blk = &self.blk;
        let mut sig: Sig = Vec::new();
        match self.v {
            Variant::StrongBarbed => {
                push_names(
                    &mut sig,
                    KEY_BARBS,
                    g.strong_barbs(i).iter(),
                    &self.view.chan_ids,
                );
                push_blocks(&mut sig, KEY_MOVES, g.tau_succs(i).map(|t| blk[off + t]));
            }
            Variant::WeakBarbed => {
                push_names(
                    &mut sig,
                    KEY_BARBS,
                    g.weak_barbs(i).iter(),
                    &self.view.chan_ids,
                );
                push_blocks(
                    &mut sig,
                    KEY_MOVES,
                    g.tau_closure(i).iter().map(|&t| blk[off + t]),
                );
            }
            Variant::StrongStep => {
                push_names(
                    &mut sig,
                    KEY_BARBS,
                    g.strong_barbs(i).iter(),
                    &self.view.chan_ids,
                );
                push_blocks(
                    &mut sig,
                    KEY_MOVES,
                    g.step_edges(i).map(|(_, t)| blk[off + t]),
                );
            }
            Variant::WeakStep => {
                push_names(
                    &mut sig,
                    KEY_BARBS,
                    g.weak_step_barbs(i).iter(),
                    &self.view.chan_ids,
                );
                push_blocks(
                    &mut sig,
                    KEY_MOVES,
                    g.step_closure(i).iter().map(|&t| blk[off + t]),
                );
            }
            Variant::StrongLabelled => {
                let lmap = if off == 0 {
                    &self.view.lmap1
                } else {
                    &self.view.lmap2
                };
                let mut comps: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
                for (lid, t) in g.edge_ids(i) {
                    let key = match g.label(lid) {
                        Action::Tau => KEY_MOVES,
                        _ => KEY_LABEL + lmap[lid as usize],
                    };
                    comps.entry(key).or_default().insert(blk[off + t]);
                }
                // A discarded channel answers every input label on it
                // with the discard self-loop: residual `u` itself. With
                // no input label on it, the loop is its pseudo-label's.
                for a in self.view.inputs_by_chan.keys() {
                    if g.state_discards(i, *a) {
                        for &jl in &self.view.inputs_by_chan[a] {
                            comps.entry(KEY_LABEL + jl).or_default().insert(blk[u]);
                        }
                    }
                }
                for (&a, &key) in &self.view.pseudo {
                    if g.state_discards(i, a) {
                        comps.entry(key).or_default().insert(blk[u]);
                    }
                }
                sig.extend(
                    comps
                        .into_iter()
                        .map(|(k, s)| (k, s.into_iter().collect::<Vec<u32>>())),
                );
            }
            Variant::WeakLabelled => {
                push_blocks(
                    &mut sig,
                    KEY_MOVES,
                    g.tau_closure(i).iter().map(|&t| blk[off + t]),
                );
                for (jl, act) in self.view.labels.iter().enumerate() {
                    if matches!(act, Action::Tau) {
                        continue;
                    }
                    let mut set: BTreeSet<u32> =
                        g.weak_label(i, act).iter().map(|&t| blk[off + t]).collect();
                    if act.is_input() {
                        let a = act.subject().expect("input labels have a subject");
                        set.extend(g.weak_discard(i, a).iter().map(|&t| blk[off + t]));
                    }
                    if !set.is_empty() {
                        sig.push((KEY_LABEL + jl as u32, set.into_iter().collect()));
                    }
                }
                for (&a, &key) in &self.view.pseudo {
                    push_blocks(
                        &mut sig,
                        key,
                        g.weak_discard(i, a).iter().map(|&t| blk[off + t]),
                    );
                }
            }
        }
        sig
    }

    /// One refinement round: recompute the dirty signatures, rebucket
    /// the changed states, split every touched block.
    ///
    /// A signature is a pure function of the block array and the graph
    /// caches — neither changes before [`Refiner::split`] runs — so the
    /// signatures of the whole drained queue are computed up front and
    /// then applied in drain order.
    fn round(&mut self) {
        let drained: Vec<u32> = self.dirty.drain(..).collect();
        for &u in &drained {
            self.in_dirty[u as usize] = false;
        }
        let sigs: Vec<Sig> = drained.iter().map(|&u| self.signature(u)).collect();
        let mut affected: BTreeSet<u32> = BTreeSet::new();
        for (&u, s) in drained.iter().zip(sigs) {
            if self.sigs[u as usize].as_ref() == Some(&s) {
                continue;
            }
            let b = self.blk[u as usize] as usize;
            if let Some(old) = self.sigs[u as usize].take() {
                if let Some(members) = self.blocks[b].get_mut(&old) {
                    members.remove(&u);
                    if members.is_empty() {
                        self.blocks[b].remove(&old);
                    }
                }
            }
            self.blocks[b].entry(s.clone()).or_default().insert(u);
            self.sigs[u as usize] = Some(s);
            affected.insert(b as u32);
        }
        for b in affected {
            self.split(b as usize);
        }
        self.rounds += 1;
    }

    /// Splits block `b` if its members' signatures diverged: the
    /// largest bucket keeps the id (ties broken toward the first in
    /// signature order — fully deterministic), every other bucket
    /// becomes a fresh block, and only the moved states' dependents are
    /// re-enqueued: the smaller-half discipline.
    fn split(&mut self, b: usize) {
        if self.blocks[b].len() <= 1 {
            return;
        }
        let keeper: Sig = {
            let mut best: Option<(&Sig, usize)> = None;
            for (sig, members) in &self.blocks[b] {
                if best.is_none_or(|(_, sz)| members.len() > sz) {
                    best = Some((sig, members.len()));
                }
            }
            best.expect("split of a non-empty block").0.clone()
        };
        let buckets = std::mem::take(&mut self.blocks[b]);
        let mut moved: Vec<u32> = Vec::new();
        for (sig, members) in buckets {
            if sig == keeper {
                self.blocks[b].insert(sig, members);
            } else {
                let nb = self.blocks.len() as u32;
                for &m in &members {
                    self.blk[m as usize] = nb;
                    moved.push(m);
                }
                self.blocks.push(BTreeMap::from([(sig, members)]));
                self.splits += 1;
            }
        }
        for m in moved {
            self.mark_deps(m);
        }
    }

    /// Re-enqueues every state whose signature can reference `m`'s
    /// block: `m`'s dependents in its own graph (predecessors for the
    /// strong variants, inverse reachability for the weak ones, plus
    /// the diagonal — `m` itself, whose discard components name its own
    /// block).
    fn mark_deps(&mut self, m: u32) {
        let m = m as usize;
        let (deps, off, local) = if m < self.view.n1 {
            (&self.deps1, 0, m)
        } else {
            (
                self.deps2
                    .as_ref()
                    .expect("offset state implies a second part"),
                self.view.n1,
                m - self.view.n1,
            )
        };
        for &d in &deps[local] {
            let du = d + off;
            if !self.in_dirty[du] {
                self.in_dirty[du] = true;
                self.dirty.push_back(du as u32);
            }
        }
    }

    /// Runs rounds to quiescence under the budget/fuel polls.
    fn run(
        &mut self,
        budget: &Budget,
        cfg: &CheckpointCfg<PartitionCheckpoint>,
    ) -> Result<(), Interrupted<PartitionCheckpoint>> {
        while !self.dirty.is_empty() {
            if let Err(error) = cfg.poll(budget, 0) {
                record_snapshot("interrupt");
                return Err(Interrupted {
                    error,
                    checkpoint: self.checkpoint(),
                });
            }
            self.round();
        }
        Ok(())
    }

    /// Canonicalizes block numbering by first occurrence and records
    /// the deterministic counters.
    fn finish(&self) -> Partition {
        let n = self.view.n;
        let mut renumber: Vec<u32> = vec![u32::MAX; self.blocks.len()];
        let mut blocks = Vec::with_capacity(n);
        let mut next = 0u32;
        for u in 0..n {
            let b = self.blk[u] as usize;
            if renumber[b] == u32::MAX {
                renumber[b] = next;
                next += 1;
            }
            blocks.push(renumber[b]);
        }
        let part = Partition {
            n1: self.view.n1,
            n2: self.view.n - self.view.n1,
            blocks,
            num_blocks: next as usize,
        };
        record_partition(&part, self.rounds, self.splits);
        part
    }
}

/// The coarsest `v`-stable partition of the disjoint union of `g1` and
/// `g2`. Callers wanting the pairwise relation go through
/// [`partition_to_relation`] (or just [`crate::bisim::refine_auto`],
/// which dispatches here on partition-safe products).
pub fn refine_partition(v: Variant, g1: &Graph, g2: &Graph) -> Partition {
    let _span = bpi_obs::span("equiv.partition", "refine");
    let r = Refiner::new(v, g1, Some(g2));
    run_to_partition(r, &Budget::unlimited(), &CheckpointCfg::default())
        .expect("inert config and unlimited budget cannot interrupt")
}

/// The coarsest `v`-stable self-partition of one graph — the input to
/// [`quotient`].
pub fn refine_partition_self(v: Variant, g: &Graph) -> Partition {
    let mut r = Refiner::new(v, g, None);
    r.run(&Budget::unlimited(), &CheckpointCfg::default())
        .expect("inert config and unlimited budget cannot interrupt");
    r.finish()
}

/// [`refine_partition`] under a [`Budget`] and a [`CheckpointCfg`]:
/// identical result, but any interruption — deadline, cancellation,
/// fuel exhaustion — returns [`Interrupted`] carrying a
/// [`PartitionCheckpoint`] taken at a round boundary.
pub fn refine_partition_budgeted(
    v: Variant,
    g1: &Graph,
    g2: &Graph,
    budget: &Budget,
    cfg: &CheckpointCfg<PartitionCheckpoint>,
) -> Result<Partition, Interrupted<PartitionCheckpoint>> {
    let _span = bpi_obs::span("equiv.partition", "refine_budgeted");
    run_to_partition(Refiner::new(v, g1, Some(g2)), budget, cfg)
}

/// Continues [`refine_partition_budgeted`] from a snapshot. The final
/// partition, round count and split count are bit-for-bit identical to
/// an uninterrupted run (`partition_oracle.rs` interrupts at every fuel
/// boundary and checks exactly that).
pub fn refine_partition_resume(
    v: Variant,
    g1: &Graph,
    g2: &Graph,
    budget: &Budget,
    cfg: &CheckpointCfg<PartitionCheckpoint>,
    ckpt: PartitionCheckpoint,
) -> Result<Partition, Interrupted<PartitionCheckpoint>> {
    let _span = bpi_obs::span("equiv.partition", "refine_budgeted");
    record_resume("partition");
    run_to_partition(Refiner::restore(v, g1, Some(g2), ckpt), budget, cfg)
}

/// Runs a pair refiner to its stable partition, or to an interruption.
fn run_to_partition(
    mut r: Refiner<'_>,
    budget: &Budget,
    cfg: &CheckpointCfg<PartitionCheckpoint>,
) -> Result<Partition, Interrupted<PartitionCheckpoint>> {
    r.run(budget, cfg)?;
    Ok(r.finish())
}

/// Minimization: collapses each block of the `v`-self-partition to one
/// CSR state (the least member represents its block; the root's block
/// stays state 0). Edges are re-targeted through the block map and
/// deduplicated. The result is `v`-bisimilar to `g` with
/// `partition.num_blocks` states — the minimize-then-compose building
/// block.
///
/// On a graph that is not partition-safe (mixed input arities, where
/// the pairwise relation is not even transitive) no quotient is
/// meaningful, so the graph is rebuilt unchanged under the identity
/// partition.
pub fn quotient(v: Variant, g: &Graph) -> Graph {
    let part = if partition_safe(g, g) {
        refine_partition_self(v, g)
    } else {
        Partition {
            n1: g.len(),
            n2: 0,
            blocks: (0..g.len() as u32).collect(),
            num_blocks: g.len(),
        }
    };
    let mut reps: Vec<usize> = vec![usize::MAX; part.num_blocks];
    for u in 0..g.len() {
        let b = part.blocks[u] as usize;
        if reps[b] == usize::MAX {
            reps[b] = u;
        }
    }
    let states = reps.iter().map(|&r| g.states[r].clone()).collect();
    let edges = reps
        .iter()
        .map(|&r| {
            let mut seen: BTreeSet<(Action, usize)> = BTreeSet::new();
            let mut es: Vec<(Action, usize)> = Vec::new();
            for (act, t) in &g.edges[r] {
                let nt = part.blocks[*t] as usize;
                if seen.insert((act.clone(), nt)) {
                    es.push((act.clone(), nt));
                }
            }
            es
        })
        .collect();
    let discarding = reps.iter().map(|&r| g.discarding[r].clone()).collect();
    Graph::from_parts_record(states, edges, discarding, g.pool.clone(), false)
}

// Branching bisimilarity (Groote & Vaandrager 1990) over a graph's
// augmented LTS: the pre-quotient of every weak check (DESIGN.md §12).
// Both counters are functions of the graph alone.
static BRANCHING_STATES: LazyLock<&Counter> =
    LazyLock::new(|| counter("equiv.branching.states", Det::Deterministic));
static BRANCHING_BLOCKS: LazyLock<&Counter> =
    LazyLock::new(|| counter("equiv.branching.blocks", Det::Deterministic));

/// A branching signature: sorted, deduplicated `(observation, block)`
/// pairs. An observation is a label id of the graph, or `num_labels +
/// channel id` for the pseudo-label of a discard on a channel no input
/// label names.
type BSig = Vec<(u32, u32)>;

/// Flat per-node lists: `items[offsets[c]..offsets[c + 1]]` is node
/// `c`'s.
struct Lists<T> {
    offsets: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy + Ord> Lists<T> {
    /// Groups `(node, item)` pairs by node, each list sorted and
    /// deduplicated.
    fn group(n: usize, mut pairs: Vec<(u32, T)>) -> Lists<T> {
        pairs.sort_unstable();
        pairs.dedup();
        let mut offsets = vec![0u32; n + 1];
        for &(c, _) in &pairs {
            offsets[c as usize + 1] += 1;
        }
        for c in 0..n {
            offsets[c + 1] += offsets[c];
        }
        Lists {
            offsets,
            items: pairs.into_iter().map(|(_, x)| x).collect(),
        }
    }

    fn of(&self, c: u32) -> &[T] {
        &self.items[self.offsets[c as usize] as usize..self.offsets[c as usize + 1] as usize]
    }
}

/// The τ-SCCs of `g`, numbered in Tarjan's emission order: an SCC is
/// numbered after every SCC it reaches by τ, so each τ edge between two
/// SCCs runs from a higher number to a lower one. Returns the SCC of
/// each state and the SCC count.
fn tau_sccs(g: &Graph, tau: u32) -> (Vec<u32>, usize) {
    let n = g.len();
    let succ = Lists::group(
        n,
        (0..n)
            .flat_map(|i| {
                g.edge_ids(i)
                    .filter(|&(l, _)| l == tau)
                    .map(move |(_, t)| (i as u32, t as u32))
            })
            .collect(),
    );
    const UNSEEN: u32 = u32::MAX;
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut comp = vec![0u32; n];
    let (mut next, mut ncomp) = (0u32, 0u32);
    let mut stack: Vec<u32> = Vec::new();
    let mut calls: Vec<(u32, usize)> = Vec::new();
    for root in 0..n as u32 {
        if index[root as usize] != UNSEEN {
            continue;
        }
        calls.push((root, 0));
        index[root as usize] = next;
        low[root as usize] = next;
        next += 1;
        stack.push(root);
        on_stack[root as usize] = true;
        while let Some(&mut (v, ref mut cursor)) = calls.last_mut() {
            let vs = v as usize;
            if let Some(&w) = succ.of(v).get(*cursor) {
                *cursor += 1;
                let ws = w as usize;
                if index[ws] == UNSEEN {
                    index[ws] = next;
                    low[ws] = next;
                    next += 1;
                    stack.push(w);
                    on_stack[ws] = true;
                    calls.push((w, 0));
                } else if on_stack[ws] {
                    low[vs] = low[vs].min(index[ws]);
                }
                continue;
            }
            calls.pop();
            if let Some(&(p, _)) = calls.last() {
                low[p as usize] = low[p as usize].min(low[vs]);
            }
            if low[vs] == index[vs] {
                loop {
                    let w = stack.pop().expect("v is on the stack");
                    on_stack[w as usize] = false;
                    comp[w as usize] = ncomp;
                    if w == v {
                        break;
                    }
                }
                ncomp += 1;
            }
        }
    }
    (comp, ncomp as usize)
}

/// Branching signature refinement over the τ-SCC graph of one graph's
/// augmented LTS. States of one τ-SCC are branching bisimilar (the
/// relation is divergence-blind, like every weak variant here), so each
/// SCC is one node, and the τ edges left between nodes form a DAG
/// numbered bottom-up.
struct BranchingRefiner {
    /// τ's label id (`u32::MAX` when the graph has none).
    tau: u32,
    /// Per node: its `(observation, target node)` edges, the τ edges
    /// inside the node dropped.
    edges: Lists<(u32, u32)>,
    /// Per node: the observations of its discard self-loops.
    loops: Lists<u32>,
    /// Per node: the sources of its incoming edges, and of its incoming
    /// τ edges.
    preds: Lists<u32>,
    tau_preds: Lists<u32>,
    blk: Vec<u32>,
    /// Per block: members grouped by stored signature.
    blocks: Vec<BTreeMap<BSig, BTreeSet<u32>>>,
    sigs: Vec<Option<BSig>>,
    dirty: Vec<u32>,
    in_dirty: Vec<bool>,
}

impl BranchingRefiner {
    fn new(g: &Graph, scc: &[u32], nodes: usize) -> BranchingRefiner {
        let csr = g.csr();
        let tau = csr.label_id(&Action::Tau).unwrap_or(u32::MAX);
        let mut edges: Vec<(u32, (u32, u32))> = Vec::new();
        for (i, &c) in scc.iter().enumerate() {
            for (l, t) in g.edge_ids(i) {
                let d = scc[t];
                if !(l == tau && d == c) {
                    edges.push((c, (l, d)));
                }
            }
        }
        // The augmented LTS: a state discarding `a` loops under every
        // input label of the graph on `a`, or under `a`'s own
        // pseudo-label when no input label names `a`.
        let mut inputs: BTreeMap<Name, Vec<u32>> = BTreeMap::new();
        for (l, act) in csr.labels().iter().enumerate() {
            if act.is_input() {
                let a = act.subject().expect("input labels have a subject");
                inputs.entry(a).or_default().push(l as u32);
            }
        }
        let mut loops: Vec<(u32, u32)> = Vec::new();
        for (i, &c) in scc.iter().enumerate() {
            for a in g.discarding[i].iter() {
                match inputs.get(&a) {
                    Some(ls) => loops.extend(ls.iter().map(|&l| (c, l))),
                    None => {
                        let chan = csr.chan_id(a).expect("discarded channels are in the table");
                        loops.push((c, (csr.num_labels() as u32) + chan));
                    }
                }
            }
        }
        let preds = edges.iter().map(|&(c, (_, d))| (d, c)).collect();
        let tau_preds = edges
            .iter()
            .filter(|&&(_, (l, _))| l == tau)
            .map(|&(c, (_, d))| (d, c))
            .collect();
        BranchingRefiner {
            tau,
            edges: Lists::group(nodes, edges),
            loops: Lists::group(nodes, loops),
            preds: Lists::group(nodes, preds),
            tau_preds: Lists::group(nodes, tau_preds),
            blk: vec![0; nodes],
            blocks: vec![BTreeMap::new()],
            sigs: vec![None; nodes],
            dirty: (0..nodes as u32).collect(),
            in_dirty: vec![true; nodes],
        }
    }

    /// Node `c`'s signature against the current partition: its
    /// non-inert edges and its discard loops as `(observation, block)`,
    /// plus the signature of every inert τ-successor (a τ edge inside
    /// the block), which is already current because it is numbered
    /// lower.
    fn signature(&self, c: u32) -> BSig {
        let b = self.blk[c as usize];
        let mut sig: BSig = Vec::new();
        for &(l, d) in self.edges.of(c) {
            let bd = self.blk[d as usize];
            if l == self.tau && bd == b {
                sig.extend_from_slice(self.sigs[d as usize].as_ref().expect("lower nodes first"));
            } else {
                sig.push((l, bd));
            }
        }
        sig.extend(self.loops.of(c).iter().map(|&o| (o, b)));
        sig.sort_unstable();
        sig.dedup();
        sig
    }

    /// One round: recompute the dirty signatures bottom-up, rebucket
    /// the changed nodes, split every touched block (the largest bucket
    /// keeps the id), then mark what the moves may have changed.
    fn round(&mut self) {
        let mut drained = std::mem::take(&mut self.dirty);
        drained.sort_unstable();
        for &c in &drained {
            self.in_dirty[c as usize] = false;
        }
        let mut affected: BTreeSet<u32> = BTreeSet::new();
        for &c in &drained {
            let s = self.signature(c);
            if self.sigs[c as usize].as_ref() == Some(&s) {
                continue;
            }
            let b = self.blk[c as usize] as usize;
            if let Some(old) = self.sigs[c as usize].take() {
                if let Some(members) = self.blocks[b].get_mut(&old) {
                    members.remove(&c);
                    if members.is_empty() {
                        self.blocks[b].remove(&old);
                    }
                }
            }
            self.blocks[b].entry(s.clone()).or_default().insert(c);
            self.sigs[c as usize] = Some(s);
            affected.insert(b as u32);
        }
        let mut moved: Vec<u32> = Vec::new();
        for b in affected {
            self.split(b as usize, &mut moved);
        }
        self.mark(&moved);
    }

    fn split(&mut self, b: usize, moved: &mut Vec<u32>) {
        if self.blocks[b].len() <= 1 {
            return;
        }
        let keeper = self.blocks[b]
            .iter()
            .fold(None::<(&BSig, usize)>, |best, (s, m)| match best {
                Some((_, n)) if n >= m.len() => best,
                _ => Some((s, m.len())),
            })
            .expect("split of a non-empty block")
            .0
            .clone();
        for (sig, members) in std::mem::take(&mut self.blocks[b]) {
            if sig == keeper {
                self.blocks[b].insert(sig, members);
            } else {
                let nb = self.blocks.len() as u32;
                for &m in &members {
                    self.blk[m as usize] = nb;
                    moved.push(m);
                }
                self.blocks.push(BTreeMap::from([(sig, members)]));
            }
        }
    }

    /// Marks every node whose signature the moves may have changed: the
    /// moved nodes, their predecessors, and everything that reaches one
    /// of those by inert τ edges under the new partition.
    fn mark(&mut self, moved: &[u32]) {
        let mut work: Vec<u32> = Vec::new();
        for &m in moved {
            for &c in std::iter::once(&m).chain(self.preds.of(m)) {
                if !self.in_dirty[c as usize] {
                    self.in_dirty[c as usize] = true;
                    work.push(c);
                }
            }
        }
        self.dirty.extend_from_slice(&work);
        while let Some(x) = work.pop() {
            for &p in self.tau_preds.of(x) {
                if self.blk[p as usize] == self.blk[x as usize] && !self.in_dirty[p as usize] {
                    self.in_dirty[p as usize] = true;
                    self.dirty.push(p);
                    work.push(p);
                }
            }
        }
    }
}

/// The branching bisimilarity classes of `g`'s augmented LTS, as a
/// canonical self-partition (the root's block is 0). In the augmented
/// LTS τ is silent, every other label is visible, and a state that
/// discards channel `a` loops under each of the graph's input labels on
/// `a`, or under a pseudo-label of `a` when the graph has none: the
/// input-or-discard clause made a transition. On a partition-safe graph
/// the result is finer than [`refine_partition_self`] for each weak
/// variant (`partition_oracle.rs` checks it), and computing it takes no
/// τ-closure: the signature refinement of Blom & Orzan, with dirty-node
/// rounds and signatures built bottom-up over each block's inert τ
/// edges once τ-SCCs are collapsed.
pub fn refine_branching_self(g: &Graph) -> Partition {
    let tau = g.csr().label_id(&Action::Tau).unwrap_or(u32::MAX);
    let (scc, nodes) = tau_sccs(g, tau);
    let mut r = BranchingRefiner::new(g, &scc, nodes);
    while !r.dirty.is_empty() {
        r.round();
    }
    let mut renumber = vec![u32::MAX; r.blocks.len()];
    let mut next = 0u32;
    let blocks: Vec<u32> = scc
        .iter()
        .map(|&c| {
            let b = r.blk[c as usize] as usize;
            if renumber[b] == u32::MAX {
                renumber[b] = next;
                next += 1;
            }
            renumber[b]
        })
        .collect();
    if bpi_obs::metrics_enabled() {
        BRANCHING_STATES.add(g.len() as u64);
        BRANCHING_BLOCKS.add(u64::from(next));
    }
    Partition {
        n1: g.len(),
        n2: 0,
        blocks,
        num_blocks: next as usize,
    }
}

/// `g` quotiented by [`refine_branching_self`]: state `b` is block `b`
/// (so the root stays state 0), with the union of its members'
/// non-inert edges retargeted to blocks and deduplicated (a τ edge
/// inside a block is inert and dropped) and the union of their discard
/// sets. A representative's edges alone would not do: the top state of
/// a τ-ladder has only its inert τ, and the output that only the
/// ladder's bottom member has would be lost. Every state of `g` is branching
/// bisimilar to its block, hence bisimilar to it under each weak
/// variant. Like [`quotient`], it records no `equiv.graph.*` build
/// counters; [`Graph::branching_quotient`] caches it with its graph.
pub fn quotient_branching(g: &Graph) -> Graph {
    let _span = bpi_obs::span("equiv.branching", "quotient");
    let part = refine_branching_self(g);
    let tau = g.csr().label_id(&Action::Tau);
    let nb = part.num_blocks;
    let mut states: Vec<Option<P>> = vec![None; nb];
    let mut edges: Vec<Vec<(Action, usize)>> = vec![Vec::new(); nb];
    let mut discarding: Vec<NameSet> = vec![NameSet::new(); nb];
    let mut seen: Vec<BTreeSet<(u32, u32)>> = vec![BTreeSet::new(); nb];
    for (u, &b) in part.blocks.iter().enumerate() {
        let b = b as usize;
        states[b].get_or_insert_with(|| g.states[u].clone());
        for (l, t) in g.edge_ids(u) {
            let bt = part.blocks[t];
            if Some(l) == tau && bt as usize == b {
                continue;
            }
            if seen[b].insert((l, bt)) {
                edges[b].push((g.label(l).clone(), bt as usize));
            }
        }
        discarding[b].extend(&g.discarding[u]);
    }
    let states = states
        .into_iter()
        .map(|s| s.expect("every block has a member"))
        .collect();
    Graph::from_parts_record(states, edges, discarding, g.pool.clone(), false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bisim::refine;
    use crate::graph::{shared_pool, Opts};
    use bpi_core::builder::{inp, names, nil, out, par, sum, tau};
    use bpi_core::syntax::{Defs, P};

    const ALL: [Variant; 6] = [
        Variant::StrongBarbed,
        Variant::WeakBarbed,
        Variant::StrongStep,
        Variant::WeakStep,
        Variant::StrongLabelled,
        Variant::WeakLabelled,
    ];

    fn build_pair(p: &P, q: &P) -> (Graph, Graph) {
        let defs = Defs::new();
        let opts = Opts::default();
        let pool = shared_pool(p, q, opts.fresh_inputs);
        let g1 = Graph::build(p, &defs, &pool, opts).expect("finite test term");
        let g2 = Graph::build(q, &defs, &pool, opts).expect("finite test term");
        (g1, g2)
    }

    fn assert_matches_pairwise(p: &P, q: &P) {
        let (g1, g2) = build_pair(p, q);
        assert!(partition_safe(&g1, &g2), "corpus term must be safe");
        for v in ALL {
            let part = refine_partition(v, &g1, &g2);
            let got = partition_to_relation(&part);
            let want = refine(v, &g1, &g2);
            assert_eq!(got.rel, want.rel, "{v:?} diverged on {p} vs {q}");
        }
    }

    #[test]
    fn partition_matches_pairwise_on_paper_witnesses() {
        let [a, b] = names(["a", "b"]);
        let cases: Vec<(P, P)> = vec![
            (tau(nil()), nil()),
            (out(a, [b], nil()), out(a, [b], nil())),
            (
                sum(out(a, [b], nil()), tau(nil())),
                tau(sum(out(a, [b], nil()), tau(nil()))),
            ),
            (
                par(inp(a, [b], nil()), out(a, [b], nil())),
                par(out(a, [b], nil()), inp(a, [b], nil())),
            ),
            (inp(a, [b], out(b, [a], nil())), nil()),
        ];
        for (p, q) in &cases {
            assert_matches_pairwise(p, q);
            assert_matches_pairwise(q, p);
            assert_matches_pairwise(p, p);
        }
    }

    #[test]
    fn mixed_input_arities_are_flagged_unsafe() {
        let [a, b] = names(["a", "b"]);
        let p = inp(a, [b], nil());
        let q = inp(a, [b, b], nil());
        let (g1, g2) = build_pair(&p, &q);
        assert!(!partition_safe(&g1, &g2));
        // Uniform arities stay safe.
        let (h1, h2) = build_pair(&p, &p);
        assert!(partition_safe(&h1, &h2));
    }

    #[test]
    fn quotient_collapses_bisimilar_states_and_stays_bisimilar() {
        let [a, b] = names(["a", "b"]);
        // `a<b>` and `a<b> + a<b>` are strongly bisimilar but
        // syntactically distinct, so the builder keeps them as separate
        // states and the quotient must merge them. (Syntactically equal
        // subterms are already shared by the builder.)
        let p = sum(
            tau(out(a, [b], nil())),
            tau(sum(out(a, [b], nil()), out(a, [b], nil()))),
        );
        let defs = Defs::new();
        let opts = Opts::default();
        let pool = shared_pool(&p, &p, opts.fresh_inputs);
        let g = Graph::build(&p, &defs, &pool, opts).expect("finite test term");
        let q = quotient(Variant::StrongLabelled, &g);
        assert!(q.len() < g.len(), "duplicate τ-branches must collapse");
        for v in ALL {
            let rel = refine(v, &g, &q);
            assert!(rel.holds(0, 0), "{v:?}: quotient not bisimilar to original");
        }
        // The quotient is already minimal: quotienting again is a no-op.
        let q2 = quotient(Variant::StrongLabelled, &q);
        assert_eq!(q2.len(), q.len());
    }

    #[test]
    fn self_partition_numbering_is_canonical() {
        let [a] = names(["a"]);
        let p = tau(tau(out(a, [a], nil())));
        let defs = Defs::new();
        let opts = Opts::default();
        let pool = shared_pool(&p, &p, opts.fresh_inputs);
        let g = Graph::build(&p, &defs, &pool, opts).expect("finite test term");
        for v in ALL {
            let part = refine_partition_self(v, &g);
            assert_eq!(part.blocks.len(), g.len());
            assert_eq!(part.n2, 0);
            // Canonical numbering: root in block 0, ids dense.
            assert_eq!(part.blocks[0], 0);
            assert!(part.num_blocks <= g.len());
        }
    }
}
