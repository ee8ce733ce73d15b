//! Finite transition graphs for bisimulation checking.
//!
//! A [`Graph`] is the reachable fragment of the full early LTS of one
//! process, finitised in three ways:
//!
//! 1. **Inputs** are instantiated over a *name pool*: the free names of
//!    the processes under comparison plus a few fresh representatives
//!    (`#w0, #w1, …`). By Lemma 18 (injective renamings preserve `~`),
//!    behaviour under one representative fresh name per input position
//!    determines behaviour under all fresh names.
//! 2. **Bound outputs** are normalised: the globally fresh names minted
//!    by scope extrusion are renamed to deterministic representatives
//!    `#b0, #b1, …` (smallest indices not free in the source state), so
//!    matching bound outputs on both sides of a comparison carry
//!    syntactically equal labels — exactly the `b̃ ∩ fn(p,q) = ∅`
//!    canonical-representative convention of Definition 7.
//! 3. **States** are α-canonicalised, making revisits detectable.
//!
//! Discard information (`p —a:→`) is stored per state so that checkers
//! can form the `a(b)?` "input-or-discard" move sets of the paper.

use crate::checkpoint::GraphCheckpoint;
use bpi_core::action::Action;
use bpi_core::name::{Name, NameSet};
use bpi_core::subst::Subst;
use bpi_core::syntax::{Defs, P};
use bpi_core::Consed;
use bpi_obs::{counter, Counter, Det, Value};
use bpi_semantics::budget::{Budget, EngineError};
use bpi_semantics::checkpoint::{record_snapshot, CheckpointCfg, Interrupted};
use bpi_semantics::lts::{tuples, Lts};
use bpi_semantics::{inputs_cached, step_transitions_cached};
use parking_lot::RwLock;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, LazyLock, OnceLock};

// Build metrics. Everything counted off a finished graph — and the
// state-ceiling failure, which is a property of the reachable set — is
// deterministic. Deadline/cancellation failures and memo hit rates
// depend on wall clock and process history: advisory.
static BUILDS: LazyLock<&Counter> =
    LazyLock::new(|| counter("equiv.graph.builds", Det::Deterministic));
static BUILD_STATES: LazyLock<&Counter> =
    LazyLock::new(|| counter("equiv.graph.states", Det::Deterministic));
static BUILD_EDGES: LazyLock<&Counter> =
    LazyLock::new(|| counter("equiv.graph.edges", Det::Deterministic));
static BUILD_LABELS: LazyLock<&Counter> =
    LazyLock::new(|| counter("equiv.graph.labels", Det::Deterministic));
static BUILD_CHANS: LazyLock<&Counter> =
    LazyLock::new(|| counter("equiv.graph.chans", Det::Deterministic));
static BUILD_EXHAUSTED: LazyLock<&Counter> =
    LazyLock::new(|| counter("equiv.graph.exhausted", Det::Deterministic));
static BUILD_INTERRUPTED: LazyLock<&Counter> =
    LazyLock::new(|| counter("equiv.graph.interrupted", Det::Advisory));
static MEMO_HITS: LazyLock<&Counter> =
    LazyLock::new(|| counter("equiv.graph.memo.hits", Det::Advisory));
static MEMO_MISSES: LazyLock<&Counter> =
    LazyLock::new(|| counter("equiv.graph.memo.misses", Det::Advisory));
// Entries materialised into the τ- and step-closure caches. Advisory:
// graphs are memoized and their caches shared, so what a call adds
// depends on which calls came before it.
static CLOSURE_ENTRIES: LazyLock<&Counter> =
    LazyLock::new(|| counter("equiv.graph.closure_entries", Det::Advisory));

/// Records a failed build (fresh or replayed from the memo).
fn record_build_err(e: &EngineError) {
    match e {
        EngineError::StateBudgetExceeded { .. } => BUILD_EXHAUSTED.inc(),
        _ => BUILD_INTERRUPTED.inc(),
    }
    bpi_obs::emit("equiv.graph", "build_failed", || {
        vec![("error", Value::from(e.to_string()))]
    });
}

/// Options for graph construction and bisimulation checking.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Maximum states per side before construction gives up with
    /// [`EngineError::StateBudgetExceeded`] (the paper's theorems are
    /// stated for image-finite processes; exceeding this budget means
    /// the subject is out of scope for the checker).
    pub max_states: usize,
    /// Number of fresh input representatives added to the pool.
    pub fresh_inputs: usize,
}

impl Default for Opts {
    fn default() -> Opts {
        Opts {
            max_states: 20_000,
            fresh_inputs: 1,
        }
    }
}

/// The reachable, pool-instantiated, label-normalised LTS of one process.
pub struct Graph {
    /// α-canonical state representatives; index 0 is the seed, and the
    /// numbering is breadth-first discovery order.
    pub states: Vec<P>,
    /// Per state, the pool channels it discards.
    pub discarding: Vec<NameSet>,
    /// The global input pool used during construction.
    pub pool: Vec<Name>,
    /// The outgoing `τ`/output/input edges (no discard edges; see
    /// [`Graph::state_discards`]) in compressed-sparse-row form with
    /// interned label ids, each state's in derivation order: read them
    /// through [`Graph::edge_ids`] and [`Graph::label`].
    csr: Csr,
    /// Lazily filled per-state query caches (closures, barbs, weak move
    /// sets); the fixpoint checkers hit the same states thousands of
    /// times.
    caches: GraphCaches,
}

/// Label-kind bits precomputed per interned label id.
const K_TAU: u8 = 1;
const K_OUT: u8 = 2;
const K_IN: u8 = 4;
const K_STEP: u8 = K_TAU | K_OUT;

/// Compressed-sparse-row form of a graph's transition structure.
///
/// Labels are interned into a sorted table so edge scans compare dense
/// `u32` ids instead of hashing `Action` trees, and per-label kind /
/// subject / arity lookups are array reads. The per-label predecessor
/// CSR (`preds`) that the worklist refiner needs is built lazily — small
/// graphs dispatched to the naive refiner never pay for it.
pub struct Csr {
    /// Sorted, deduplicated table of every label occurring on an edge.
    labels: Vec<Action>,
    label_index: HashMap<Action, u32>,
    /// Kind bits (`τ`/output/input) per label id.
    kinds: Vec<u8>,
    /// Dense channel id of each label's subject (`u32::MAX` for `τ`).
    label_chan: Vec<u32>,
    /// Object arity of each label.
    label_arity: Vec<u32>,
    /// `offsets[i]..offsets[i + 1]` spans state `i`'s edges in the flat
    /// arrays below; `offsets.len() == n + 1`.
    offsets: Vec<u32>,
    edge_labels: Vec<u32>,
    edge_targets: Vec<u32>,
    /// Dense channel table: pool names, discardable names, and every
    /// label subject. Queries about channels outside the table answer
    /// "empty" without touching any cache.
    chans: Vec<Name>,
    chan_index: HashMap<Name, u32>,
    /// Per-target predecessor blocks, sorted by (label id, source) within
    /// each block so a single label's predecessors are one subrange.
    preds: OnceLock<PredCsr>,
}

/// The lazily built predecessor index: for each target state `t`,
/// `entries[offsets[t]..offsets[t + 1]]` lists `(label id, source)` pairs
/// of every edge into `t`, sorted.
pub struct PredCsr {
    offsets: Vec<u32>,
    entries: Vec<(u32, u32)>,
}

impl Csr {
    fn build(edges: &[Vec<(Action, usize)>], pool: &[Name], discarding: &[NameSet]) -> Csr {
        let mut label_set: BTreeSet<&Action> = BTreeSet::new();
        for es in edges {
            for (a, _) in es {
                label_set.insert(a);
            }
        }
        let labels: Vec<Action> = label_set.into_iter().cloned().collect();
        let label_index: HashMap<Action, u32> = labels
            .iter()
            .enumerate()
            .map(|(i, a)| (a.clone(), i as u32))
            .collect();

        let mut chan_set: BTreeSet<Name> = pool.iter().copied().collect();
        for d in discarding {
            for n in d.iter() {
                chan_set.insert(n);
            }
        }
        for a in &labels {
            if let Some(c) = a.subject() {
                chan_set.insert(c);
            }
        }
        let chans: Vec<Name> = chan_set.into_iter().collect();
        let chan_index: HashMap<Name, u32> = chans
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, i as u32))
            .collect();

        let mut kinds = Vec::with_capacity(labels.len());
        let mut label_chan = Vec::with_capacity(labels.len());
        let mut label_arity = Vec::with_capacity(labels.len());
        for a in &labels {
            kinds.push(match a {
                Action::Tau => K_TAU,
                Action::Output { .. } => K_OUT,
                Action::Input { .. } => K_IN,
                Action::Discard { .. } => 0,
            });
            label_chan.push(a.subject().map_or(u32::MAX, |c| chan_index[&c]));
            label_arity.push(a.objects().len() as u32);
        }

        let total: usize = edges.iter().map(Vec::len).sum();
        let mut offsets = Vec::with_capacity(edges.len() + 1);
        let mut edge_labels = Vec::with_capacity(total);
        let mut edge_targets = Vec::with_capacity(total);
        offsets.push(0u32);
        for es in edges {
            for (a, j) in es {
                edge_labels.push(label_index[a]);
                edge_targets.push(*j as u32);
            }
            offsets.push(edge_labels.len() as u32);
        }
        Csr {
            labels,
            label_index,
            kinds,
            label_chan,
            label_arity,
            offsets,
            edge_labels,
            edge_targets,
            chans,
            chan_index,
            preds: OnceLock::new(),
        }
    }

    /// Number of distinct edge labels.
    pub fn num_labels(&self) -> usize {
        self.labels.len()
    }

    /// Number of channels in the dense channel table.
    pub fn num_chans(&self) -> usize {
        self.chans.len()
    }

    /// Total edge count.
    pub fn num_edges(&self) -> usize {
        self.edge_targets.len()
    }

    /// The interned label table, sorted.
    pub fn labels(&self) -> &[Action] {
        &self.labels
    }

    /// The dense id of `label`, if it occurs in this graph.
    pub fn label_id(&self, label: &Action) -> Option<u32> {
        self.label_index.get(label).copied()
    }

    /// The dense id of channel `a`, if it is in the channel table.
    pub fn chan_id(&self, a: Name) -> Option<u32> {
        self.chan_index.get(&a).copied()
    }

    /// Kind bits of label `lid`.
    fn kind(&self, lid: u32) -> u8 {
        self.kinds[lid as usize]
    }

    /// State `i`'s edge span in the flat arrays.
    fn range(&self, i: usize) -> std::ops::Range<usize> {
        self.offsets[i] as usize..self.offsets[i + 1] as usize
    }

    /// The predecessor index, built on first use.
    pub fn preds(&self) -> &PredCsr {
        self.preds.get_or_init(|| {
            let n = self.offsets.len() - 1;
            let mut offsets = vec![0u32; n + 1];
            for &t in &self.edge_targets {
                offsets[t as usize + 1] += 1;
            }
            for i in 0..n {
                offsets[i + 1] += offsets[i];
            }
            let mut cursor = offsets.clone();
            let mut entries = vec![(0u32, 0u32); self.edge_targets.len()];
            for i in 0..n {
                for e in self.range(i) {
                    let t = self.edge_targets[e] as usize;
                    entries[cursor[t] as usize] = (self.edge_labels[e], i as u32);
                    cursor[t] += 1;
                }
            }
            for t in 0..n {
                entries[offsets[t] as usize..offsets[t + 1] as usize].sort_unstable();
            }
            PredCsr { offsets, entries }
        })
    }

    /// `(label id, source)` pairs of every edge into state `i`.
    pub fn preds_of(&self, i: usize) -> &[(u32, u32)] {
        let p = self.preds();
        &p.entries[p.offsets[i] as usize..p.offsets[i + 1] as usize]
    }

    /// The predecessors of `i` along edges labelled `lid` (one binary
    /// searched subrange of the per-target block).
    pub fn preds_of_label(&self, i: usize, lid: u32) -> &[(u32, u32)] {
        let block = self.preds_of(i);
        let lo = block.partition_point(|&(l, _)| l < lid);
        let hi = block.partition_point(|&(l, _)| l <= lid);
        &block[lo..hi]
    }
}

/// Interior-mutability caches for the per-state derived queries. Every
/// entry is a pure function of the (immutable) edge structure, so a
/// cached value is valid for the graph's whole lifetime. Racing
/// initialisations compute the same pure value, so concurrent refiner
/// workers can share a graph freely.
type CachedSet = OnceLock<Arc<BTreeSet<usize>>>;

/// Entries per dense key space before a [`Keyed`] cache falls back from
/// a flat `OnceLock` slab to a locked map.
const SLAB_CAP: usize = 1 << 20;

/// A cache over a bounded dense key space (state × label, state ×
/// channel, …): a flat lazily-allocated `OnceLock` slab when the space
/// is small enough to index directly, a `RwLock`ed map for the rare huge
/// products.
struct Keyed<T> {
    len: usize,
    slab: OnceLock<Box<[OnceLock<T>]>>,
    map: RwLock<HashMap<usize, T>>,
}

impl<T: Clone> Keyed<T> {
    fn new(len: usize) -> Keyed<T> {
        Keyed {
            len,
            slab: OnceLock::new(),
            map: RwLock::new(HashMap::new()),
        }
    }

    fn get_or_init(&self, idx: usize, f: impl FnOnce() -> T) -> T {
        if self.len <= SLAB_CAP {
            let slab = self
                .slab
                .get_or_init(|| (0..self.len).map(|_| OnceLock::new()).collect());
            slab[idx].get_or_init(f).clone()
        } else {
            if let Some(v) = self.map.read().get(&idx) {
                return v.clone();
            }
            let v = f();
            self.map.write().entry(idx).or_insert(v).clone()
        }
    }
}

static EMPTY_STATES: LazyLock<Arc<BTreeSet<usize>>> = LazyLock::new(|| Arc::new(BTreeSet::new()));
static EMPTY_ACTIONS: LazyLock<Arc<BTreeSet<Action>>> = LazyLock::new(|| Arc::new(BTreeSet::new()));

struct GraphCaches {
    tau_closure: Vec<CachedSet>,
    step_closure: Vec<CachedSet>,
    strong_barbs: Vec<OnceLock<NameSet>>,
    weak_barbs: Vec<OnceLock<NameSet>>,
    weak_step_barbs: Vec<OnceLock<NameSet>>,
    /// Indexed `state * num_labels + label_id`.
    weak_label: Keyed<Arc<BTreeSet<usize>>>,
    /// Indexed `state * num_chans + chan_id`.
    weak_discard: Keyed<Arc<BTreeSet<usize>>>,
    /// Indexed `state * num_chans + chan_id`.
    weak_input_labels: Keyed<Arc<BTreeSet<Action>>>,
    /// Indexed `chan_id`.
    arities_on: Keyed<Arc<BTreeSet<usize>>>,
    /// Strong dependency sets: direct predecessors plus the diagonal.
    deps_strong: OnceLock<Arc<Vec<Vec<usize>>>>,
    /// Weak dependency sets: inverse transitive reachability.
    deps_weak: OnceLock<Arc<Vec<Vec<usize>>>>,
    /// The quotient by branching bisimilarity.
    branching: OnceLock<Arc<Graph>>,
}

impl GraphCaches {
    fn new(n: usize, labels: usize, chans: usize) -> GraphCaches {
        GraphCaches {
            tau_closure: (0..n).map(|_| OnceLock::new()).collect(),
            step_closure: (0..n).map(|_| OnceLock::new()).collect(),
            strong_barbs: (0..n).map(|_| OnceLock::new()).collect(),
            weak_barbs: (0..n).map(|_| OnceLock::new()).collect(),
            weak_step_barbs: (0..n).map(|_| OnceLock::new()).collect(),
            weak_label: Keyed::new(n * labels),
            weak_discard: Keyed::new(n * chans),
            weak_input_labels: Keyed::new(n * chans),
            arities_on: Keyed::new(chans),
            deps_strong: OnceLock::new(),
            deps_weak: OnceLock::new(),
            branching: OnceLock::new(),
        }
    }
}

/// Picks `k` fresh input representatives `#w0, #w1, …` avoiding `avoid`.
pub fn fresh_pool_names(k: usize, avoid: &NameSet) -> Vec<Name> {
    let mut out = Vec::with_capacity(k);
    let mut i = 0usize;
    while out.len() < k {
        let n = Name::pool_rep(i);
        if !avoid.contains(n) {
            out.push(n);
        }
        i += 1;
    }
    out
}

/// The shared pool for comparing `p` and `q`: their free names plus
/// `fresh_inputs` fresh representatives.
pub fn shared_pool(p: &P, q: &P, fresh_inputs: usize) -> Vec<Name> {
    let mut fns = p.free_names().union(&q.free_names());
    let fresh = fresh_pool_names(fresh_inputs, &fns);
    let mut pool = fns.to_vec();
    pool.extend(fresh.iter().copied());
    for f in fresh {
        fns.insert(f);
    }
    pool
}

/// Renames the extruded names of a bound output to deterministic
/// representatives `#b0, #b1, …` (smallest indices whose names are not in
/// `avoid`), rewriting both the label and the continuation.
pub fn normalize_bound_output(act: Action, cont: P, avoid: &NameSet) -> (Action, P) {
    let Action::Output {
        chan,
        objects,
        bound,
    } = act
    else {
        return (act, cont);
    };
    if bound.is_empty() {
        return (
            Action::Output {
                chan,
                objects,
                bound,
            },
            cont,
        );
    }
    let mut subst = Subst::identity();
    let mut used = avoid.clone();
    let mut reps = Vec::with_capacity(bound.len());
    let mut i = 0usize;
    for b in &bound {
        let rep = loop {
            let cand = Name::bound_rep(i);
            i += 1;
            if !used.contains(cand) {
                break cand;
            }
        };
        used.insert(rep);
        subst.bind(*b, rep);
        reps.push(rep);
    }
    let objects = objects.into_iter().map(|o| subst.apply(o)).collect();
    (
        Action::Output {
            chan,
            objects,
            bound: reps,
        },
        subst.apply_process(&cont),
    )
}

/// One state's expansion in the build loop (`Graph::continue_build`):
/// its `τ`/output successors ([`expand_steps`]) and then its input
/// successors and discards ([`expand_inputs`]). A pure function of the
/// state.
fn expand_state(
    lts: &Lts<'_>,
    src: &P,
    pool: &[Name],
    pool_set: &NameSet,
) -> (Vec<(Action, Consed)>, NameSet) {
    let src = bpi_core::cons(src);
    let mut succs = expand_steps(lts, &src, pool_set);
    let (inputs, discards) = expand_inputs(lts, &src, pool, pool_set);
    succs.extend(inputs);
    (succs, discards)
}

/// The `τ`/output half of [`expand_state`]: the step successors in
/// derivation order, bound outputs renamed by [`normalize_bound_output`]
/// and each successor normalised ([`Consed::normal_form`]). The on-the-fly
/// search of the barbed and step variants ([`crate::onthefly`]) derives
/// only this half: their transfer never reads an input or a discard.
pub(crate) fn expand_steps(
    lts: &Lts<'_>,
    src: &Consed,
    pool_set: &NameSet,
) -> Vec<(Action, Consed)> {
    let avoid = src.free_names().union(pool_set);
    step_transitions_cached(lts, src.term())
        .iter()
        .map(|(act, cont)| {
            let (act, cont) = normalize_bound_output(act.clone(), cont.clone(), &avoid);
            (act, bpi_core::cons(&cont).normal_form())
        })
        .collect()
}

/// The input half of [`expand_state`]: the input successors, normalised,
/// and the pool channels the state discards — those outside its
/// listening interface, read off the same memoized walk as its inputs
/// ([`Lts::inputs`]).
pub(crate) fn expand_inputs(
    lts: &Lts<'_>,
    src: &Consed,
    pool: &[Name],
    pool_set: &NameSet,
) -> (Vec<(Action, Consed)>, NameSet) {
    // Dynamic pool: global pool plus extruded representatives that
    // became free in this state (so later inputs can mention them).
    let mut dyn_pool = pool.to_vec();
    dyn_pool.extend(
        src.free_names()
            .iter()
            .filter(|&n| !pool_set.contains(n) && n.spelling().starts_with("#b")),
    );
    let inputs = inputs_cached(lts, src.term(), &dyn_pool);
    let succs = inputs
        .transitions
        .iter()
        .map(|(act, cont)| (act.clone(), bpi_core::cons(cont).normal_form()))
        .collect();
    (succs, inputs.discards(&dyn_pool))
}

/// Global memo of completed graph builds, keyed by
/// *(consed seed, defs generation, pool)*. The `Consed` handle in the key
/// pins the term's interned identity (see `bpi_core::store`). Cleared
/// wholesale on overflow — correctness never depends on a hit.
type GraphKey = (Consed, u64, Vec<Name>);
static GRAPH_MEMO: LazyLock<RwLock<HashMap<GraphKey, Arc<Graph>>>> =
    LazyLock::new(|| RwLock::new(HashMap::new()));
const GRAPH_MEMO_CAP: usize = 1 << 12;

impl Graph {
    /// Builds the reachable graph of `seed` over `pool`. `Err` — never a
    /// panic — when more than `opts.max_states` states are reached.
    pub fn build(seed: &P, defs: &Defs, pool: &[Name], opts: Opts) -> Result<Graph, EngineError> {
        Graph::build_with_budget(seed, defs, pool, opts, &Budget::unlimited())
    }

    /// [`Graph::build`] under an explicit [`Budget`]: the state ceiling
    /// is the smaller of `opts.max_states` and the budget's, and the
    /// budget's deadline/cancellation flag are polled once per expanded
    /// state. This is the one build loop (`continue_build`) from the
    /// seed under an inert [`CheckpointCfg`], with the snapshot of a
    /// stop dropped.
    pub fn build_with_budget(
        seed: &P,
        defs: &Defs,
        pool: &[Name],
        opts: Opts,
        budget: &Budget,
    ) -> Result<Graph, EngineError> {
        let _span = bpi_obs::span("equiv.graph", "build_sequential");
        let ck = GraphCheckpoint::seed(seed, pool);
        let r = Graph::continue_build(ck, defs, opts, budget, &CheckpointCfg::default())
            .map_err(|stop| stop.error);
        if let Err(e) = &r {
            record_build_err(e);
        }
        r
    }

    /// The checkpointed build of the check pipeline's graph phases:
    /// [`Graph::continue_build`] from a snapshot (a seed's, or one a
    /// stop handed back) under the `build_checkpointed` span, recording
    /// the snapshot a stop hands back. Any interruption — state ceiling,
    /// deadline, cancellation or an empty fuel tank — returns
    /// [`Interrupted`] carrying a [`GraphCheckpoint`] from which the
    /// next call continues without re-expanding a single state. It runs
    /// the same loop as [`Graph::build`], so a completed build is
    /// **bit-identical** to a plain one and the state-ceiling error fires
    /// at exactly the same expansion. Unlike [`Graph::build_cached`] it
    /// never consults the global graph memo, and it records the
    /// deterministic build counters only on completion, so an
    /// interrupted-and-resumed build leaves the same deterministic
    /// counter trail as a straight one.
    pub(crate) fn continue_checkpointed(
        ck: GraphCheckpoint,
        defs: &Defs,
        opts: Opts,
        budget: &Budget,
        cfg: &CheckpointCfg<GraphCheckpoint>,
    ) -> Result<Graph, Interrupted<GraphCheckpoint>> {
        let _span = bpi_obs::span("equiv.graph", "build_checkpointed");
        Graph::continue_build(ck, defs, opts, budget, cfg)
            .inspect_err(|_| record_snapshot("interrupt"))
    }

    /// The one build loop: FIFO expansion from a snapshot's pending
    /// queue, so state numbering is breadth-first discovery order, with
    /// commit-or-abort staging per source state. A stop moves the
    /// build's state into the returned checkpoint.
    fn continue_build(
        ck: GraphCheckpoint,
        defs: &Defs,
        opts: Opts,
        budget: &Budget,
        cfg: &CheckpointCfg<GraphCheckpoint>,
    ) -> Result<Graph, Interrupted<GraphCheckpoint>> {
        let GraphCheckpoint {
            mut states,
            mut edges,
            mut discarding,
            mut pending,
            pool,
        } = ck;
        assert_eq!(states.len(), edges.len(), "corrupt checkpoint: edges");
        assert_eq!(
            states.len(),
            discarding.len(),
            "corrupt checkpoint: discards"
        );
        let lts = Lts::new(defs);
        let pool_set = NameSet::from_iter(pool.iter().copied());
        let cap = opts.max_states.min(budget.max_states());
        // Consed keys: visited checks are an O(1) id probe, and the
        // handle pins the class so the id stays stable for the build.
        // (The cell's interior OnceLocks never feed Hash/Eq.)
        #[allow(clippy::mutable_key_type)]
        let mut index: HashMap<Consed, usize> = states
            .iter()
            .enumerate()
            .map(|(i, s)| (bpi_core::cons(s), i))
            .collect();
        // Peek-then-commit: the front of `pending` stays queued until its
        // whole expansion is committed, so an interruption mid-state
        // re-expands it on resume (expansion is a pure function of the
        // state — the redo is invisible in the result).
        let error = loop {
            let Some(&i) = pending.front() else {
                return Ok(Graph::from_parts(states, edges, discarding, pool));
            };
            if let Err(e) = cfg.poll(budget, 0) {
                break e;
            }
            let (succs, disc) = expand_state(&lts, &states[i], &pool, &pool_set);
            // Fresh successors are numbered in discovery order as they
            // appear, and the expansion commits only if the states then
            // fit under the ceiling. A stop drops `index`, so its entries
            // for an uncommitted expansion die with it.
            let committed = states.len();
            let mut out: Vec<(Action, usize)> = Vec::with_capacity(succs.len());
            for (act, key) in succs {
                let j = match index.get(&key) {
                    Some(&j) => j,
                    None => {
                        let j = states.len();
                        states.push(key.term().clone());
                        index.insert(key, j);
                        j
                    }
                };
                out.push((act, j));
            }
            if states.len() > cap {
                // Committed states never exceed `cap`, and `i` is still
                // pending in the snapshot.
                states.truncate(committed);
                break EngineError::StateBudgetExceeded { limit: cap };
            }
            // Commit.
            pending.pop_front();
            pending.extend(committed..states.len());
            edges.resize_with(states.len(), Vec::new);
            discarding.resize_with(states.len(), NameSet::new);
            edges[i] = out;
            discarding[i] = disc;
        };
        Err(Interrupted {
            error,
            checkpoint: GraphCheckpoint {
                states,
                edges,
                discarding,
                pending,
                pool,
            },
        })
    }

    /// Reassembles a graph from a **completed** build snapshot without
    /// recording build metrics (they were recorded when the original
    /// build finished).
    ///
    /// # Panics
    /// Panics if the snapshot still has pending states.
    pub fn from_complete_checkpoint(ck: GraphCheckpoint) -> Graph {
        assert!(
            ck.pending.is_empty(),
            "checkpoint is not a completed build (pending states remain)"
        );
        Graph::from_parts_record(ck.states, ck.edges, ck.discarding, ck.pool, false)
    }

    /// Assembles a graph from its construction output: freezes the edges
    /// into the CSR and builds the (empty) query caches.
    fn from_parts(
        states: Vec<P>,
        edges: Vec<Vec<(Action, usize)>>,
        discarding: Vec<NameSet>,
        pool: Vec<Name>,
    ) -> Graph {
        Graph::from_parts_record(states, edges, discarding, pool, true)
    }

    /// [`Graph::from_parts`] with the build metrics optionally silenced:
    /// the checkpoint layer reconstructs graphs from *completed* build
    /// snapshots whose counters were already recorded when the original
    /// build finished, and re-recording would break the deterministic
    /// metric parity between interrupted-and-resumed and straight runs.
    pub(crate) fn from_parts_record(
        states: Vec<P>,
        edges: Vec<Vec<(Action, usize)>>,
        discarding: Vec<NameSet>,
        pool: Vec<Name>,
        record: bool,
    ) -> Graph {
        let csr = {
            let _span = bpi_obs::span("equiv.graph", "csr_freeze");
            Csr::build(&edges, &pool, &discarding)
        };
        let caches = GraphCaches::new(states.len(), csr.num_labels(), csr.num_chans());
        let g = Graph {
            states,
            discarding,
            pool,
            csr,
            caches,
        };
        if !record {
            return g;
        }
        if bpi_obs::metrics_enabled() {
            BUILDS.inc();
            BUILD_STATES.add(g.len() as u64);
            BUILD_EDGES.add(g.csr.num_edges() as u64);
            BUILD_LABELS.add(g.csr.num_labels() as u64);
            BUILD_CHANS.add(g.csr.num_chans() as u64);
        }
        bpi_obs::emit("equiv.graph", "built", || {
            vec![
                ("states", Value::from(g.len())),
                ("edges", Value::from(g.csr.num_edges())),
                ("labels", Value::from(g.csr.num_labels())),
                ("chans", Value::from(g.csr.num_chans())),
            ]
        });
        g
    }

    /// [`Graph::build_with_budget`] through a global memo keyed by
    /// *(consed seed, defs generation, pool)*: the six bisimulation
    /// variants, the congruence layer, distinguishing-formula extraction
    /// and the modal logic all rebuild the same graphs, and a completed
    /// build is a pure function of that key.
    ///
    /// Budget semantics are replayed exactly: a memoized graph is always
    /// *complete*, so the original build would have failed iff the graph
    /// needs more states than the effective ceiling allows — in which
    /// case the same typed error is returned without rebuilding.
    pub fn build_cached(
        seed: &P,
        defs: &Defs,
        pool: &[Name],
        opts: Opts,
        budget: &Budget,
    ) -> Result<Arc<Graph>, EngineError> {
        budget.check(0)?;
        // Chaos injection point: a seeded delay widens the window between
        // the memo probe and the insert, exercising the double-build race
        // (benign — both builds are bit-identical).
        bpi_semantics::chaos::delay("equiv.graph.memo");
        let cap = opts.max_states.min(budget.max_states());
        let key = (bpi_core::cons(seed), defs.generation(), pool.to_vec());
        if let Some(g) = GRAPH_MEMO.read().get(&key) {
            MEMO_HITS.inc();
            if g.len() > cap {
                let e = EngineError::StateBudgetExceeded { limit: cap };
                record_build_err(&e);
                return Err(e);
            }
            return Ok(g.clone());
        }
        MEMO_MISSES.inc();
        let g = Arc::new(Graph::build_with_budget(seed, defs, pool, opts, budget)?);
        let mut memo = GRAPH_MEMO.write();
        if memo.len() >= GRAPH_MEMO_CAP {
            memo.clear();
        }
        memo.insert(key, g.clone());
        Ok(g)
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The transition structure in CSR form (interned labels, flat
    /// offset/target arrays, lazy predecessor index).
    pub fn csr(&self) -> &Csr {
        &self.csr
    }

    /// State `i`'s edges as `(label id, target)` pairs from the flat CSR
    /// arrays — the allocation-free form the refiners iterate.
    pub fn edge_ids(&self, i: usize) -> impl Iterator<Item = (u32, usize)> + '_ {
        self.csr
            .range(i)
            .map(move |e| (self.csr.edge_labels[e], self.csr.edge_targets[e] as usize))
    }

    /// The interned label with id `lid`.
    pub fn label(&self, lid: u32) -> &Action {
        &self.csr.labels[lid as usize]
    }

    /// τ-successors of state `i`.
    pub fn tau_succs(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.edge_ids(i)
            .filter(|(l, _)| self.csr.kind(*l) & K_TAU != 0)
            .map(|(_, j)| j)
    }

    /// Output edges of state `i`.
    pub fn out_edges(&self, i: usize) -> impl Iterator<Item = (&Action, usize)> + '_ {
        self.edge_ids(i)
            .filter(|(l, _)| self.csr.kind(*l) & K_OUT != 0)
            .map(|(l, j)| (self.label(l), j))
    }

    /// Input edges of state `i`.
    pub fn input_edges(&self, i: usize) -> impl Iterator<Item = (&Action, usize)> + '_ {
        self.edge_ids(i)
            .filter(|(l, _)| self.csr.kind(*l) & K_IN != 0)
            .map(|(l, j)| (self.label(l), j))
    }

    /// Step-move edges (`τ` or output) of state `i`.
    pub fn step_edges(&self, i: usize) -> impl Iterator<Item = (&Action, usize)> + '_ {
        self.edge_ids(i)
            .filter(|(l, _)| self.csr.kind(*l) & K_STEP != 0)
            .map(|(l, j)| (self.label(l), j))
    }

    /// Whether state `i` discards channel `a`.
    pub fn state_discards(&self, i: usize, a: Name) -> bool {
        self.discarding[i].contains(a)
    }

    /// Whether any label of this graph is a bound (extruding) output.
    /// The compositional engine of [`crate::compose`] cannot push a
    /// restriction over a synchronized product, so scope extrusion in
    /// any component forces the monolithic fallback.
    pub fn has_bound_output_labels(&self) -> bool {
        self.csr
            .labels()
            .iter()
            .any(|a| !a.bound_names().is_empty())
    }

    /// Whether every state of this graph either discards or *visibly*
    /// listens on every pool channel — i.e. has no "silent blocker": a
    /// state that neither discards `a` nor carries any input edge on `a`
    /// (an inner parallel component listening at a different arity than
    /// its sibling, rule (12) with an empty receive set). Such a state
    /// blocks broadcasts on `a` while being labelled-bisimilar to one
    /// that discards them, so the quotient step of the compositional
    /// engine is only sound when this holds.
    pub fn covers_pool(&self) -> bool {
        (0..self.len()).all(|i| {
            let mut heard = NameSet::new();
            for (act, _) in self.input_edges(i) {
                heard.insert(act.subject().expect("input labels have a subject"));
            }
            self.pool
                .iter()
                .all(|&a| heard.contains(a) || self.state_discards(i, a))
        })
    }

    /// τ-closure of `i` (including `i`), as a sorted set. Computed once
    /// per state and shared.
    pub fn tau_closure(&self, i: usize) -> Arc<BTreeSet<usize>> {
        self.caches.tau_closure[i]
            .get_or_init(|| Arc::new(self.closure(i, K_TAU)))
            .clone()
    }

    /// Step-closure of `i` (τ and outputs), including `i`. Cached.
    pub fn step_closure(&self, i: usize) -> Arc<BTreeSet<usize>> {
        self.caches.step_closure[i]
            .get_or_init(|| Arc::new(self.closure(i, K_STEP)))
            .clone()
    }

    /// The closure of `i` under the edges whose kind is in `mask`,
    /// counted into `equiv.graph.closure_entries`.
    fn closure(&self, i: usize, mask: u8) -> BTreeSet<usize> {
        let mut seen = BTreeSet::from([i]);
        let mut work = vec![i];
        while let Some(k) = work.pop() {
            for e in self.csr.range(k) {
                if self.csr.kinds[self.csr.edge_labels[e] as usize] & mask != 0 {
                    let j = self.csr.edge_targets[e] as usize;
                    if seen.insert(j) {
                        work.push(j);
                    }
                }
            }
        }
        CLOSURE_ENTRIES.add(seen.len() as u64);
        seen
    }

    /// This graph quotiented by branching bisimilarity
    /// ([`crate::partition::quotient_branching`]), computed on first use
    /// and kept with the graph, so every weak check over a memoized
    /// graph pays for it once.
    pub fn branching_quotient(&self) -> Arc<Graph> {
        self.caches
            .branching
            .get_or_init(|| Arc::new(crate::partition::quotient_branching(self)))
            .clone()
    }

    /// Strong barbs of state `i`: subjects of its output edges. Cached.
    pub fn strong_barbs(&self, i: usize) -> NameSet {
        self.caches.strong_barbs[i]
            .get_or_init(|| NameSet::from_iter(self.out_edges(i).filter_map(|(a, _)| a.subject())))
            .clone()
    }

    /// Weak barbs of state `i`. Cached.
    pub fn weak_barbs(&self, i: usize) -> NameSet {
        self.caches.weak_barbs[i]
            .get_or_init(|| {
                let mut s = NameSet::new();
                for &j in self.tau_closure(i).iter() {
                    s.extend(&self.strong_barbs(j));
                }
                s
            })
            .clone()
    }

    /// Weak step-barbs of state `i` (`⇓ₐ^φ`). Cached.
    pub fn weak_step_barbs(&self, i: usize) -> NameSet {
        self.caches.weak_step_barbs[i]
            .get_or_init(|| {
                let mut s = NameSet::new();
                for &j in self.step_closure(i).iter() {
                    s.extend(&self.strong_barbs(j));
                }
                s
            })
            .clone()
    }

    /// Weak moves `i ⇒ —α→ ⇒` for a specific non-τ label. Cached per
    /// *(state, label id)* in a dense slab; a label that never occurs in
    /// this graph answers the shared empty set without caching anything.
    pub fn weak_label(&self, i: usize, label: &Action) -> Arc<BTreeSet<usize>> {
        match self.csr.label_id(label) {
            Some(lid) => self.weak_label_id(i, lid),
            None => EMPTY_STATES.clone(),
        }
    }

    /// [`Graph::weak_label`] by interned label id (the refiner hot path).
    pub fn weak_label_id(&self, i: usize, lid: u32) -> Arc<BTreeSet<usize>> {
        self.caches
            .weak_label
            .get_or_init(i * self.csr.num_labels() + lid as usize, || {
                let mut out = BTreeSet::new();
                for &j in self.tau_closure(i).iter() {
                    for e in self.csr.range(j) {
                        if self.csr.edge_labels[e] == lid {
                            out.extend(
                                self.tau_closure(self.csr.edge_targets[e] as usize)
                                    .iter()
                                    .copied(),
                            );
                        }
                    }
                }
                Arc::new(out)
            })
    }

    /// Weak discard set: states `j'` with `i ⇒ j₁ —a:→ j₁ ⇒ j'` — i.e.
    /// τ-reachable continuations of τ-reachable states that discard `a`.
    /// Cached per *(state, channel id)*; channels outside the table are
    /// discarded by no state.
    pub fn weak_discard(&self, i: usize, a: Name) -> Arc<BTreeSet<usize>> {
        let Some(cid) = self.csr.chan_id(a) else {
            return EMPTY_STATES.clone();
        };
        self.caches
            .weak_discard
            .get_or_init(i * self.csr.num_chans() + cid as usize, || {
                let mut out = BTreeSet::new();
                for &j in self.tau_closure(i).iter() {
                    if self.state_discards(j, a) {
                        out.extend(self.tau_closure(j).iter().copied());
                    }
                }
                Arc::new(out)
            })
    }

    /// All input labels on channel `a` reachable in the τ-closure of `i`
    /// (used when matching discard moves weakly). Cached per
    /// *(state, channel id)*.
    pub fn weak_input_labels(&self, i: usize, a: Name) -> Arc<BTreeSet<Action>> {
        let Some(cid) = self.csr.chan_id(a) else {
            return EMPTY_ACTIONS.clone();
        };
        self.caches
            .weak_input_labels
            .get_or_init(i * self.csr.num_chans() + cid as usize, || {
                let mut out = BTreeSet::new();
                for &j in self.tau_closure(i).iter() {
                    for e in self.csr.range(j) {
                        let lid = self.csr.edge_labels[e] as usize;
                        if self.csr.kinds[lid] & K_IN != 0 && self.csr.label_chan[lid] == cid {
                            out.insert(self.csr.labels[lid].clone());
                        }
                    }
                }
                Arc::new(out)
            })
    }

    /// The arities at which any state of the graph listens on `a`.
    /// Cached per channel id — and computed from the interned label
    /// table alone (a label occurs there iff it occurs on some edge), so
    /// even the cold path never walks the edges.
    pub fn arities_on(&self, a: Name) -> Arc<BTreeSet<usize>> {
        let Some(cid) = self.csr.chan_id(a) else {
            return EMPTY_STATES.clone();
        };
        self.caches.arities_on.get_or_init(cid as usize, || {
            let mut out = BTreeSet::new();
            for lid in 0..self.csr.num_labels() {
                if self.csr.kinds[lid] & K_IN != 0 && self.csr.label_chan[lid] == cid {
                    out.insert(self.csr.label_arity[lid] as usize);
                }
            }
            Arc::new(out)
        })
    }

    /// Dependency sets shared by the refiners: `deps[x]` is the
    /// set of states whose transfer check can reference state `x`. For
    /// the strong variants that is the direct predecessors plus the
    /// diagonal (input-or-discard self-moves); for the weak variants the
    /// match sets are τ-closures, so it is the inverse *transitive*
    /// reachability over all edges. Computed once per graph and cached —
    /// the weak sets in particular are a whole-graph BFS per state, and
    /// recomputing them on every refine call was the BENCH_5
    /// `scaled-sums/weak-labelled` 0.91× regression.
    pub(crate) fn dependents(&self, weak: bool) -> Arc<Vec<Vec<usize>>> {
        let slot = if weak {
            &self.caches.deps_weak
        } else {
            &self.caches.deps_strong
        };
        slot.get_or_init(|| {
            let n = self.len();
            let deps = (0..n)
                .map(|x| {
                    let mut seen = BTreeSet::from([x]);
                    if weak {
                        let mut work = vec![x];
                        while let Some(k) = work.pop() {
                            for &(_, p) in self.csr.preds_of(k) {
                                if seen.insert(p as usize) {
                                    work.push(p as usize);
                                }
                            }
                        }
                    } else {
                        seen.extend(self.csr.preds_of(x).iter().map(|&(_, p)| p as usize));
                    }
                    seen.into_iter().collect()
                })
                .collect();
            Arc::new(deps)
        })
        .clone()
    }
}

/// Enumerates the collapsing substitutions induced by all partitions of
/// `names` (each equivalence class is mapped to its least element). By
/// Lemma 17.1 + Lemma 18 these finitely many substitutions suffice to
/// decide the ∀σ quantification of `~c` (Definition 11).
pub fn identification_substs(names: &NameSet) -> Vec<Subst> {
    let names: Vec<Name> = names.to_vec();
    let mut out = Vec::new();
    // Enumerate set partitions via restricted growth strings.
    fn go(names: &[Name], assignment: &mut Vec<usize>, max_block: usize, out: &mut Vec<Subst>) {
        if assignment.len() == names.len() {
            let mut blocks: BTreeMap<usize, Vec<Name>> = BTreeMap::new();
            for (idx, &b) in assignment.iter().enumerate() {
                blocks.entry(b).or_default().push(names[idx]);
            }
            let mut s = Subst::identity();
            for block in blocks.values() {
                let rep = block[0];
                for &n in &block[1..] {
                    s.bind(n, rep);
                }
            }
            out.push(s);
            return;
        }
        for b in 0..=max_block {
            assignment.push(b);
            go(
                names,
                assignment,
                max_block.max(b + 1).min(names.len()),
                out,
            );
            assignment.pop();
        }
    }
    if names.is_empty() {
        return vec![Subst::identity()];
    }
    go(&names, &mut Vec::new(), 0, &mut out);
    out
}

/// The input tuple space of a channel over a pool, for a set of arities.
pub fn label_space(pool: &[Name], arities: &BTreeSet<usize>) -> Vec<Vec<Name>> {
    let mut out = Vec::new();
    for &n in arities {
        out.extend(tuples(pool, n));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpi_core::builder::*;

    #[test]
    fn graph_of_simple_output() {
        let defs = Defs::new();
        let [a, v] = names(["a", "v"]);
        let p = out_(a, [v]);
        let q = nil();
        let pool = shared_pool(&p, &q, 1);
        let g = Graph::build(&p, &defs, &pool, Opts::default()).unwrap();
        assert_eq!(g.len(), 2);
        assert_eq!(g.out_edges(0).count(), 1);
        assert!(g.state_discards(0, a), "output prefixes discard");
    }

    #[test]
    fn input_edges_cover_pool() {
        let defs = Defs::new();
        let [a, x] = names(["a", "x"]);
        let p = inp(a, [x], out_(x, []));
        let pool = shared_pool(&p, &nil(), 1); // {a} + one fresh
        let g = Graph::build(&p, &defs, &pool, Opts::default()).unwrap();
        assert_eq!(g.input_edges(0).count(), 2);
        assert!(!g.state_discards(0, a));
    }

    #[test]
    fn bound_outputs_are_normalised() {
        let defs = Defs::new();
        let [a, x] = names(["a", "x"]);
        let p = new(x, out(a, [x], out_(x, [])));
        let pool = shared_pool(&p, &nil(), 1);
        let g = Graph::build(&p, &defs, &pool, Opts::default()).unwrap();
        let (act, _) = g.out_edges(0).next().unwrap();
        assert_eq!(act.bound_names().len(), 1);
        assert_eq!(act.bound_names()[0].spelling(), "#b0");
        // Re-building yields the identical label: determinism.
        let g2 = Graph::build(&p, &defs, &pool, Opts::default()).unwrap();
        let (act2, _) = g2.out_edges(0).next().unwrap();
        assert_eq!(act, act2);
    }

    #[test]
    fn extrusion_recursion_has_finite_graph() {
        // (rec X(a). νt āt.X⟨a⟩)⟨a⟩: with normalised bound outputs the
        // graph is finite.
        let defs = Defs::new();
        let [a, t] = names(["a", "t"]);
        let xid = bpi_core::syntax::Ident::new("GExtr");
        let p = rec(xid, [a], new(t, out(a, [t], var(xid, [a]))), [a]);
        let pool = shared_pool(&p, &nil(), 1);
        let g = Graph::build(&p, &defs, &pool, Opts::default()).unwrap();
        assert_eq!(g.len(), 1, "states: {:?}", g.states);
    }

    #[test]
    fn closures_and_barbs() {
        let defs = Defs::new();
        let [a, b] = names(["a", "b"]);
        let p = sum(tau(out_(a, [])), out_(b, []));
        let pool = shared_pool(&p, &nil(), 0);
        let g = Graph::build(&p, &defs, &pool, Opts::default()).unwrap();
        assert_eq!(g.strong_barbs(0).to_vec(), vec![b]);
        assert_eq!(g.weak_barbs(0).to_vec(), vec![a, b]);
        assert_eq!(g.tau_closure(0).len(), 2);
    }

    #[test]
    fn identification_substs_enumerate_partitions() {
        let [a, b, c] = names(["a", "b", "c"]);
        let subs = identification_substs(&NameSet::from_iter([a, b, c]));
        assert_eq!(subs.len(), 5, "Bell(3) = 5");
        assert!(subs.iter().any(|s| s.is_identity()));
        // The all-identified substitution maps b and c to a.
        assert!(subs.iter().any(|s| s.apply(b) == a && s.apply(c) == a));
    }

    #[test]
    fn build_exhaustion_is_typed_not_a_panic() {
        // GPump(a) = τ.(ā ‖ GPump⟨a⟩) grows without bound; both the
        // opts ceiling and an explicit Budget must surface as Err.
        let defs = Defs::new();
        let [a] = names(["a"]);
        let xid = bpi_core::syntax::Ident::new("GPump");
        let p = rec(xid, [a], tau(par(out_(a, []), var(xid, [a]))), [a]);
        let pool = shared_pool(&p, &nil(), 1);
        let small = Opts {
            max_states: 6,
            fresh_inputs: 1,
        };
        assert_eq!(
            Graph::build(&p, &defs, &pool, small).err(),
            Some(EngineError::StateBudgetExceeded { limit: 6 })
        );
        assert_eq!(
            Graph::build_with_budget(&p, &defs, &pool, Opts::default(), &Budget::states(3)).err(),
            Some(EngineError::StateBudgetExceeded { limit: 3 })
        );
        // A generous ceiling on a finite system still succeeds.
        let q = out_(a, []);
        assert!(
            Graph::build_with_budget(&q, &defs, &pool, Opts::default(), &Budget::states(100))
                .is_ok()
        );
    }

    #[test]
    fn csr_mirrors_the_build_loops_edges() {
        let defs = Defs::new();
        let [a, x] = names(["a", "x"]);
        let p = par(inp(a, [x], out_(x, [])), out_(a, [a]));
        let pool = shared_pool(&p, &nil(), 1);
        let g = Graph::build(&p, &defs, &pool, Opts::default()).unwrap();
        let csr = g.csr();
        let flat = |i: usize| -> Vec<(Action, usize)> {
            g.edge_ids(i)
                .map(|(l, j)| (g.label(l).clone(), j))
                .collect()
        };
        // Stopped after each expansion, the build loop hands back its
        // committed edges; the frozen graph must list the same ones.
        // Every state but the last is committed at some stop: the last
        // one's expansion completes the build.
        let mut checked = BTreeSet::new();
        for fuel in 0.. {
            let cfg = CheckpointCfg::fuelled(fuel);
            let seed = GraphCheckpoint::seed(&p, &pool);
            let unlimited = Budget::unlimited();
            let Err(stop) =
                Graph::continue_checkpointed(seed, &defs, Opts::default(), &unlimited, &cfg)
            else {
                break;
            };
            let ck = stop.checkpoint;
            for i in (0..ck.states.len()).filter(|i| !ck.pending.contains(i)) {
                assert_eq!(flat(i), ck.edges[i], "state {i} after {fuel} expansions");
                checked.insert(i);
            }
        }
        assert_eq!(checked.len(), g.len() - 1);
        // Predecessor index inverts the edge relation exactly.
        let mut from_preds: Vec<(usize, Action, usize)> = Vec::new();
        for t in 0..g.len() {
            for &(lid, src) in csr.preds_of(t) {
                from_preds.push((src as usize, g.label(lid).clone(), t));
            }
        }
        let mut from_edges: Vec<(usize, Action, usize)> = Vec::new();
        for i in 0..g.len() {
            for (act, j) in flat(i) {
                from_edges.push((i, act, j));
            }
        }
        assert_eq!(csr.num_edges(), from_edges.len());
        from_preds.sort();
        from_edges.sort();
        assert_eq!(from_preds, from_edges);
        // Per-label predecessor ranges partition each block.
        for t in 0..g.len() {
            let total: usize = (0..csr.num_labels() as u32)
                .map(|lid| csr.preds_of_label(t, lid).len())
                .sum();
            assert_eq!(total, csr.preds_of(t).len());
        }
    }

    #[test]
    fn unknown_labels_and_channels_answer_empty() {
        let defs = Defs::new();
        let [a, zz] = names(["a", "zz"]);
        let p = out_(a, []);
        let pool = shared_pool(&p, &nil(), 1);
        let g = Graph::build(&p, &defs, &pool, Opts::default()).unwrap();
        assert!(g.csr().chan_id(zz).is_none());
        assert!(g.weak_discard(0, zz).is_empty());
        assert!(g.weak_input_labels(0, zz).is_empty());
        assert!(g.arities_on(zz).is_empty());
        let alien = Action::Output {
            chan: zz,
            objects: vec![],
            bound: vec![],
        };
        assert!(g.csr().label_id(&alien).is_none());
        assert!(g.weak_label(0, &alien).is_empty());
    }

    #[test]
    fn weak_discard_traverses_taus() {
        let defs = Defs::new();
        let [a, x] = names(["a", "x"]);
        // a(x).nil + τ.nil : can weakly discard a by taking the τ.
        let p = sum(inp_(a, [x]), tau_());
        let pool = shared_pool(&p, &nil(), 1);
        let g = Graph::build(&p, &defs, &pool, Opts::default()).unwrap();
        assert!(!g.state_discards(0, a));
        assert!(!g.weak_discard(0, a).is_empty());
    }
}
