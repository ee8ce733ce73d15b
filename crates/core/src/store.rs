//! Hash-consed term store.
//!
//! A global **weak interner** for process terms: structurally equal terms
//! (up to syntactic equality — α-variants stay distinct; see
//! [`Consed::canon`]) share one [`ConsCell`].
//!
//! Interning is **bottom-up**. A node is consed after its children, hashed
//! from its own label and its children's cell hashes, and stored over the
//! children's canonical allocations; the cell holds its children's cells
//! strongly. So every subterm of a consed term is itself consed, a live
//! class keeps the classes of all its subterms live, re-consing a subterm
//! of a consed term is a pointer probe, and the bucket equality check
//! compares one node's label and its children by pointer. Consing a term
//! costs its nodes that are not consed yet, not its size.
//!
//! Each cell carries facts built from its children's when it is created:
//! the free names (a child's own set when the node adds no new name and
//! binds none that is free, as every τ prefix), whether the term binds
//! any name, and whether [`prune`](crate::prune) leaves it alone.
//! With those, [`Consed::canon`] and [`Consed::normal_form`] hand back an
//! already-normal term as it is and otherwise rebuild only the nodes that
//! change; both results are cached in the cell. The plain walks
//! ([`crate::canon()`], [`crate::prune`], [`Process::free_names`]) are
//! untouched and remain the oracles the cached views are tested against.
//!
//! The interner holds only [`std::sync::Weak`] references: dropping every
//! handle for a term (including the cells of terms that contain it)
//! releases its memory, and stale entries are swept a few at a time as
//! new ones arrive. The pointer probe is sound because a
//! successful `Weak::upgrade` of the original allocation proves it is
//! still alive, hence its address has not been reused.

use crate::canon::Canonizer;
use crate::name::{Name, NameSet};
use crate::syntax::{Prefix, Process, RecDef, P};
use parking_lot::RwLock;
use std::collections::hash_map::{Entry, RandomState};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, OnceLock, Weak};

/// A unique, run-global identity for a consed term: two `Consed` handles
/// have equal `TermId`s iff their terms are structurally equal.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TermId(pub u64);

/// The cells of a node's children, in syntax order (the continuation of
/// `π.p`, `νx p` and a `rec` body; both branches of `+`, `‖` and a match).
type Kids = [Option<Arc<ConsCell>>; 2];

/// The shared node for one equivalence class of structurally equal terms.
pub struct ConsCell {
    /// The canonical allocation: its children are the `kids`' terms.
    term: P,
    kids: Kids,
    id: TermId,
    hash: u64,
    free: Arc<NameSet>,
    /// The term contains a binder (`νx`, a non-empty input or `rec`
    /// parameter list); without one it is its own α-canonical form.
    binders: bool,
    /// `prune(term) == term`.
    pruned: bool,
    /// The α-canonical form; `None` when it is this cell itself (a strong
    /// self-reference would never be freed).
    canon: OnceLock<Option<Arc<ConsCell>>>,
    /// `canon(prune(term))`, filled only for cells that are not pruned
    /// (and so never this cell).
    norm: OnceLock<Arc<ConsCell>>,
}

impl ConsCell {
    fn kid(&self, i: usize) -> &Arc<ConsCell> {
        self.kids[i]
            .as_ref()
            .expect("the node has this child: kids mirror the term")
    }

    fn is_nil(&self) -> bool {
        matches!(*self.term, Process::Nil)
    }
}

/// A handle to a hash-consed term. Cheap to clone; equality, ordering and
/// hashing are O(1) on the precomputed id/hash.
#[derive(Clone)]
pub struct Consed {
    cell: Arc<ConsCell>,
}

impl Consed {
    /// The unique id of this term's equivalence class.
    pub fn id(&self) -> TermId {
        self.cell.id
    }

    /// The precomputed structural hash.
    pub fn hash64(&self) -> u64 {
        self.cell.hash
    }

    /// The canonical shared allocation for this term. Re-consing this
    /// handle is a pointer-map probe, so callers that keep terms around
    /// should swap their own `P` for this one.
    pub fn term(&self) -> &P {
        &self.cell.term
    }

    /// Free names, built once per class from the children's sets.
    pub fn free_names(&self) -> &NameSet {
        &self.cell.free
    }

    /// The α-canonical form, computed once per equivalence class.
    /// `a.canon()` ptr-equal / structurally equal to `b.canon()` iff the
    /// two terms are α-equivalent.
    pub fn canon(&self) -> &P {
        &canon_of(&self.cell).term
    }

    /// The state normal form `canon(prune(term))`, as a consed handle:
    /// this term itself when it is already normal, otherwise computed
    /// once per class by rebuilding only the nodes that change.
    pub fn normal_form(&self) -> Consed {
        Consed {
            cell: normal_of(&self.cell).clone(),
        }
    }

    /// The consed children, in syntax order (see [`Kids`]): the terms
    /// the canonical allocation sits over, without a store probe.
    pub(crate) fn kids(&self) -> impl DoubleEndedIterator<Item = Consed> + '_ {
        self.cell
            .kids
            .iter()
            .flatten()
            .map(|cell| Consed { cell: cell.clone() })
    }
}

impl PartialEq for Consed {
    fn eq(&self, other: &Consed) -> bool {
        self.cell.id == other.cell.id
    }
}
impl Eq for Consed {}
impl Hash for Consed {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.cell.hash);
    }
}
impl PartialOrd for Consed {
    fn partial_cmp(&self, other: &Consed) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Consed {
    fn cmp(&self, other: &Consed) -> std::cmp::Ordering {
        self.cell.id.cmp(&other.cell.id)
    }
}
impl std::fmt::Debug for Consed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Consed#{}({:?})", self.cell.id.0, self.cell.term)
    }
}

/// A key of one of the store's two tables.
#[derive(Clone, Copy)]
enum Key {
    Bucket(u64),
    Ptr(usize),
}

struct Store {
    /// Node-hash buckets of live-or-stale cells.
    buckets: HashMap<u64, Vec<Weak<ConsCell>>>,
    /// Pointer fast path: allocation address → (allocation witness, cell).
    /// The witness `Weak<Process>` upgrading successfully proves the keyed
    /// address still belongs to the original allocation.
    by_ptr: HashMap<usize, (Weak<Process>, Weak<ConsCell>)>,
    /// Every key of both tables once, oldest first. Each new key re-checks
    /// the two oldest, dropping stale entries and requeueing live ones, so
    /// stale entries are bounded by the live ones and no insertion pays
    /// for a sweep of the whole store.
    sweep: VecDeque<Key>,
    next_id: u64,
}

impl Store {
    fn by_ptr(&self, p: &P) -> Option<Arc<ConsCell>> {
        let (witness, cell) = self.by_ptr.get(&(Arc::as_ptr(p) as usize))?;
        let (w, cell) = (witness.upgrade()?, cell.upgrade()?);
        Arc::ptr_eq(&w, p).then_some(cell)
    }

    /// The live cell with `p`'s label over the children `kids`.
    fn probe(&self, hash: u64, p: &Process, kids: &Kids) -> Option<Arc<ConsCell>> {
        self.buckets.get(&hash)?.iter().find_map(|w| {
            let cell = w.upgrade()?;
            let same_kids = cell
                .kids
                .iter()
                .zip(kids)
                .all(|(a, b)| same_arc(a.as_ref(), b.as_ref()));
            (same_kids && same_label(&cell.term, p)).then_some(cell)
        })
    }

    fn insert(&mut self, hash: u64, cell: &Arc<ConsCell>) {
        match self.buckets.entry(hash) {
            Entry::Occupied(mut e) => {
                e.get_mut().retain(|w| w.strong_count() > 0);
                e.get_mut().push(Arc::downgrade(cell));
            }
            Entry::Vacant(e) => {
                e.insert(vec![Arc::downgrade(cell)]);
                self.track(Key::Bucket(hash));
            }
        }
    }

    fn remember(&mut self, p: &P, cell: &Arc<ConsCell>) {
        let key = Arc::as_ptr(p) as usize;
        let entry = (Arc::downgrade(p), Arc::downgrade(cell));
        if self.by_ptr.insert(key, entry).is_none() {
            self.track(Key::Ptr(key));
        }
    }

    fn track(&mut self, key: Key) {
        self.sweep.push_back(key);
        for _ in 0..2 {
            let Some(k) = self.sweep.pop_front() else {
                return;
            };
            if self.still_live(k) {
                self.sweep.push_back(k);
            }
        }
    }

    /// Drops the stale entries under `k`; whether a live one remains.
    fn still_live(&mut self, k: Key) -> bool {
        match k {
            Key::Bucket(h) => {
                let Some(b) = self.buckets.get_mut(&h) else {
                    return false;
                };
                b.retain(|w| w.strong_count() > 0);
                if b.is_empty() {
                    self.buckets.remove(&h);
                    return false;
                }
                true
            }
            Key::Ptr(a) => {
                let Some((w, c)) = self.by_ptr.get(&a) else {
                    return false;
                };
                if w.strong_count() > 0 && c.strong_count() > 0 {
                    return true;
                }
                self.by_ptr.remove(&a);
                false
            }
        }
    }
}

static STORE: LazyLock<RwLock<Store>> = LazyLock::new(|| {
    RwLock::new(Store {
        buckets: HashMap::new(),
        by_ptr: HashMap::new(),
        sweep: VecDeque::new(),
        next_id: 0,
    })
});

static PTR_HITS: AtomicU64 = AtomicU64::new(0);
static HASH_HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

/// Interner counters `(pointer_hits, hash_hits, misses)` since process
/// start, one per node the interner visits: a node found by its
/// allocation, a node found by its label and children, or a new cell.
/// Consing an already-consed term counts one pointer hit; a term with
/// `k` new nodes counts `k` misses.
pub fn store_stats() -> (u64, u64, u64) {
    (
        PTR_HITS.load(Ordering::Relaxed),
        HASH_HITS.load(Ordering::Relaxed),
        MISSES.load(Ordering::Relaxed),
    )
}

/// The children of a node, in the order of [`Kids`].
fn children(p: &Process) -> [Option<&P>; 2] {
    match p {
        Process::Nil | Process::Call(..) | Process::Var(..) => [None, None],
        Process::Act(_, k) | Process::New(_, k) => [Some(k), None],
        Process::Rec(def, _) => [Some(&def.body), None],
        Process::Sum(l, r) | Process::Par(l, r) | Process::Match(_, _, l, r) => [Some(l), Some(r)],
    }
}

/// Equality of everything in a node but its children.
fn same_label(a: &Process, b: &Process) -> bool {
    match (a, b) {
        (Process::Nil, Process::Nil)
        | (Process::Sum(..), Process::Sum(..))
        | (Process::Par(..), Process::Par(..)) => true,
        (Process::Act(x, _), Process::Act(y, _)) => x == y,
        (Process::New(x, _), Process::New(y, _)) => x == y,
        (Process::Match(x1, y1, ..), Process::Match(x2, y2, ..)) => x1 == x2 && y1 == y2,
        (Process::Call(i, xs), Process::Call(j, ys))
        | (Process::Var(i, xs), Process::Var(j, ys)) => i == j && xs == ys,
        (Process::Rec(d, xs), Process::Rec(e, ys)) => {
            d.ident == e.ident && d.params == e.params && xs == ys
        }
        _ => false,
    }
}

/// Both absent, or both the same allocation.
fn same_arc<T>(a: Option<&Arc<T>>, b: Option<&Arc<T>>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => Arc::ptr_eq(a, b),
        (a, b) => a.is_none() && b.is_none(),
    }
}

/// `a` and `b` are the same node over the same child allocations.
fn same_node(a: &Process, b: &Process) -> bool {
    let ([a0, a1], [b0, b1]) = (children(a), children(b));
    same_label(a, b) && same_arc(a0, b0) && same_arc(a1, b1)
}

static NODE_KEYS: LazyLock<RandomState> = LazyLock::new(RandomState::new);

fn node_hash(p: &Process, kids: &Kids) -> u64 {
    let mut h = NODE_KEYS.build_hasher();
    std::mem::discriminant(p).hash(&mut h);
    match p {
        Process::Nil | Process::Sum(..) | Process::Par(..) => {}
        Process::Act(pre, _) => pre.hash(&mut h),
        Process::New(x, _) => x.hash(&mut h),
        Process::Match(x, y, ..) => (x, y).hash(&mut h),
        Process::Call(id, args) | Process::Var(id, args) => (id, args).hash(&mut h),
        Process::Rec(def, args) => (def.ident, &def.params, args).hash(&mut h),
    }
    for k in kids.iter().flatten() {
        h.write_u64(k.hash);
    }
    h.finish()
}

/// `p`'s children are the `kids`' canonical allocations.
fn sits_over(p: &Process, kids: &Kids) -> bool {
    children(p)
        .into_iter()
        .zip(kids)
        .all(|(c, k)| same_arc(c, k.as_ref().map(|k| &k.term)))
}

/// `p`'s label over the children `kids`' canonical allocations (`p`
/// itself when its children already are).
fn over_kids(p: &P, kids: &Kids) -> P {
    if sits_over(p, kids) {
        return p.clone();
    }
    let kid = |i: usize| {
        kids[i]
            .as_ref()
            .expect("the node has this child")
            .term
            .clone()
    };
    match &**p {
        Process::Nil | Process::Call(..) | Process::Var(..) => return p.clone(),
        Process::Act(pre, _) => Process::Act(pre.clone(), kid(0)),
        Process::New(x, _) => Process::New(*x, kid(0)),
        Process::Rec(def, args) => Process::Rec(
            RecDef {
                ident: def.ident,
                params: def.params.clone(),
                body: kid(0),
            },
            args.clone(),
        ),
        Process::Sum(..) => Process::Sum(kid(0), kid(1)),
        Process::Par(..) => Process::Par(kid(0), kid(1)),
        Process::Match(x, y, ..) => Process::Match(*x, *y, kid(0), kid(1)),
    }
    .rc()
}

/// `(base \ removed) ∪ added`: `base` itself when that leaves it unchanged.
fn adjust(base: &Arc<NameSet>, removed: &[Name], added: &[Name]) -> Arc<NameSet> {
    if removed
        .iter()
        .all(|&n| added.contains(&n) || !base.contains(n))
        && added.iter().all(|&n| base.contains(n))
    {
        return base.clone();
    }
    let mut s = NameSet::clone(base);
    for &n in removed {
        s.remove(n);
    }
    for &n in added {
        s.insert(n);
    }
    Arc::new(s)
}

/// `l ∪ r`, sharing whichever side holds the other.
fn union(l: &Arc<NameSet>, r: &Arc<NameSet>) -> Arc<NameSet> {
    let (big, small) = if l.len() >= r.len() { (l, r) } else { (r, l) };
    if small.iter().all(|n| big.contains(n)) {
        return big.clone();
    }
    Arc::new(big.union(small))
}

/// The cell of `term` (a node over `kids`' allocations), its facts built
/// from the children's exactly as the plain walks define them.
fn new_cell(term: P, kids: Kids, id: TermId, hash: u64) -> ConsCell {
    debug_assert!(
        sits_over(&term, &kids),
        "a cell's term must sit over its children's canonical allocations"
    );
    let k = |i: usize| kids[i].as_ref().expect("the node has this child");
    let kids_pruned = kids.iter().flatten().all(|c| c.pruned);
    let kids_bind = kids.iter().flatten().any(|c| c.binders);
    let (free, binds, pruned) = match &*term {
        Process::Nil => (Arc::default(), false, true),
        Process::Call(_, args) | Process::Var(_, args) => {
            (adjust(&Arc::default(), &[], args), false, true)
        }
        Process::Act(pre, _) => {
            let free = match pre {
                Prefix::Tau => k(0).free.clone(),
                Prefix::Output(a, ys) => {
                    let mut added = ys.clone();
                    added.push(*a);
                    adjust(&k(0).free, &[], &added)
                }
                Prefix::Input(a, xs) => adjust(&k(0).free, xs, &[*a]),
            };
            let binds = matches!(pre, Prefix::Input(_, xs) if !xs.is_empty());
            (free, binds, kids_pruned)
        }
        Process::New(x, _) => {
            let live = !k(0).is_nil() && k(0).free.contains(*x);
            (adjust(&k(0).free, &[*x], &[]), true, kids_pruned && live)
        }
        // `prune` leaves recursion bodies alone.
        Process::Rec(def, args) => (
            adjust(&k(0).free, &def.params, args),
            !def.params.is_empty(),
            true,
        ),
        Process::Sum(..) | Process::Par(..) => (
            union(&k(0).free, &k(1).free),
            false,
            kids_pruned && !k(0).is_nil() && !k(1).is_nil(),
        ),
        Process::Match(x, y, ..) => (
            adjust(&union(&k(0).free, &k(1).free), &[], &[*x, *y]),
            false,
            kids_pruned && !(k(0).is_nil() && k(1).is_nil()),
        ),
    };
    ConsCell {
        term,
        kids,
        id,
        hash,
        free,
        binders: binds || kids_bind,
        pruned,
        canon: OnceLock::new(),
        norm: OnceLock::new(),
    }
}

/// Interns `p` into the global store, returning its consed handle.
///
/// Per node, fastest first:
/// 1. **pointer probe** — this exact allocation was consed before;
/// 2. **hash probe** — after its children, an equal node is live;
/// 3. **miss** — a fresh cell with a new [`TermId`].
///
/// The pointer table learns each new cell's term and `p` itself, so
/// re-consing `p` or a consed term is one probe.
pub fn cons(p: &P) -> Consed {
    Consed {
        cell: intern(p, true),
    }
}

/// `root` is the caller's own term. Below it, a node found by its hash is
/// not remembered by address: the inner nodes of a copy die with it.
fn intern(p: &P, root: bool) -> Arc<ConsCell> {
    if let Some(cell) = STORE.read().by_ptr(p) {
        PTR_HITS.fetch_add(1, Ordering::Relaxed);
        return cell;
    }
    let kids: Kids = children(p).map(|k| k.map(|k| intern(k, false)));
    let hash = node_hash(p, &kids);
    if !root {
        if let Some(cell) = STORE.read().probe(hash, p, &kids) {
            HASH_HITS.fetch_add(1, Ordering::Relaxed);
            return cell;
        }
    }
    let mut g = STORE.write();
    if let Some(cell) = g.probe(hash, p, &kids) {
        HASH_HITS.fetch_add(1, Ordering::Relaxed);
        if root {
            g.remember(p, &cell);
        }
        return cell;
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    let id = TermId(g.next_id);
    g.next_id += 1;
    let cell = Arc::new(new_cell(over_kids(p, &kids), kids, id, hash));
    g.insert(hash, &cell);
    g.remember(&cell.term, &cell);
    if root && !Arc::ptr_eq(&cell.term, p) {
        g.remember(p, &cell);
    }
    cell
}

/// Interns a node built over consed children's allocations: its children
/// are pointer hits, and the node is kept only when it makes a new cell.
fn intern_node(node: Process) -> Arc<ConsCell> {
    intern(&node.rc(), false)
}

/// The cell of `canon(c.term)`.
fn canon_of(c: &Arc<ConsCell>) -> &Arc<ConsCell> {
    if !c.binders {
        return c;
    }
    let slot = c.canon.get_or_init(|| {
        let t = Canonizer::new(&c.free).go_cell(c);
        let cc = intern(&t, false);
        if Arc::ptr_eq(&cc, c) {
            return None;
        }
        // α-canonicalisation is idempotent.
        let _ = cc.canon.set(None);
        Some(cc)
    });
    slot.as_ref().unwrap_or(c)
}

/// The cell of `canon(prune(c.term))`.
fn normal_of(c: &Arc<ConsCell>) -> &Arc<ConsCell> {
    if c.pruned {
        return canon_of(c);
    }
    c.norm.get_or_init(|| canon_of(&pruned(c)).clone())
}

/// The cell of `prune(c.term)`: the same rewrites as [`crate::prune`],
/// descending only into children that are not pruned.
fn pruned(c: &Arc<ConsCell>) -> Arc<ConsCell> {
    if c.pruned {
        return c.clone();
    }
    let kid = |i: usize| pruned(c.kid(i));
    match &*c.term {
        Process::Act(pre, _) => intern_node(Process::Act(pre.clone(), kid(0).term.clone())),
        Process::Sum(..) | Process::Par(..) => {
            let (l, r) = (kid(0), kid(1));
            if l.is_nil() {
                return r;
            }
            if r.is_nil() {
                return l;
            }
            let (lt, rt) = (l.term.clone(), r.term.clone());
            intern_node(match &*c.term {
                Process::Sum(..) => Process::Sum(lt, rt),
                _ => Process::Par(lt, rt),
            })
        }
        Process::New(x, _) => {
            let k = kid(0);
            if k.is_nil() || !k.free.contains(*x) {
                return k;
            }
            intern_node(Process::New(*x, k.term.clone()))
        }
        Process::Match(x, y, ..) => {
            let (l, r) = (kid(0), kid(1));
            if l.is_nil() && r.is_nil() {
                return l;
            }
            intern_node(Process::Match(*x, *y, l.term.clone(), r.term.clone()))
        }
        Process::Nil | Process::Call(..) | Process::Var(..) | Process::Rec(..) => {
            unreachable!("leaves and recursions are always pruned")
        }
    }
}

/// [`crate::canon`]'s renaming, walking cells so that a subterm canon
/// would copy unchanged (no binders, no renamed free name) is returned
/// as it is, and a rebuilt node equal to the original is not allocated.
impl Canonizer {
    fn go_cell(&mut self, c: &Arc<ConsCell>) -> P {
        // A renaming that moves a name the subterm mentions changes it;
        // one shadowed by an identity binding only makes this test
        // conservative.
        if !c.binders
            && self
                .env
                .iter()
                .all(|&(from, to)| from == to || !c.free.contains(from))
        {
            return c.term.clone();
        }
        let node = match &*c.term {
            Process::Nil => return c.term.clone(),
            Process::Act(Prefix::Tau, _) => Process::Act(Prefix::Tau, self.go_cell(c.kid(0))),
            Process::Act(Prefix::Output(a, ys), _) => Process::Act(
                Prefix::Output(
                    self.lookup(*a),
                    ys.iter().map(|&y| self.lookup(y)).collect(),
                ),
                self.go_cell(c.kid(0)),
            ),
            Process::Act(Prefix::Input(a, xs), _) => {
                let subj = self.lookup(*a);
                self.with_binders(xs, |me, fresh| {
                    Process::Act(Prefix::Input(subj, fresh.to_vec()), me.go_cell(c.kid(0)))
                })
            }
            Process::Sum(..) => Process::Sum(self.go_cell(c.kid(0)), self.go_cell(c.kid(1))),
            Process::Par(..) => Process::Par(self.go_cell(c.kid(0)), self.go_cell(c.kid(1))),
            Process::New(x, _) => self.with_binders(std::slice::from_ref(x), |me, fresh| {
                Process::New(fresh[0], me.go_cell(c.kid(0)))
            }),
            Process::Match(x, y, ..) => Process::Match(
                self.lookup(*x),
                self.lookup(*y),
                self.go_cell(c.kid(0)),
                self.go_cell(c.kid(1)),
            ),
            Process::Call(id, args) => {
                Process::Call(*id, args.iter().map(|&a| self.lookup(a)).collect())
            }
            Process::Var(id, args) => {
                Process::Var(*id, args.iter().map(|&a| self.lookup(a)).collect())
            }
            Process::Rec(def, args) => {
                let args2: Vec<Name> = args.iter().map(|&a| self.lookup(a)).collect();
                self.with_binders(&def.params, |me, fresh| {
                    Process::Rec(
                        RecDef {
                            ident: def.ident,
                            params: fresh.to_vec(),
                            body: me.go_cell(c.kid(0)),
                        },
                        args2,
                    )
                })
            }
        };
        if same_node(&node, &c.term) {
            c.term.clone()
        } else {
            node.rc()
        }
    }
}

/// The [`TermId`] of `p` (consing it if needed).
///
/// **Stability caveat:** ids identify a *live* equivalence class. If every
/// [`Consed`] handle for the class is dropped, the interner's weak entry
/// dies and a later cons of an equal term mints a *fresh* id (ids are
/// never reused, so stale ids can dangle but never alias). Tables that key
/// by identity across time must hold the [`Consed`] handle itself — which
/// pins the class — not the bare id.
pub fn term_id(p: &P) -> TermId {
    cons(p).id()
}

/// `canon(p)` through the per-class cache: the tree walk happens once per
/// structurally distinct term per run (while any handle is live).
pub fn cached_canon(p: &P) -> P {
    let c = cons(p);
    c.canon().clone()
}

/// `p.free_names()` through the per-class cache.
pub fn cached_free_names(p: &P) -> NameSet {
    let c = cons(p);
    c.free_names().clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::canon::{alpha_eq, canon};
    use crate::name::Name;

    #[test]
    fn structurally_equal_terms_share_an_id() {
        let a = Name::new("a");
        let p1 = out(a, [], tau(nil()));
        let p2 = out(a, [], tau(nil()));
        assert!(!Arc::ptr_eq(&p1, &p2));
        let c1 = cons(&p1);
        let c2 = cons(&p2);
        assert_eq!(c1.id(), c2.id());
        assert_eq!(c1, c2);
        assert!(Arc::ptr_eq(c1.term(), c2.term()));
    }

    #[test]
    fn distinct_terms_get_distinct_ids() {
        let [a, b] = names(["a", "b"]);
        assert_ne!(term_id(&out_(a, [])), term_id(&out_(b, [])));
        assert_ne!(term_id(&tau(nil())), term_id(&nil()));
    }

    #[test]
    fn alpha_variants_are_distinct_but_share_canon() {
        let [a, x, y] = names(["a", "x", "y"]);
        let p = inp_(a, [x]);
        let q = inp_(a, [y]);
        let cp = cons(&p);
        let cq = cons(&q);
        assert_ne!(cp.id(), cq.id());
        assert_eq!(cp.canon(), cq.canon());
        assert!(alpha_eq(&p, &q));
    }

    #[test]
    fn cached_views_agree_with_fresh_computation() {
        let [a, b, x] = names(["a", "b", "x"]);
        let p = new(x, par(out(x, [b], nil()), inp_(a, [x])));
        assert_eq!(cached_canon(&p), canon(&p));
        assert_eq!(cached_free_names(&p), p.free_names());
        // Second read hits the OnceLock, same values.
        assert_eq!(cached_canon(&p), canon(&p));
        assert_eq!(cached_free_names(&p), p.free_names());
    }

    #[test]
    fn pointer_fast_path_hits_on_reconsing_same_allocation() {
        let a = Name::new("a");
        let p = tau(out_(a, []));
        let c1 = cons(&p);
        let (ptr_before, _, _) = store_stats();
        let c2 = cons(&p);
        let (ptr_after, _, _) = store_stats();
        assert_eq!(c1, c2);
        assert!(ptr_after > ptr_before, "second cons should be a ptr hit");
    }

    #[test]
    fn subterms_of_a_consed_term_are_consed() {
        let [a, x] = names(["a", "x"]);
        let p = tau(par(out_(a, []), inp(a, [x], out_(x, []))));
        let c = cons(&p);
        let Process::Act(_, body) = &**c.term() else {
            panic!("a prefix")
        };
        assert!(Arc::ptr_eq(cons(body).term(), body));
        let Process::Par(l, r) = &**body else {
            panic!("a parallel composition")
        };
        assert!(Arc::ptr_eq(cons(l).term(), l));
        assert!(Arc::ptr_eq(cons(r).term(), r));
    }

    #[test]
    fn normal_forms_match_the_plain_walks() {
        let [a, b, x, y] = names(["a", "b", "x", "y"]);
        let h0 = Name::canonical(0);
        for p in [
            par(nil(), tau(out_(a, [b]))),
            new(x, par(out_(x, []), nil())),
            new(x, mat(x, a, nil(), nil())),
            inp(a, [x], new(y, par(out_(y, [x]), out_(h0, [y])))),
            sum(nil(), inp(a, [h0], par(nil(), out_(h0, [])))),
            tau(tau(out_(a, []))),
        ] {
            let c = cons(&p);
            let n = c.normal_form();
            assert_eq!(*n.term(), canon(&crate::prune(&p)), "{p:?}");
            assert_eq!(*c.canon(), canon(&p), "{p:?}");
            assert_eq!(*c.free_names(), p.free_names(), "{p:?}");
            // A normal form is its own normal form.
            assert_eq!(n.normal_form(), n);
        }
    }

    #[test]
    fn dropping_all_handles_releases_the_class() {
        let a = Name::new("a");
        let p = sum(tau(nil()), out_(a, [tau_marker()]));
        fn tau_marker() -> Name {
            Name::intern_raw("storetest-unique")
        }
        let id1 = {
            let c = cons(&p);
            c.id()
        };
        // All strong refs to the cell dropped; a re-cons may mint a fresh
        // id (weak entry dead) — either way it must still round-trip.
        let c = cons(&p);
        assert!(c.id() == id1 || c.id().0 > id1.0);
        assert_eq!(*c.term(), p);
    }
}
