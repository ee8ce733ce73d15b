//! Interned channel names.
//!
//! The bπ-calculus is a name-passing calculus: the values communicated on
//! channels are themselves channel names, drawn from the countable set
//! `Ch_b` of the paper. We intern names globally so that a [`Name`] is a
//! copyable 4-byte handle; all hot-path operations (substitution, free-name
//! computation, transition derivation) compare and hash these handles
//! instead of strings.
//!
//! Two reserved namespaces never collide with user names:
//!
//! * **canonical names** `#0, #1, …` used by α-canonicalisation
//!   ([`crate::canon`](mod@crate::canon));
//! * **fresh names** `base~n` generated by [`fresh_name`] /
//!   [`fresh_names`].
//!
//! User-facing constructors reject strings containing `#` or `~` so the
//! reservation is airtight.

use parking_lot::RwLock;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::{LazyLock, OnceLock};

/// An interned channel name (an element of the paper's `Ch_b`).
///
/// Names are `Copy`, and ordering/hashing is by interner id, which is stable
/// for the lifetime of the process. Use [`Name::new`] to intern, and
/// `Display` to recover the spelling. Spellings are leaked `&'static str`s
/// published through a lock-free chunked table, so `Display`/[`Name::spelling`]
/// never take the interner lock after creation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Name(u32);

/// A lock-free, append-only `u32 → &'static str` table.
///
/// Interners in this crate publish every spelling here under their write
/// lock; readers locate the chunk arithmetically and do a single atomic
/// load, so the hot paths (`Display`, `spelling`, `is_canonical`) are
/// lock-free after creation. Chunk `k` holds `64 << k` slots, enough
/// chunks to cover the whole `u32` id space.
pub(crate) struct StrTable {
    chunks: [OnceLock<Box<[AtomicPtr<&'static str>]>>; 27],
}

impl StrTable {
    pub(crate) const fn new() -> StrTable {
        StrTable {
            chunks: [const { OnceLock::new() }; 27],
        }
    }

    fn locate(idx: u32) -> (usize, usize) {
        // Slots before chunk k: 64·(2ᵏ − 1); chunk k holds 64·2ᵏ slots.
        let k = ((idx as u64) / 64 + 1).ilog2() as usize;
        let start = 64 * ((1u64 << k) - 1);
        (k, (idx as u64 - start) as usize)
    }

    /// Publishes `s` under slot `idx`. Callers serialise through their own
    /// interner lock, so each slot is written at most once.
    pub(crate) fn set(&self, idx: u32, s: &'static str) {
        let (k, slot) = StrTable::locate(idx);
        let chunk = self.chunks[k].get_or_init(|| {
            (0..(64usize << k))
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect()
        });
        let boxed = Box::into_raw(Box::new(s));
        chunk[slot].store(boxed, Ordering::Release);
    }

    /// Lock-free read of slot `idx`; panics on ids never published.
    pub(crate) fn get(&self, idx: u32) -> &'static str {
        let (k, slot) = StrTable::locate(idx);
        let chunk = self.chunks[k].get().expect("string id beyond table");
        let p = chunk[slot].load(Ordering::Acquire);
        assert!(!p.is_null(), "string id {idx} was never published");
        unsafe { *p }
    }
}

static SPELLINGS: StrTable = StrTable::new();

struct Interner {
    len: u32,
    lookup: std::collections::HashMap<&'static str, u32>,
    /// Monotone counter used to mint fresh-name suffixes.
    fresh_counter: u64,
}

static INTERNER: LazyLock<RwLock<Interner>> = LazyLock::new(|| {
    RwLock::new(Interner {
        len: 0,
        lookup: std::collections::HashMap::new(),
        fresh_counter: 0,
    })
});

fn intern(s: &str) -> Name {
    {
        let g = INTERNER.read();
        if let Some(&id) = g.lookup.get(s) {
            return Name(id);
        }
    }
    let mut g = INTERNER.write();
    if let Some(&id) = g.lookup.get(s) {
        return Name(id);
    }
    let id = g.len;
    g.len = id.checked_add(1).expect("name interner overflow");
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    SPELLINGS.set(id, leaked);
    g.lookup.insert(leaked, id);
    Name(id)
}

/// A lazily grown cache of the names `prefix0, prefix1, …`, so hot paths
/// that index into a reserved namespace (`#i` canonical binders, `#e{i}`
/// extruded representatives, `#b{i}` bound-output representatives, `#w{i}`
/// pool fresh names) intern each spelling exactly once instead of
/// formatting a `String` per use.
pub struct IndexedNames {
    prefix: &'static str,
    cache: LazyLock<RwLock<Vec<Name>>>,
}

impl IndexedNames {
    pub const fn new(prefix: &'static str) -> IndexedNames {
        IndexedNames {
            prefix,
            cache: LazyLock::new(|| RwLock::new(Vec::new())),
        }
    }

    /// The name `{prefix}{i}` — cached after the first request.
    pub fn get(&self, i: usize) -> Name {
        {
            let g = self.cache.read();
            if i < g.len() {
                return g[i];
            }
        }
        let mut g = self.cache.write();
        while g.len() <= i {
            let next = g.len();
            g.push(intern(&format!("{}{}", self.prefix, next)));
        }
        g[i]
    }
}

/// Canonical α-binder names `#0, #1, …`.
static CANONICAL: IndexedNames = IndexedNames::new("#");
/// Extruded-name representatives `#e0, #e1, …` used by state normalisation.
static EXTRUDED: IndexedNames = IndexedNames::new("#e");
/// Bound-output representatives `#b0, #b1, …` used by graph construction.
static BOUND_REP: IndexedNames = IndexedNames::new("#b");
/// Fresh input-pool representatives `#w0, #w1, …`.
static POOL_REP: IndexedNames = IndexedNames::new("#w");

impl Name {
    /// Interns a user-level name.
    ///
    /// # Panics
    ///
    /// Panics if `s` is empty or contains one of the reserved characters
    /// `#` (canonical names) or `~` (fresh names).
    pub fn new(s: &str) -> Name {
        assert!(!s.is_empty(), "empty name");
        assert!(
            !s.contains('#') && !s.contains('~'),
            "name {s:?} uses a reserved character (# or ~)"
        );
        intern(s)
    }

    /// Interns a name without the reserved-character check.
    ///
    /// Used by the parser (which must re-read canonical `#i` and fresh
    /// `x~n` names printed by this crate) and by state normalisation.
    /// User code should prefer [`Name::new`], which keeps the reserved
    /// namespaces collision-free.
    pub fn intern_raw(s: &str) -> Name {
        intern(s)
    }

    /// The canonical bound name with index `i` (spelled `#i`).
    ///
    /// These names are produced by α-canonicalisation and must never occur
    /// free in user terms (guaranteed by [`Name::new`]). Cached in a static
    /// table, so repeated canonicalisation never re-interns.
    pub fn canonical(i: usize) -> Name {
        CANONICAL.get(i)
    }

    /// The extruded-name representative with index `i` (spelled `#e{i}`),
    /// used by `normalize_state` to rename non-protected free names.
    pub fn extruded(i: usize) -> Name {
        EXTRUDED.get(i)
    }

    /// The bound-output representative with index `i` (spelled `#b{i}`),
    /// used by graph label normalisation.
    pub fn bound_rep(i: usize) -> Name {
        BOUND_REP.get(i)
    }

    /// The fresh-input pool name with index `i` (spelled `#w{i}`).
    pub fn pool_rep(i: usize) -> Name {
        POOL_REP.get(i)
    }

    /// Whether this is a canonical (`#i`) name.
    pub fn is_canonical(self) -> bool {
        self.spelling().starts_with('#')
    }

    /// The interner id. Stable within a run; useful for dense tables.
    pub fn id(self) -> u32 {
        self.0
    }

    /// Reconstructs a name from an id previously obtained via
    /// [`Name::id`] **in the same run**.
    ///
    /// # Panics
    /// Panics if the id was never issued by the interner.
    pub fn from_id(id: u32) -> Name {
        assert!(id < INTERNER.read().len, "name id {id} was never interned");
        Name(id)
    }

    /// The spelling of the name. Lock-free after creation.
    pub fn spelling(self) -> &'static str {
        SPELLINGS.get(self.0)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.spelling())
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Name {
        Name::new(s)
    }
}

/// A deterministic, ordered set of names.
///
/// Free-name sets are small (typically < 32 names), and most algorithms in
/// the crate want deterministic iteration (canonicalisation, substitution
/// enumeration, pretty-printing), so a `BTreeSet` is the right trade-off.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct NameSet(pub BTreeSet<Name>);

impl NameSet {
    /// The empty set.
    pub fn new() -> NameSet {
        NameSet::default()
    }

    /// Builds a set from an iterator of names.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = Name>>(it: I) -> NameSet {
        NameSet(it.into_iter().collect())
    }

    pub fn insert(&mut self, n: Name) -> bool {
        self.0.insert(n)
    }

    pub fn remove(&mut self, n: Name) -> bool {
        self.0.remove(&n)
    }

    pub fn contains(&self, n: Name) -> bool {
        self.0.contains(&n)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = Name> + '_ {
        self.0.iter().copied()
    }

    /// Set union, consuming neither operand.
    pub fn union(&self, other: &NameSet) -> NameSet {
        NameSet(self.0.union(&other.0).copied().collect())
    }

    /// Extends `self` with all names of `other`.
    pub fn extend(&mut self, other: &NameSet) {
        self.0.extend(other.0.iter().copied());
    }

    /// Whether the two sets share no name.
    pub fn is_disjoint(&self, other: &NameSet) -> bool {
        self.0.is_disjoint(&other.0)
    }

    /// The names of `self` not in `other`.
    pub fn difference(&self, other: &NameSet) -> NameSet {
        NameSet(self.0.difference(&other.0).copied().collect())
    }

    /// A `Vec` of the names in ascending id-independent (lexicographic by
    /// interner id) order.
    pub fn to_vec(&self) -> Vec<Name> {
        self.0.iter().copied().collect()
    }
}

impl fmt::Debug for NameSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.0.iter()).finish()
    }
}

impl FromIterator<Name> for NameSet {
    fn from_iter<I: IntoIterator<Item = Name>>(it: I) -> NameSet {
        NameSet(it.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a NameSet {
    type Item = Name;
    type IntoIter = std::iter::Copied<std::collections::btree_set::Iter<'a, Name>>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter().copied()
    }
}

/// Mints a fresh name based on `base`, guaranteed distinct from every name
/// interned so far (and hence from every name in any live term).
///
/// Fresh names are spelled `base~n` with a process-global counter, so they
/// are unique across the whole run — callers never need to pass an avoid
/// set, which keeps scope-extrusion (rule (5) of Table 3) simple.
pub fn fresh_name(base: &str) -> Name {
    let n = {
        let mut g = INTERNER.write();
        g.fresh_counter += 1;
        g.fresh_counter
    };
    let base = base.split('~').next().unwrap_or("x");
    intern(&format!("{base}~{n}"))
}

/// Mints `k` fresh names based on `base`.
pub fn fresh_names(base: &str, k: usize) -> Vec<Name> {
    (0..k).map(|_| fresh_name(base)).collect()
}

/// Picks a name *deterministically* fresh with respect to `avoid`, spelled
/// `base`, `base'`, `base''`, … — unlike [`fresh_name`] this does not
/// consult global state, so it is suitable inside α-canonicalisation where
/// equal inputs must yield equal outputs.
pub fn fresh_avoiding(base: &str, avoid: &NameSet) -> Name {
    let mut s = base.split('~').next().unwrap_or("x").to_owned();
    if s.is_empty() {
        s.push('x');
    }
    loop {
        let n = intern(&s);
        if !avoid.contains(n) {
            return n;
        }
        s.push('\'');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Name::new("a");
        let b = Name::new("a");
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "a");
    }

    #[test]
    fn distinct_names_differ() {
        assert_ne!(Name::new("a"), Name::new("b"));
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn reserved_hash_rejected() {
        Name::new("#0");
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn reserved_tilde_rejected() {
        Name::new("x~1");
    }

    #[test]
    fn fresh_names_are_fresh() {
        let a = Name::new("a");
        let f = fresh_name("a");
        assert_ne!(a, f);
        let g = fresh_name("a");
        assert_ne!(f, g);
    }

    #[test]
    fn fresh_avoiding_is_deterministic() {
        let avoid = NameSet::from_iter([Name::new("y"), Name::intern_raw("y'")]);
        let f1 = fresh_avoiding("y", &avoid);
        let f2 = fresh_avoiding("y", &avoid);
        assert_eq!(f1, f2);
        assert!(!avoid.contains(f1));
        assert_eq!(f1.to_string(), "y''");
    }

    #[test]
    fn canonical_names_are_canonical() {
        assert!(Name::canonical(3).is_canonical());
        assert_eq!(Name::canonical(3).to_string(), "#3");
        assert!(!Name::new("plain").is_canonical());
    }

    #[test]
    fn indexed_name_tables_match_formatted_spellings() {
        assert_eq!(Name::extruded(0).to_string(), "#e0");
        assert_eq!(Name::extruded(17).to_string(), "#e17");
        assert_eq!(Name::bound_rep(2).to_string(), "#b2");
        assert_eq!(Name::pool_rep(5).to_string(), "#w5");
        // Idempotent and identical to raw interning of the same spelling.
        assert_eq!(Name::extruded(17), Name::intern_raw("#e17"));
        assert_eq!(Name::canonical(9), Name::intern_raw("#9"));
    }

    #[test]
    fn spelling_table_survives_chunk_boundaries() {
        // Chunk 0 holds 64 slots; push enough distinct names to cross into
        // chunk 1 and verify lock-free reads return the right strings.
        let names: Vec<Name> = (0..200)
            .map(|i| Name::intern_raw(&format!("chunky{i}")))
            .collect();
        for (i, n) in names.iter().enumerate() {
            assert_eq!(n.spelling(), format!("chunky{i}"));
        }
    }

    #[test]
    fn nameset_operations() {
        let a = Name::new("a");
        let b = Name::new("b");
        let c = Name::new("c");
        let s1 = NameSet::from_iter([a, b]);
        let s2 = NameSet::from_iter([b, c]);
        assert_eq!(s1.union(&s2).len(), 3);
        assert_eq!(s1.difference(&s2).to_vec(), vec![a]);
        assert!(!s1.is_disjoint(&s2));
        assert!(s1.difference(&s2).is_disjoint(&s2));
    }
}
