//! Memoized semantic derivations for the term-level engines.
//!
//! Transition derivation (`Lts::step_transitions`) and state
//! normalisation are pure functions of *(term, definition environment)*,
//! and exploration (`explore`, `output_reachable`) and the term-level
//! weak queries ([`crate::Weak`]) call them over and over on the same
//! terms, within a run and across exact re-runs. This module memoizes
//! them globally, keyed by the hash-consed [`TermId`](bpi_core::TermId)
//! of the term and the
//! [`Defs::generation`](bpi_core::syntax::Defs::generation) stamp, so a
//! definition update invalidates exactly the entries it could affect.
//!
//! The graph builds and the on-the-fly search of `bpi-equiv` do not come
//! here. They derive each state once per build or search, through their
//! own index of states, and `bpi-equiv`'s graph memo shares whole graphs,
//! so an entry here would only pin the cells of successors that nothing
//! reads again.
//!
//! **Soundness of replaying fresh names.** Scope extrusion (rule (5) of
//! Table 3) mints a globally fresh name per derivation. A memoized entry
//! replays the successors minted on first derivation instead of minting
//! again. This is sound: the replayed successors are valid transitions of
//! the *same* source term (freshness only has to hold against the names
//! of that term and its observers, which is invariant), all consumers
//! quotient states by α-equivalence or extruded-name normalisation before
//! comparing, and the `~` namespace is reserved so replayed names can
//! never collide with user names.
//!
//! Caches are append-only with a size cap; overflowing clears the map
//! (correctness never depends on a hit).

use crate::lts::Lts;
use bpi_core::action::Action;
use bpi_core::name::NameSet;
use bpi_core::syntax::P;
use bpi_core::Consed;
use bpi_obs::{counter, Counter, Det};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::{Arc, LazyLock};

/// Entries per cache before it is wholesale cleared.
const CACHE_CAP: usize = 1 << 20;

// Keys hold the `Consed` handle, not the bare `TermId`: the handle pins
// the interner's weak entry, so the class id stays stable for as long as
// the memo entry lives (a bare id could die with its cell and a later
// cons of an equal term would mint a fresh id, turning every lookup into
// a miss).
type StepKey = (Consed, u64);
type NormKey = (Consed, NameSet);

/// A memoized derivation: the successors, each the canonical allocation
/// of its consed class, and the handles that keep those cells, with the
/// normal forms cached in them, live for as long as the entry.
struct Steps {
    succs: Arc<Vec<(Action, P)>>,
    _cells: Vec<Consed>,
}

static STEP_MEMO: LazyLock<RwLock<HashMap<StepKey, Steps>>> =
    LazyLock::new(|| RwLock::new(HashMap::new()));
static NORM_MEMO: LazyLock<RwLock<HashMap<NormKey, Consed>>> =
    LazyLock::new(|| RwLock::new(HashMap::new()));

// Hit/miss rates are *advisory*: the memos are process-global and
// capped, so whether a lookup hits depends on what ran before.
static STEP_HITS: LazyLock<&Counter> =
    LazyLock::new(|| counter("semantics.memo.step.hits", Det::Advisory));
static STEP_MISSES: LazyLock<&Counter> =
    LazyLock::new(|| counter("semantics.memo.step.misses", Det::Advisory));
static NORM_HITS: LazyLock<&Counter> =
    LazyLock::new(|| counter("semantics.memo.norm.hits", Det::Advisory));
static NORM_MISSES: LazyLock<&Counter> =
    LazyLock::new(|| counter("semantics.memo.norm.misses", Det::Advisory));

fn insert_capped<K: std::hash::Hash + Eq, V>(map: &RwLock<HashMap<K, V>>, k: K, v: V) {
    let mut g = map.write();
    if g.len() >= CACHE_CAP {
        g.clear();
    }
    g.insert(k, v);
}

/// `lts.step_transitions(p)`, derived once per (term, defs generation).
///
/// The returned successors are the canonical allocations of their consed
/// classes, kept live by the entry, so consing one is a pointer probe and
/// the normal form cached in its cell is served on every revisit.
pub fn step_transitions_cached(lts: &Lts<'_>, p: &P) -> Arc<Vec<(Action, P)>> {
    // Chaos delay site: memo caches must tolerate arbitrary scheduling
    // between probe and fill without changing any result.
    crate::chaos::delay("semantics.cache.step");
    let key = (bpi_core::cons(p), lts.defs.generation());
    if let Some(d) = STEP_MEMO.read().get(&key) {
        STEP_HITS.inc();
        return d.succs.clone();
    }
    STEP_MISSES.inc();
    let (succs, _cells): (Vec<_>, Vec<_>) = lts
        .step_transitions(p)
        .into_iter()
        .map(|(act, q)| {
            let c = bpi_core::cons(&q);
            ((act, c.term().clone()), c)
        })
        .unzip();
    let succs = Arc::new(succs);
    let entry = Steps {
        succs: succs.clone(),
        _cells,
    };
    insert_capped(&STEP_MEMO, key, entry);
    succs
}

/// [`crate::explore::normalize_state`] through the term's consed cell;
/// `protected = None` is the plain `canon ∘ prune` normalisation.
///
/// The cell serves `canon ∘ prune` itself ([`Consed::normal_form`]): an
/// already-normal term comes back as it is, and otherwise only the nodes
/// that change are rebuilt. That is also the answer for a protected set
/// holding every free name, since there is nothing to rename; only the
/// renaming of unprotected free names is memoized per (term, protected
/// set). Every answer is the canonical allocation of its class, so
/// consing it is a pointer probe.
pub fn normalize_state_cached(p: &P, protected: Option<&NameSet>) -> P {
    crate::chaos::delay("semantics.cache.norm");
    let c = bpi_core::cons(p);
    let n = c.normal_form();
    let prot = match protected {
        Some(prot) if !n.free_names().iter().all(|x| prot.contains(x)) => prot,
        _ => return n.term().clone(),
    };
    let key = (c, prot.clone());
    if let Some(v) = NORM_MEMO.read().get(&key) {
        NORM_HITS.inc();
        return v.term().clone();
    }
    NORM_MISSES.inc();
    let v = bpi_core::cons(&crate::explore::normalize_state(p, prot));
    let t = v.term().clone();
    insert_capped(&NORM_MEMO, key, v);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpi_core::builder::*;
    use bpi_core::syntax::Defs;

    #[test]
    fn step_memo_agrees_with_fresh_derivation() {
        let defs = Defs::new();
        let [a, v, x] = names(["a", "v", "x"]);
        let p = par(out_(a, [v]), inp(a, [x], out_(x, [])));
        let lts = Lts::new(&defs);
        let cached = step_transitions_cached(&lts, &p);
        let fresh = lts.step_transitions(&p);
        assert_eq!(cached.len(), fresh.len());
        for ((ca, cp), (fa, fp)) in cached.iter().zip(&fresh) {
            assert_eq!(ca, fa);
            assert!(bpi_core::alpha_eq(cp, fp));
        }
        // Second call replays the identical allocations.
        let again = step_transitions_cached(&lts, &p);
        assert!(Arc::ptr_eq(&cached, &again));
    }

    #[test]
    fn defs_generation_invalidates() {
        let a = bpi_core::Name::new("a");
        let id = bpi_core::Ident::new("CacheA");
        let mut defs = Defs::new();
        defs.define(id, vec![], out_(a, []));
        let p = call(id, []);
        {
            let lts = Lts::new(&defs);
            assert_eq!(step_transitions_cached(&lts, &p).len(), 1);
        }
        // Redefining bumps the generation: the τ-only body must show
        // through, not the stale cached output transition.
        defs.define(id, vec![], tau(nil()));
        let lts = Lts::new(&defs);
        let ts = step_transitions_cached(&lts, &p);
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].0, Action::Tau);
    }

    #[test]
    fn normalize_memo_agrees_with_direct() {
        let [a, b] = names(["a", "b"]);
        let p = par(out_(a, [b]), nil());
        let prot = NameSet::from_iter([a]);
        assert_eq!(
            normalize_state_cached(&p, Some(&prot)),
            crate::explore::normalize_state(&p, &prot)
        );
        assert_eq!(
            normalize_state_cached(&p, None),
            bpi_core::canon(&bpi_core::prune(&p))
        );
        // Distinct protected sets must not collide.
        let prot2 = NameSet::from_iter([a, b]);
        assert_eq!(
            normalize_state_cached(&p, Some(&prot2)),
            crate::explore::normalize_state(&p, &prot2)
        );
    }
}
