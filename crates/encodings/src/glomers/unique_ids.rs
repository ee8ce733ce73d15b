//! Glomers challenge #2 — **globally-unique id generation**.
//!
//! Every node mints ids visible to the whole cluster; no two
//! announcements may ever carry the same id. Nodes use the classic
//! Maelstrom scheme — `(node-id, sequence-number)` pairs — and announce
//! each mint on the broadcast channel `id`:
//!
//! ```text
//! Nodeᵢ ≝ id̄⟨nᵢ, s₀⟩. id̄⟨nᵢ, s₁⟩. … id̄⟨nᵢ, s_{k-1}⟩
//! ```
//!
//! **Correctness condition** (machine-checked): uniqueness is stated
//! *in the calculus* by a recursive duplicate detector that — thanks to
//! atomic one-to-many broadcast — hears every announcement, spawns a
//! watcher remembering it, and raises `err` iff any announcement is
//! ever repeated:
//!
//! ```text
//! Mon        ≝ rec M. id(x,y). (Watch⟨x,y⟩ ‖ M)
//! Watch⟨x,y⟩ ≝ rec W. id(u,v). (u=x)((v=y) err̄, W), W
//! ```
//!
//! `err` unreachable over the *full* state space ⇔ no interleaving of
//! the mints ever collides. The negative control gives two nodes the
//! same node-id and demands the detector fire.
//!
//! The detector is written with in-term `rec` (the watcher closes over
//! the announcement `(x,y)` it remembers) rather than a `Defs` entry:
//! definition bodies live outside the term, so their channels can
//! neither be captured by a term-level `ν` nor protected from the
//! explorer's extruded-name canonicalisation — `rec` keeps every
//! channel free in the initial term, where both work.

use bpi_core::builder::*;
use bpi_core::name::Name;
use bpi_core::syntax::{Defs, Ident, P};
use bpi_semantics::{output_reachable, ExploreOpts};

/// Channel names of the unique-id workload.
pub struct Channels {
    pub id: Name,
    pub err: Name,
}

pub fn channels() -> Channels {
    Channels {
        id: Name::intern_raw("gl_uid"),
        err: Name::intern_raw("gl_uid_err"),
    }
}

pub fn node_id(i: usize) -> Name {
    Name::intern_raw(&format!("gl_un{i}"))
}

pub fn seq(j: usize) -> Name {
    Name::intern_raw(&format!("gl_us{j}"))
}

/// One node minting `k` ids under its node-id.
pub fn node(ch: &Channels, me: Name, k: usize) -> P {
    (0..k).rev().fold(nil(), |p, j| out(ch.id, [me, seq(j)], p))
}

/// The duplicate detector (`Mon`, `Watch` of the module docs): hears
/// every announcement, spawns a watcher remembering it, errs on any
/// repeat.
pub fn monitor(ch: &Channels) -> P {
    let m = Ident::new("GlUidMon");
    let w = Ident::new("GlUidWatch");
    let [x, y, u, v] = [
        Name::intern_raw("gl_ux"),
        Name::intern_raw("gl_uy"),
        Name::intern_raw("gl_uu"),
        Name::intern_raw("gl_uv"),
    ];
    let watch = rec(
        w,
        [],
        inp(
            ch.id,
            [u, v],
            mat(u, x, mat(v, y, out_(ch.err, []), var(w, [])), var(w, [])),
        ),
        [],
    );
    rec(m, [], inp(ch.id, [x, y], par(watch, var(m, []))), [])
}

/// `n` nodes minting `k` ids each, plus the detector.
pub fn system(n: usize, k: usize) -> (P, Defs, Channels) {
    let ch = channels();
    let sys = par_of(
        (0..n)
            .map(|i| node(&ch, node_id(i), k))
            .chain(std::iter::once(monitor(&ch))),
    );
    (sys, Defs::new(), ch)
}

/// A faulty cluster where two nodes share a node-id — ids collide.
pub fn colliding_system(k: usize) -> (P, Defs, Channels) {
    let ch = channels();
    let sys = par_of([
        node(&ch, node_id(0), k),
        node(&ch, node_id(0), k),
        monitor(&ch),
    ]);
    (sys, Defs::new(), ch)
}

/// Exhaustive uniqueness: `Some(true)` iff no interleaving ever
/// repeats an id (the detector's `err` is unreachable).
pub fn unique(n: usize, k: usize, max_states: usize) -> Option<bool> {
    let (sys, defs, ch) = system(n, k);
    output_reachable(&sys, &defs, ch.err, ExploreOpts { max_states }).map(|reachable| !reachable)
}

/// Negative control: `Some(true)` iff the detector *does* fire on the
/// colliding cluster.
pub fn collision(k: usize, max_states: usize) -> Option<bool> {
    let (sys, defs, ch) = colliding_system(k);
    output_reachable(&sys, &defs, ch.err, ExploreOpts { max_states })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_exhaustively() {
        for (n, k) in [(1, 3), (2, 2), (3, 2)] {
            assert_eq!(
                unique(n, k, 300_000),
                Some(true),
                "collision at n={n} k={k}"
            );
        }
    }

    #[test]
    fn shared_node_ids_collide() {
        for k in 1..=2 {
            assert_eq!(collision(k, 300_000), Some(true), "undetected at k={k}");
        }
    }
}
