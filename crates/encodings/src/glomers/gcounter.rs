//! Glomers challenge #4 — **grow-only counter** (a state-based CRDT).
//!
//! Each node contributes one increment token; a replica merges
//! everything it hears and must converge on the full count no matter
//! the delivery order or how often a token is re-delivered. The merge
//! of a G-set/G-counter is a *join*: commutative, associative,
//! idempotent — and the encoding makes those laws machine-checkable.
//!
//! The replica is a **subset automaton** over the token set, one state
//! per subset `S ⊆ {t₀…tₙ₋₁}`:
//!
//! ```text
//! Rep_S ≝ rec W_S. add(x). (x=t₀) Rep_{S∪{0}}, (x=t₁) Rep_{S∪{1}}, … W_S
//! Rep_full ≝ conv̄
//! ```
//!
//! A token already in `S` self-loops (`S∪{j} = S`, the `rec` variable)
//! — re-delivery is a no-op, which *is* idempotence; unknown names fall
//! through likewise. When the subset is full the replica announces
//! convergence on `conv`. The automaton is built as a term DAG: strict
//! supersets are inlined (the subset lattice minus self-loops is
//! acyclic, and `P` terms are shared), self-loops close over each
//! state's own `rec` — so the whole replica lives *in the term*, where
//! `ν add` can capture its channel and the explorer's protected set
//! sees `conv`.
//!
//! **Correctness conditions** (machine-checked):
//! * convergence — `ν add (emitters ‖ Rep_∅) ≈ conv̄`;
//! * idempotence — adding a *duplicate* emitter leaves the system in
//!   the same equivalence class;
//! * commutativity — permuting the emitters does too (a many-identical-
//!   component comparison, which the checker composes by default);
//! * exhaustively, every interleaving converges exactly once.
//!
//! Under *message loss* a one-shot increment can vanish; the
//! fault-tolerant variant pumps increments until heard (gossip
//! repair), and its reliability curve is measured by Monte-Carlo.

use bpi_core::builder::*;
use bpi_core::name::Name;
use bpi_core::syntax::{Defs, Ident, P};
use bpi_equiv::Checker;
use bpi_semantics::{
    convergence_mc, explore, Budget, CheckpointCfg, ExploreOpts, FaultPlan, ReliabilityEstimate,
};

/// Channel names of the counter workload.
pub struct Channels {
    pub add: Name,
    pub conv: Name,
}

pub fn channels() -> Channels {
    Channels {
        add: Name::intern_raw("gl_add"),
        conv: Name::intern_raw("gl_conv"),
    }
}

/// The increment token contributed by node `i`.
pub fn token(i: usize) -> Name {
    Name::intern_raw(&format!("gl_t{i}"))
}

/// The subset-automaton replica over `n` tokens, starting from the
/// empty subset.
pub fn replica(n: usize) -> P {
    assert!((1..=6).contains(&n), "2^n states — keep n small");
    let ch = channels();
    let x = Name::intern_raw("gl_gcx");
    let full = (1usize << n) - 1;
    // Build from the full subset downwards: every strict superset is
    // already built, so `states[mask | bit]` can be inlined (shared).
    let mut states: Vec<Option<P>> = vec![None; full + 1];
    states[full] = Some(out_(ch.conv, []));
    for mask in (0..full).rev() {
        let w = Ident::new(&format!("GlGC{n}_{mask}"));
        // Dispatch on the received token: fresh tokens advance the
        // subset, seen tokens self-loop (idempotent merge), unknown
        // names fall through likewise.
        let mut dispatch = var(w, []);
        for j in (0..n).rev() {
            let target = if mask & (1 << j) != 0 {
                var(w, [])
            } else {
                states[mask | (1 << j)].clone().expect("built top-down")
            };
            dispatch = mat(x, token(j), target, dispatch);
        }
        states[mask] = Some(rec(w, [], inp(ch.add, [x], dispatch), []));
    }
    states[0].clone().expect("n ≥ 1")
}

/// One-shot emitters for the tokens in `order`, plus the replica.
fn assemble(n: usize, order: &[usize]) -> (P, Defs, Channels) {
    let ch = channels();
    let sys = par_of(
        order
            .iter()
            .map(|&i| out_(ch.add, [token(i)]))
            .chain(std::iter::once(replica(n))),
    );
    (sys, Defs::new(), ch)
}

/// The idealized outcome: the replica converges, nothing else shows.
fn spec(ch: &Channels) -> P {
    out_(ch.conv, [])
}

/// Convergence: `ν add (Πᵢ ādd⟨tᵢ⟩ ‖ Rep_∅) ≈ conv̄`.
pub fn converges(n: usize) -> bool {
    let order: Vec<usize> = (0..n).collect();
    let (sys, defs, ch) = assemble(n, &order);
    Checker::new(&defs).weak(&new(ch.add, sys), &spec(&ch))
}

/// Idempotence as equivalence: a duplicated increment changes nothing.
pub fn merge_idempotent(n: usize) -> bool {
    let mut order: Vec<usize> = (0..n).collect();
    order.push(0); // node 0's token delivered twice
    let (sys, defs, ch) = assemble(n, &order);
    Checker::new(&defs).weak(&new(ch.add, sys), &spec(&ch))
}

/// Commutativity as equivalence: emitter order is irrelevant. Compared
/// *open* (no restriction), so the identical-component symmetry is
/// exactly what the checker's compositional route exploits.
pub fn merge_commutative(n: usize) -> bool {
    let fwd: Vec<usize> = (0..n).collect();
    let rev: Vec<usize> = (0..n).rev().collect();
    let (sys_f, defs, _) = assemble(n, &fwd);
    let (sys_r, _, _) = assemble(n, &rev);
    Checker::new(&defs).weak(&sys_f, &sys_r)
}

/// Exhaustively: every interleaving of the open system converges
/// exactly once.
pub fn every_run_converges(n: usize, max_states: usize) -> bool {
    let order: Vec<usize> = (0..n).collect();
    let (sys, defs, ch) = assemble(n, &order);
    let g = explore(&sys, &defs, ExploreOpts { max_states });
    assert!(!g.truncated, "state budget too small");
    super::broadcast::all_maximal_runs_output_exactly(&g, ch.conv, 1)
}

/// The fault-tolerant workload: `persistent` emitters retransmit their
/// token forever (gossip repair), one-shot emitters send once.
pub fn counter_system(n: usize, persistent: bool) -> (P, Defs, Channels) {
    let ch = channels();
    let emitter = |i: usize| -> P {
        if persistent {
            let y = Ident::new(&format!("GlGCPump{i}"));
            rec(y, [], out(ch.add, [token(i)], var(y, [])), [])
        } else {
            out_(ch.add, [token(i)])
        }
    };
    let sys = par_of((0..n).map(emitter).chain(std::iter::once(replica(n))));
    (sys, Defs::new(), ch)
}

/// Monte-Carlo probability that the replica converges within `steps`
/// under `plan`.
pub fn counter_reliability(
    n: usize,
    persistent: bool,
    plan: &FaultPlan,
    steps: usize,
    samples: usize,
) -> ReliabilityEstimate {
    let (sys, defs, ch) = counter_system(n, persistent);
    convergence_mc(
        &sys,
        &defs,
        plan,
        ch.conv,
        steps,
        samples,
        &Budget::unlimited(),
        &CheckpointCfg::default(),
    )
    .expect("unlimited budget and inert checkpointing cannot interrupt")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_converges() {
        for n in 1..=3 {
            assert!(converges(n), "no convergence at n={n}");
        }
    }

    #[test]
    fn merge_laws_hold() {
        for n in 1..=3 {
            assert!(merge_idempotent(n), "idempotence failed at n={n}");
            assert!(merge_commutative(n), "commutativity failed at n={n}");
        }
    }

    #[test]
    fn every_interleaving_converges() {
        for n in 1..=3 {
            assert!(
                every_run_converges(n, 100_000),
                "missed convergence at n={n}"
            );
        }
    }

    #[test]
    fn gossip_repair_beats_oneshot_under_loss() {
        let plan = FaultPlan::new(17).with_default_loss(0.3).unwrap();
        let oneshot = counter_reliability(3, false, &plan, 64, 400);
        let pumped = counter_reliability(3, true, &plan, 64, 400);
        assert!(
            pumped.probability > oneshot.probability,
            "repair {} ≤ one-shot {}",
            pumped.probability,
            oneshot.probability
        );
        assert!(pumped.probability > 0.95, "repair too lossy: {pumped:?}");
    }
}
