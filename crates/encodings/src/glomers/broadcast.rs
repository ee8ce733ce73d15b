//! Glomers challenges #3a–#3c — **broadcast**, in three rungs.
//!
//! **Single-node (#3a).** One node stores the latest broadcast value
//! and serves reads:
//!
//! ```text
//! Reg⟨cur⟩ ≝ bcast(x). Reg⟨x⟩  +  read(). read_ok̄⟨cur⟩. Reg⟨cur⟩
//! ```
//!
//! The client writes, reads, overwrites, reads again and publishes the
//! transcript. Correctness = *read-your-writes*: the restricted system
//! is weakly bisimilar to `donē⟨v₁,v₂⟩`. A register that ignores
//! overwrites is the negative control.
//!
//! **Multi-node gossip (#3b).** The calculus' atomic one-to-many
//! broadcast *is* the convergence argument: one `gossip̄⟨v⟩` reaches all
//! `n` peers in a single transition. Machine-checked three ways —
//! equivalence of the closed system with `Πⁿ deliver̄⟨v⟩`, an
//! exhaustive every-run-delivers-`n` walk, and invariance of the
//! verdict under permuting the identical nodes (the symmetry the
//! checker's compositional route exploits by default).
//!
//! **Fault-tolerant (#3c).** Once messages can be *lost*, atomicity is
//! gone: a relay chain forwards hop by hop (`Rᵢ ≝ gᵢ(x). (dl̄ᵢ⟨x⟩ ‖
//! ḡᵢ₊₁⟨x⟩)`), and a lost hop kills a one-shot chain — delivery
//! probability `(1-p)ⁿ` under per-delivery loss `p`, confirmed against
//! the exact probabilistic backend. The fault-tolerant variant is the
//! Maelstrom answer, retry: a persistent origin pump plus re-listening
//! relays, whose reliability curve under the same loss sweeps is
//! measured by Monte-Carlo with Wilson intervals.

use bpi_core::builder::*;
use bpi_core::name::Name;
use bpi_core::syntax::{Defs, Ident, P};
use bpi_equiv::Checker;
use bpi_semantics::{
    convergence_exact, convergence_mc, explore, Backoff, Budget, CheckpointCfg, ExactOutcome,
    ExploreOpts, FaultLog, FaultPlan, FaultySimulator, ProbError, ReliabilityEstimate, StateGraph,
};

// ---------------------------------------------------------------------
// #3a — single-node broadcast (a read-your-writes register)
// ---------------------------------------------------------------------

/// Channel names of the single-node workload.
pub struct RegChannels {
    pub bcast: Name,
    pub read: Name,
    pub read_ok: Name,
    pub done: Name,
}

pub fn reg_channels() -> RegChannels {
    RegChannels {
        bcast: Name::intern_raw("gl_bc"),
        read: Name::intern_raw("gl_bc_rd"),
        read_ok: Name::intern_raw("gl_bc_ok"),
        done: Name::intern_raw("gl_bc_done"),
    }
}

fn reg_value(i: usize) -> Name {
    Name::intern_raw(&format!("gl_bv{i}"))
}

/// The storing register as an in-term parametric recursion (a `Defs`
/// body could be neither ν-captured nor protected from extruded-name
/// canonicalisation — see the `unique_ids` module docs); `faithful =
/// false` builds the negative control that silently drops overwrites.
fn register(ch: &RegChannels, faithful: bool) -> P {
    let node = Ident::new(if faithful { "GlBReg" } else { "GlBRegStale" });
    let cur = Name::intern_raw("gl_bcur");
    let x = Name::intern_raw("gl_bx");
    let after_write = if faithful {
        var(node, [x])
    } else {
        var(node, [cur])
    };
    rec(
        node,
        [cur],
        sum(
            inp(ch.bcast, [x], after_write),
            inp(ch.read, [], out(ch.read_ok, [cur], var(node, [cur]))),
        ),
        [reg_value(0)],
    )
}

/// Write v₁, read, write v₂, read, publish both replies.
fn reg_client(ch: &RegChannels) -> P {
    let (y1, y2) = (Name::intern_raw("gl_by1"), Name::intern_raw("gl_by2"));
    out(
        ch.bcast,
        [reg_value(1)],
        out(
            ch.read,
            [],
            inp(
                ch.read_ok,
                [y1],
                out(
                    ch.bcast,
                    [reg_value(2)],
                    out(ch.read, [], inp(ch.read_ok, [y2], out_(ch.done, [y1, y2]))),
                ),
            ),
        ),
    )
}

fn reg_system(faithful: bool) -> (P, Defs, RegChannels) {
    let ch = reg_channels();
    let sys = new_many(
        [ch.bcast, ch.read, ch.read_ok],
        par(register(&ch, faithful), reg_client(&ch)),
    );
    (sys, Defs::new(), ch)
}

/// Read-your-writes: the register system ≈ `donē⟨v₁,v₂⟩`.
pub fn read_your_writes() -> bool {
    let (sys, defs, ch) = reg_system(true);
    let spec = out_(ch.done, [reg_value(1), reg_value(2)]);
    Checker::new(&defs).weak(&sys, &spec)
}

/// Negative control: the overwrite-dropping register must *not* be
/// equivalent to the faithful spec.
pub fn stale_read_your_writes() -> bool {
    let (sys, defs, ch) = reg_system(false);
    let spec = out_(ch.done, [reg_value(1), reg_value(2)]);
    Checker::new(&defs).weak(&sys, &spec)
}

// ---------------------------------------------------------------------
// #3b — multi-node gossip flood (atomic one-to-many)
// ---------------------------------------------------------------------

/// Channel names of the flood workload.
pub struct FloodChannels {
    pub gossip: Name,
    pub deliver: Name,
    pub value: Name,
}

pub fn flood_channels() -> FloodChannels {
    FloodChannels {
        gossip: Name::intern_raw("gl_gossip"),
        deliver: Name::intern_raw("gl_deliver"),
        value: Name::intern_raw("gl_gv"),
    }
}

/// One peer: hear the gossip once, deliver it locally.
pub fn flood_peer(ch: &FloodChannels) -> P {
    let x = Name::intern_raw("gl_gx");
    inp(ch.gossip, [x], out_(ch.deliver, [x]))
}

/// `gossip̄⟨v⟩ ‖ Πⁿ peer` — the origin plus `n` identical peers.
pub fn flood_system(n: usize, reversed: bool) -> (P, Defs, FloodChannels) {
    let ch = flood_channels();
    let origin = out_(ch.gossip, [ch.value]);
    let peers = (0..n).map(|_| flood_peer(&ch));
    let sys = if reversed {
        par_of(peers.chain(std::iter::once(origin)))
    } else {
        par_of(std::iter::once(origin).chain(peers))
    };
    (sys, Defs::new(), ch)
}

/// Gossip convergence as equivalence: hiding the gossip medium, the
/// flood is weakly bisimilar to `Πⁿ deliver̄⟨v⟩` — everyone delivers,
/// nothing else is observable.
pub fn flood_converges(n: usize) -> bool {
    let (sys, defs, ch) = flood_system(n, false);
    let spec = par_of((0..n).map(|_| out_(ch.deliver, [ch.value])));
    Checker::new(&defs).weak(&new(ch.gossip, sys), &spec)
}

/// Exhaustive convergence: every maximal run of the open flood
/// contains exactly `n` deliveries.
pub fn every_run_delivers(n: usize, max_states: usize) -> bool {
    let (sys, defs, ch) = flood_system(n, false);
    let g = explore(&sys, &defs, ExploreOpts { max_states });
    assert!(!g.truncated, "state budget too small");
    all_maximal_runs_output_exactly(&g, ch.deliver, n)
}

/// The node-symmetry the compositional engine banks on: permuting the
/// identical peers around the origin cannot change behaviour.
pub fn node_order_irrelevant(n: usize) -> bool {
    let (sys, defs, _) = flood_system(n, false);
    let (rev, _, _) = flood_system(n, true);
    Checker::new(&defs).weak(&sys, &rev)
}

/// DFS over all maximal paths of `g`, demanding exactly `want` outputs
/// on `chan` along each.
pub(crate) fn all_maximal_runs_output_exactly(g: &StateGraph, chan: Name, want: usize) -> bool {
    fn dfs(g: &StateGraph, chan: Name, i: usize, seen: usize, want: usize, ok: &mut bool) {
        if g.edges[i].is_empty() {
            if seen != want {
                *ok = false;
            }
            return;
        }
        for (act, j) in &g.edges[i] {
            let inc = usize::from(act.is_output() && act.subject() == Some(chan));
            dfs(g, chan, *j, seen + inc, want, ok);
            if !*ok {
                return;
            }
        }
    }
    let mut ok = true;
    dfs(g, chan, 0, 0, want, &mut ok);
    ok
}

// ---------------------------------------------------------------------
// #3c — fault-tolerant broadcast (relay chain under loss)
// ---------------------------------------------------------------------

fn hop(i: usize) -> Name {
    Name::intern_raw(&format!("gl_g{i}"))
}

/// The local-delivery channel of relay `i`.
pub fn delivered(i: usize) -> Name {
    Name::intern_raw(&format!("gl_dl{i}"))
}

/// An `n`-relay chain: the origin injects on hop 0, relay `i` delivers
/// locally and forwards to hop `i+1` (the last relay only delivers).
/// `persistent` builds the fault-tolerant variant: the origin pumps
/// forever and every relay re-listens after forwarding, so a lost hop
/// is retried on the next pump round.
pub fn relay_chain(n: usize, persistent: bool) -> (P, Defs, Name) {
    assert!(n >= 1);
    let v = Name::intern_raw("gl_rv");
    let x = Name::intern_raw("gl_rx");
    let origin = if persistent {
        let y = Ident::new("GlRelayPump");
        rec(y, [], out(hop(0), [v], var(y, [])), [])
    } else {
        out_(hop(0), [v])
    };
    let relay = |i: usize| -> P {
        let forward = |k: P| {
            if i + 1 < n {
                out(hop(i + 1), [x], k)
            } else {
                k
            }
        };
        if persistent {
            let r = Ident::new(&format!("GlRelay{i}"));
            rec(
                r,
                [],
                inp(
                    hop(i),
                    [x],
                    par(out_(delivered(i), [x]), forward(var(r, []))),
                ),
                [],
            )
        } else {
            inp(hop(i), [x], par(out_(delivered(i), [x]), forward(nil())))
        }
    };
    let sys = par_of(std::iter::once(origin).chain((0..n).map(relay)));
    (sys, Defs::new(), delivered(n - 1))
}

/// The fault-tolerant chain with a production retry shape: the origin
/// pump spaces its re-offers with `backoff`'s deterministic seeded
/// exponential-backoff-with-jitter schedule
/// ([`crate::retry::RetryPolicy::Backoff`]) instead of pumping every
/// scheduler turn; the relays stay persistent re-listeners. Liveness is
/// unchanged — the pump still retries forever, settling at the capped
/// delay — so delivery probability still tends to 1 with the horizon,
/// while a congested medium sees exponentially fewer redundant offers.
pub fn relay_chain_backoff(n: usize, backoff: &Backoff) -> (P, Defs, Name) {
    assert!(n >= 1);
    let v = Name::intern_raw("gl_rv");
    let x = Name::intern_raw("gl_rx");
    let origin =
        crate::retry::RetryPolicy::Backoff(backoff.clone()).send("GlRelayBo", hop(0), &[v]);
    let relay = |i: usize| -> P {
        let forward = |k: P| {
            if i + 1 < n {
                out(hop(i + 1), [x], k)
            } else {
                k
            }
        };
        let r = Ident::new(&format!("GlRelay{i}"));
        rec(
            r,
            [],
            inp(
                hop(i),
                [x],
                par(out_(delivered(i), [x]), forward(var(r, []))),
            ),
            [],
        )
    };
    let sys = par_of(std::iter::once(origin).chain((0..n).map(relay)));
    (sys, Defs::new(), delivered(n - 1))
}

/// Monte-Carlo reliability of the backoff-spaced chain — the
/// [`relay_reliability`] curve for [`relay_chain_backoff`].
pub fn relay_reliability_backoff(
    n: usize,
    backoff: &Backoff,
    plan: &FaultPlan,
    steps: usize,
    samples: usize,
) -> ReliabilityEstimate {
    let (sys, defs, watch) = relay_chain_backoff(n, backoff);
    convergence_mc(
        &sys,
        &defs,
        plan,
        watch,
        steps,
        samples,
        &Budget::unlimited(),
        &CheckpointCfg::default(),
    )
    .expect("unlimited budget and inert checkpointing cannot interrupt")
}

/// Monte-Carlo reliability of end-to-end delivery under `plan`:
/// the probability that the *last* relay delivers within `steps`.
pub fn relay_reliability(
    n: usize,
    persistent: bool,
    plan: &FaultPlan,
    steps: usize,
    samples: usize,
) -> ReliabilityEstimate {
    let (sys, defs, watch) = relay_chain(n, persistent);
    convergence_mc(
        &sys,
        &defs,
        plan,
        watch,
        steps,
        samples,
        &Budget::unlimited(),
        &CheckpointCfg::default(),
    )
    .expect("unlimited budget and inert checkpointing cannot interrupt")
}

/// Exact bounded-depth delivery interval for the one-shot chain under
/// a loss-only plan; closes on `(1-p)ⁿ` at modest depth.
pub fn relay_reliability_exact(
    n: usize,
    plan: &FaultPlan,
    depth: usize,
    budget: &Budget,
) -> Result<ExactOutcome, ProbError> {
    let (sys, defs, watch) = relay_chain(n, false);
    convergence_exact(&sys, &defs, plan, watch, depth, budget)
}

/// One seeded faulty run: did the last relay deliver, and the
/// replayable log of what the fault runtime did to us.
pub fn delivered_under_faults(
    n: usize,
    persistent: bool,
    plan: FaultPlan,
    steps: usize,
) -> (bool, FaultLog) {
    let (sys, defs, watch) = relay_chain(n, persistent);
    let mut sim = FaultySimulator::new(&defs, plan);
    let (trace, log) = sim.run_until_output(&sys, watch, steps);
    (!trace.outputs_on(watch).is_empty(), log)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_is_read_your_writes() {
        assert!(read_your_writes());
        assert!(!stale_read_your_writes());
    }

    #[test]
    fn flood_reaches_everyone() {
        for n in 1..=4 {
            assert!(flood_converges(n), "flood ≉ Πⁿ deliver at n={n}");
        }
    }

    #[test]
    fn flood_delivers_on_every_run() {
        for n in 1..=4 {
            assert!(every_run_delivers(n, 100_000), "missed delivery at n={n}");
        }
    }

    #[test]
    fn peers_are_interchangeable() {
        for n in 2..=4 {
            assert!(node_order_irrelevant(n), "peer order mattered at n={n}");
        }
    }

    #[test]
    fn faultfree_chain_always_delivers() {
        let plan = FaultPlan::new(7);
        let (ok, log) = delivered_under_faults(3, false, plan, 64);
        assert!(ok);
        assert_eq!(log.losses(), 0);
    }

    #[test]
    fn oneshot_chain_matches_closed_form() {
        // Per-delivery loss p on every hop ⇒ end-to-end (1-p)^n.
        let p = 0.2;
        let n = 3;
        let plan = FaultPlan::new(11).with_default_loss(p).unwrap();
        let out = relay_reliability_exact(n, &plan, 4 * n + 4, &Budget::unlimited())
            .expect("exact backend on loss-only plan");
        let expect = (1.0 - p).powi(n as i32);
        assert!(out.truncated_mass() < 1e-9, "interval did not close");
        assert!(
            (out.p_lo - expect).abs() < 1e-9,
            "exact {} vs closed form {expect}",
            out.p_lo
        );
    }

    #[test]
    fn retries_beat_oneshot_under_loss() {
        let plan = FaultPlan::new(13).with_default_loss(0.3).unwrap();
        let oneshot = relay_reliability(3, false, &plan, 64, 400);
        let retried = relay_reliability(3, true, &plan, 64, 400);
        assert!(
            retried.probability > oneshot.probability,
            "retry {} ≤ one-shot {}",
            retried.probability,
            oneshot.probability
        );
        // The pump makes delivery near-certain within the step budget.
        assert!(retried.probability > 0.95, "pump too lossy: {retried:?}");
    }

    #[test]
    fn backoff_retries_beat_oneshot_under_loss() {
        // The τ-spaced schedule attempts less often, so it needs a
        // longer horizon than the tight pump — but it must close the
        // same gap: dominate one-shot and approach certainty.
        let plan = FaultPlan::new(13).with_default_loss(0.3).unwrap();
        let bo = Backoff::new(0xB0).with_cap(4);
        let oneshot = relay_reliability(3, false, &plan, 64, 200);
        let spaced = relay_reliability_backoff(3, &bo, &plan, 192, 200);
        assert!(
            spaced.probability > oneshot.probability,
            "backoff retry {} ≤ one-shot {}",
            spaced.probability,
            oneshot.probability
        );
        assert!(
            spaced.probability > 0.9,
            "backoff pump too lossy: {spaced:?}"
        );
        // Same seed, same curve: the schedule is frozen into the term.
        let again = relay_reliability_backoff(3, &bo, &plan, 192, 200);
        assert_eq!(spaced.probability, again.probability);
        assert_eq!(spaced.successes, again.successes);
    }
}
