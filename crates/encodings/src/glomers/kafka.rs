//! Glomers challenge #5 — **kafka-style replicated log**.
//!
//! Clients append records; the log leader assigns each accepted record
//! a strictly increasing offset and announces the assignment. The
//! invariant Maelstrom checks is *offset monotonicity*: a client that
//! pipelines `append(a); append(b)` must see `a` at an earlier offset
//! than `b`, and nobody may ever observe assignments out of order.
//!
//! ```text
//! Leader ≝ append(v). assign̄⟨v,o₁⟩. append(w). assign̄⟨w,o₂⟩
//! Client ≝ append̄⟨a⟩. assign(x,p). append̄⟨b⟩. assign(y,q). committed̄⟨p,q⟩
//! ```
//!
//! The RPC pipelining is load-bearing: broadcasts to a non-listening
//! leader are *discarded* (the calculus' deafness discipline), so a
//! client that fires both appends concurrently can lose one — exactly
//! the at-most-once anomaly real Kafka producers guard against with
//! in-flight windows.
//!
//! **Correctness conditions** (machine-checked):
//! * monotonicity as equivalence — hiding the RPC channels, the system
//!   is weakly bisimilar to `committed̄⟨o₁,o₂⟩`: the first append got
//!   the first offset, in every run;
//! * an in-calculus order monitor (`assign(v,o). (o=o₂) err̄`) whose
//!   `err` is exhaustively unreachable — and stays unreachable under
//!   seeded crash/partition fault plans, replayed via the `FaultLog`;
//! * the negative control, a leader handing out offsets high-to-low,
//!   must fail the equivalence.

use bpi_core::builder::*;
use bpi_core::name::Name;
use bpi_core::syntax::{Defs, P};
use bpi_equiv::Checker;
use bpi_semantics::{output_reachable, ExploreOpts, FaultLog, FaultPlan, FaultySimulator};

/// Channel names of the log workload.
pub struct Channels {
    pub append: Name,
    pub assign: Name,
    pub committed: Name,
    pub err: Name,
}

pub fn channels() -> Channels {
    Channels {
        append: Name::intern_raw("gl_kap"),
        assign: Name::intern_raw("gl_kas"),
        committed: Name::intern_raw("gl_kcm"),
        err: Name::intern_raw("gl_kerr"),
    }
}

/// The `i`-th log offset (1-based, like Maelstrom's).
pub fn offset(i: usize) -> Name {
    Name::intern_raw(&format!("gl_ko{i}"))
}

fn record(tag: &str) -> Name {
    Name::intern_raw(&format!("gl_k{tag}"))
}

/// The capacity-2 leader; `monotone = false` builds the negative
/// control that hands offsets out high-to-low.
pub fn leader(ch: &Channels, monotone: bool) -> P {
    let (v, w) = (Name::intern_raw("gl_kv"), Name::intern_raw("gl_kw"));
    let (first, second) = if monotone {
        (offset(1), offset(2))
    } else {
        (offset(2), offset(1))
    };
    inp(
        ch.append,
        [v],
        out(
            ch.assign,
            [v, first],
            inp(ch.append, [w], out_(ch.assign, [w, second])),
        ),
    )
}

/// The pipelining producer: append, await the assignment, append
/// again, publish both assigned offsets.
pub fn client(ch: &Channels) -> P {
    let (x, p) = (Name::intern_raw("gl_kx"), Name::intern_raw("gl_kp"));
    let (y, q) = (Name::intern_raw("gl_ky"), Name::intern_raw("gl_kq"));
    out(
        ch.append,
        [record("a")],
        inp(
            ch.assign,
            [x, p],
            out(
                ch.append,
                [record("b")],
                inp(ch.assign, [y, q], out_(ch.committed, [p, q])),
            ),
        ),
    )
}

/// The order monitor: fires `err` iff the *first* assignment anyone
/// observes carries the second offset.
pub fn monitor(ch: &Channels) -> P {
    let (v, o) = (Name::intern_raw("gl_kmv"), Name::intern_raw("gl_kmo"));
    inp(ch.assign, [v, o], mat_(o, offset(2), out_(ch.err, [])))
}

/// Offset monotonicity as equivalence:
/// `ν append, assign (Leader ‖ Client) ≈ committed̄⟨o₁,o₂⟩`.
pub fn offsets_monotone() -> bool {
    let ch = channels();
    let sys = new_many([ch.append, ch.assign], par(leader(&ch, true), client(&ch)));
    let spec = out_(ch.committed, [offset(1), offset(2)]);
    Checker::new(&Defs::new()).weak(&sys, &spec)
}

/// The reordering leader must fail the same equivalence.
pub fn reordered_monotone() -> bool {
    let ch = channels();
    let sys = new_many([ch.append, ch.assign], par(leader(&ch, false), client(&ch)));
    let spec = out_(ch.committed, [offset(1), offset(2)]);
    Checker::new(&Defs::new()).weak(&sys, &spec)
}

/// The open system with the order monitor attached, in fixed component
/// order `[leader, client, monitor]` (fault plans address nodes by
/// this index).
pub fn monitored_system(monotone: bool) -> (P, Defs, Channels) {
    let ch = channels();
    let sys = par_of([leader(&ch, monotone), client(&ch), monitor(&ch)]);
    (sys, Defs::new(), ch)
}

/// Exhaustive fault-free safety: `Some(true)` iff the order monitor
/// can never fire.
pub fn first_assign_is_first_offset(max_states: usize) -> Option<bool> {
    let (sys, defs, ch) = monitored_system(true);
    output_reachable(&sys, &defs, ch.err, ExploreOpts { max_states }).map(|reachable| !reachable)
}

/// One seeded faulty run of the monitored system: returns whether the
/// order monitor stayed silent (monotonicity is *safety*: crashes and
/// partitions may lose the commit, never reorder it) and the replay
/// log.
pub fn monotone_under_faults(plan: FaultPlan, steps: usize) -> (bool, FaultLog) {
    let (sys, defs, ch) = monitored_system(true);
    let mut sim = FaultySimulator::new(&defs, plan);
    let (trace, log) = sim.run(&sys, steps);
    let silent = trace.outputs_on(ch.err).is_empty();
    // Any commit that does appear must carry the offsets in order.
    let commits_ok = trace
        .outputs_on(ch.committed)
        .iter()
        .all(|objs| objs.as_slice() == [offset(1), offset(2)]);
    (silent && commits_ok, log)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_are_monotone() {
        assert!(offsets_monotone());
        assert!(!reordered_monotone());
    }

    #[test]
    fn monitor_never_fires_faultfree() {
        assert_eq!(first_assign_is_first_offset(100_000), Some(true));
    }

    #[test]
    fn reordering_leader_trips_the_monitor() {
        let (sys, defs, ch) = monitored_system(false);
        let reach = output_reachable(
            &sys,
            &defs,
            ch.err,
            ExploreOpts {
                max_states: 100_000,
            },
        );
        assert_eq!(reach, Some(true));
    }

    #[test]
    fn monotone_under_crash_and_partition_sweep() {
        for seed in 0..20 {
            // Crash each node in turn at various steps, and freeze the
            // leader over a window: safety must survive all of it.
            for node in 0..3 {
                let plan = FaultPlan::new(seed).with_crash(seed as usize % 4, node);
                let (ok, _) = monotone_under_faults(plan, 32);
                assert!(ok, "order violated, crash node={node} seed={seed}");
            }
            let plan = FaultPlan::new(seed).with_stop(1, 3, 0);
            let (ok, _) = monotone_under_faults(plan, 32);
            assert!(ok, "order violated under leader freeze, seed={seed}");
        }
    }
}
