//! Glomers challenge #6 — **totally-available transactions**,
//! read-committed isolation.
//!
//! A replicated store serves reads and applies *committed* writes;
//! writers stage their values privately and publish only on commit.
//! Read-committed means no client ever observes an uncommitted
//! (dirty) value; total availability means reads keep completing even
//! while writer nodes crash or sit behind a partition.
//!
//! ```text
//! Store⟨cur⟩ ≝ rd(). val̄⟨cur⟩. Store⟨cur⟩  +  commit(x). Store⟨x⟩
//! Committer ≝ commit̄⟨v₁⟩
//! Aborter   ≝ ν stage (stagē⟨v_bad⟩)        (stages, never commits)
//! Reader    ≝ rd̄. val(x). donē⟨x⟩
//! Monitor   ≝ val(x). (x=v_bad) err̄
//! ```
//!
//! **Correctness conditions** (machine-checked):
//! * isolation, exhaustively — the dirty-read monitor's `err` is
//!   unreachable over the full state space of the open system; the
//!   negative control (a writer that *commits* the staged value)
//!   must trip it;
//! * a serial scenario as equivalence — commit-then-read, with the RPC
//!   channels hidden, is weakly bisimilar to `donē⟨v₁⟩` (the staged
//!   `v_bad` is invisible in every run);
//! * availability under writer faults — Monte-Carlo probability 1.0
//!   that the read completes while the committer/aborter crash or
//!   freeze mid-run; crashing the *store* is the negative control
//!   (single-copy data is exactly what Maelstrom's final challenge
//!   forbids you to lose).

use bpi_core::builder::*;
use bpi_core::name::Name;
use bpi_core::syntax::{Defs, Ident, P};
use bpi_equiv::Checker;
use bpi_semantics::{
    convergence_mc, output_reachable, Budget, CheckpointCfg, ExploreOpts, FaultPlan,
    ReliabilityEstimate,
};

/// Channel names of the transaction workload.
pub struct Channels {
    pub rd: Name,
    pub val: Name,
    pub commit: Name,
    pub done: Name,
    pub err: Name,
}

pub fn channels() -> Channels {
    Channels {
        rd: Name::intern_raw("gl_xrd"),
        val: Name::intern_raw("gl_xval"),
        commit: Name::intern_raw("gl_xcmt"),
        done: Name::intern_raw("gl_xdone"),
        err: Name::intern_raw("gl_xerr"),
    }
}

pub fn v0() -> Name {
    Name::intern_raw("gl_xv0")
}
pub fn v1() -> Name {
    Name::intern_raw("gl_xv1")
}
/// The value the aborting writer stages but never commits.
pub fn vbad() -> Name {
    Name::intern_raw("gl_xvbad")
}

/// `Store⟨cur⟩` as an in-term parametric recursion, started at
/// `initial` (a `Defs` body could be neither ν-captured nor protected
/// from extruded-name canonicalisation — see the `unique_ids` module
/// docs).
pub fn store(initial: Name) -> P {
    let ch = channels();
    let s = Ident::new("GlTxnStore");
    let cur = Name::intern_raw("gl_xcur");
    let x = Name::intern_raw("gl_xx");
    rec(
        s,
        [cur],
        sum(
            inp(ch.rd, [], out(ch.val, [cur], var(s, [cur]))),
            inp(ch.commit, [x], var(s, [x])),
        ),
        [initial],
    )
}

/// The aborting writer: stages `v_bad` on a private channel, then
/// aborts. The staging broadcast is a τ under the restriction — the
/// uncommitted value never reaches the wire.
pub fn aborter() -> P {
    let stage = Name::intern_raw("gl_xstage");
    new(stage, out_(stage, [vbad()]))
}

/// A writer that (wrongly) commits the staged value — the negative
/// control for isolation.
pub fn dirty_writer(ch: &Channels) -> P {
    out_(ch.commit, [vbad()])
}

/// The dirty-read monitor.
pub fn monitor(ch: &Channels) -> P {
    let x = Name::intern_raw("gl_xmx");
    inp(ch.val, [x], mat_(x, vbad(), out_(ch.err, [])))
}

/// One read transaction that publishes what it saw.
pub fn reader(ch: &Channels) -> P {
    let x = Name::intern_raw("gl_xrx");
    out(ch.rd, [], inp(ch.val, [x], out_(ch.done, [x])))
}

/// The open system in fixed component order
/// `[store, reader, committer, aborter, monitor]` — fault plans
/// address nodes by this index.
pub fn system(second_writer: P) -> (P, Defs, Channels) {
    let ch = channels();
    let sys = par_of([
        store(v0()),
        reader(&ch),
        out_(ch.commit, [v1()]),
        second_writer,
        monitor(&ch),
    ]);
    (sys, Defs::new(), ch)
}

/// Component index of the store / reader / committer / aborter in
/// [`system`], for fault plans.
pub const STORE: usize = 0;
pub const READER: usize = 1;
pub const COMMITTER: usize = 2;
pub const ABORTER: usize = 3;

/// Exhaustive read-committed isolation: `Some(true)` iff no
/// interleaving ever surfaces the uncommitted value.
pub fn read_committed(max_states: usize) -> Option<bool> {
    let (sys, defs, ch) = system(aborter());
    output_reachable(&sys, &defs, ch.err, ExploreOpts { max_states }).map(|reachable| !reachable)
}

/// Negative control: with a writer that commits `v_bad`, the dirty
/// read must become observable.
pub fn dirty_write_detected(max_states: usize) -> Option<bool> {
    let ch = channels();
    let (sys, defs, ch2) = system(dirty_writer(&ch));
    output_reachable(&sys, &defs, ch2.err, ExploreOpts { max_states })
}

/// The serial scenario as equivalence: a single client that commits
/// `v₁` and then reads its own write, with the aborting writer racing
/// in parallel — hiding the store RPC, the whole thing is just
/// `donē⟨v₁⟩`.
pub fn serial_equiv() -> bool {
    let ch = channels();
    let x = Name::intern_raw("gl_xsx");
    let client = out(
        ch.commit,
        [v1()],
        out(ch.rd, [], inp(ch.val, [x], out_(ch.done, [x]))),
    );
    let sys = new_many(
        [ch.rd, ch.val, ch.commit],
        par_of([store(v0()), client, aborter()]),
    );
    let spec = out_(ch.done, [v1()]);
    Checker::new(&Defs::new()).weak(&sys, &spec)
}

/// Monte-Carlo probability that the read completes (an output on
/// `done` within `steps`) under `plan`. Total availability says this
/// is 1.0 for any plan that only faults the *writer* nodes.
pub fn read_availability(plan: &FaultPlan, steps: usize, samples: usize) -> ReliabilityEstimate {
    let (sys, defs, ch) = system(aborter());
    convergence_mc(
        &sys,
        &defs,
        plan,
        ch.done,
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
    fn no_dirty_reads_exhaustively() {
        assert_eq!(read_committed(100_000), Some(true));
    }

    #[test]
    fn committing_the_staged_value_is_caught() {
        assert_eq!(dirty_write_detected(100_000), Some(true));
    }

    #[test]
    fn serial_scenario_matches_spec() {
        assert!(serial_equiv());
    }

    #[test]
    fn reads_survive_writer_crashes_and_partitions() {
        for seed in 0..10 {
            for node in [COMMITTER, ABORTER] {
                let plan = FaultPlan::new(seed).with_crash(0, node);
                let est = read_availability(&plan, 32, 50);
                assert_eq!(
                    est.probability, 1.0,
                    "read starved, crash node={node} seed={seed}"
                );
            }
            // A writer behind a partition window changes nothing either.
            let plan = FaultPlan::new(seed).with_stop(0, 8, COMMITTER);
            let est = read_availability(&plan, 32, 50);
            assert_eq!(est.probability, 1.0, "read starved under stop, seed={seed}");
        }
    }

    #[test]
    fn losing_the_store_loses_availability() {
        // The negative control: single-copy data crashed at step 0
        // cannot serve reads.
        let plan = FaultPlan::new(3).with_crash(0, STORE);
        let est = read_availability(&plan, 32, 50);
        assert_eq!(est.probability, 0.0, "reads answered by a dead store?");
    }
}
