//! Fault-log coverage for the Glomers fault sweeps.
//!
//! The Glomers suites drive real workloads (the relay chain, the
//! G-counter, the kafka leader) through `FaultPlan`s mixing message
//! loss, node crashes and partition windows. This file property-tests
//! the evidence trail of those sweeps, mirroring `fault_log_serde.rs`:
//! the `FaultLog` of a faulty Glomers run must survive its text codec
//! unchanged, and replaying the identical plan must
//! reproduce the identical log *and* the identical verdict — fault
//! injection is seeded pseudo-randomness, not nondeterminism.

use bpi::encodings::glomers::{broadcast, gcounter, kafka};
use bpi::semantics::{FaultLog, FaultPlan, FaultySimulator};
use proptest::prelude::*;

/// A loss × crash × partition plan drawn from `seed`, over a system of
/// `nodes` top-level components.
fn mixed_plan(seed: u64, nodes: usize) -> FaultPlan {
    let loss = (seed % 60) as f64 / 100.0;
    let mut plan = FaultPlan::new(seed ^ 0x610)
        .with_default_loss(loss)
        .expect("probability in range");
    if seed.is_multiple_of(3) {
        plan = plan.with_crash((seed % 5) as usize, (seed % nodes as u64) as usize);
    }
    if seed.is_multiple_of(4) {
        let from = (seed % 6) as usize;
        plan = plan.with_stop(from, from + 4, (seed % nodes as u64) as usize);
    }
    plan
}

fn assert_log_round_trips(log: &FaultLog) {
    let reparsed: FaultLog = log.to_string().parse().expect("codec must reparse");
    assert_eq!(&reparsed, log, "text round trip changed the log");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The relay chain (fault-tolerant broadcast rung): log codec and
    /// replay determinism across the mixed plan space, one-shot and
    /// pumped.
    #[test]
    fn relay_fault_logs_round_trip_and_replay(seed in 0u64..100_000) {
        // The low bit picks the variant, the rest seeds the plan — the
        // vendored proptest macro takes a single `ident in strategy`.
        let persistent = seed % 2 == 1;
        let seed = seed / 2;
        let plan = mixed_plan(seed, 4); // origin + 3 relays
        let (ok1, log1) = broadcast::delivered_under_faults(3, persistent, plan.clone(), 24);
        assert_log_round_trips(&log1);
        let (ok2, log2) = broadcast::delivered_under_faults(3, persistent, plan, 24);
        prop_assert_eq!(ok1, ok2, "verdict diverged on replay");
        prop_assert_eq!(log1, log2, "log diverged on replay");
    }

    /// The G-counter workload through the raw simulator: same plan,
    /// same trace outputs, same log — and the codecs are the identity.
    #[test]
    fn gcounter_fault_logs_round_trip_and_replay(seed in 0u64..100_000) {
        let persistent = seed % 2 == 1;
        let seed = seed / 2;
        let (sys, defs, ch) = gcounter::counter_system(3, persistent);
        let plan = mixed_plan(seed, 4); // 3 emitters + replica
        let (trace1, log1) = FaultySimulator::new(&defs, plan.clone()).run(&sys, 24);
        assert_log_round_trips(&log1);
        let (trace2, log2) = FaultySimulator::new(&defs, plan).run(&sys, 24);
        prop_assert_eq!(log1, log2, "log diverged on replay");
        prop_assert_eq!(
            trace1.outputs_on(ch.conv),
            trace2.outputs_on(ch.conv),
            "convergence outputs diverged on replay"
        );
    }

    /// The kafka monitor sweep: the monotonicity verdict and its log
    /// are functions of the plan alone.
    #[test]
    fn kafka_fault_logs_round_trip_and_replay(seed in 0u64..50_000) {
        let plan = mixed_plan(seed, 3); // leader + client + monitor
        let (ok1, log1) = kafka::monotone_under_faults(plan.clone(), 24);
        assert_log_round_trips(&log1);
        let (ok2, log2) = kafka::monotone_under_faults(plan, 24);
        prop_assert_eq!(ok1, ok2, "verdict diverged on replay");
        prop_assert_eq!(log1, log2, "log diverged on replay");
    }

    /// Reseeding a plan changes the losses it draws (almost surely,
    /// over this many cases) but never the codec properties.
    #[test]
    fn reseeded_plans_still_round_trip(seed in 0u64..10_000) {
        let plan = mixed_plan(seed, 4).reseeded(seed.wrapping_mul(31) ^ 0x9105);
        let (_, log) = broadcast::delivered_under_faults(3, true, plan, 16);
        assert_log_round_trips(&log);
    }
}
