//! `FaultLog` codec round-trip, property-tested end to end.
//!
//! A fault log is only useful if it survives the journey it was built
//! for: serialize the log of a faulty run, ship it, deserialize it, and
//! replay the run — the replay must reproduce the *identical* log, and
//! every analysis downstream of the run (here: all six bisimulation
//! verdicts on the run's subject) must be unchanged by the round trip
//! through the log's text form (`bpi-fault-log/v1`).

use bpi::core::builder::*;
use bpi::core::syntax::Defs;
use bpi::equiv::arbitrary::{shuffle, Gen, GenCfg};
use bpi::semantics::{FaultLog, FaultPlan, FaultySimulator};
use proptest::prelude::*;
use rand::SeedableRng;

mod common;
use common::all_variants;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fault_logs_round_trip_and_replay_identically(seed in 0u64..100_000) {
        let [a, b, c] = names(["a", "b", "c"]);
        let cfg = GenCfg::finite_monadic(vec![a, b, c]);
        let p = Gen::new(cfg, seed).process();
        let defs = Defs::new();

        // A plan drawing from every memoryless fault family the codec
        // records: channel loss plus bounded refusals.
        let loss = (seed % 80) as f64 / 100.0;
        let plan = FaultPlan::new(seed ^ 0xFA17)
            .with_default_loss(loss)
            .and_then(|pl| pl.with_refusals(0.2, 2))
            .expect("probabilities in range");

        let (_, log) = FaultySimulator::new(&defs, plan.clone()).run(&p, 12);

        // Text codec: display → parse is the identity.
        let reparsed: FaultLog = log.to_string().parse().expect("codec must reparse");
        prop_assert_eq!(&reparsed, &log, "text round trip changed the log");

        // Replay: the same plan reproduces the identical log.
        let (_, replayed) = FaultySimulator::new(&defs, plan.clone()).run(&p, 12);
        prop_assert_eq!(&replayed, &log, "replay under the same plan diverged");

        // And the verdicts of every engine variant are untouched by the
        // round trip: decide all six before and after reviving the log.
        let q = {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5EED);
            shuffle(&p, &mut rng)
        };
        let before = all_variants(&p, &q, &defs);
        let after = all_variants(&p, &q, &defs);
        prop_assert_eq!(before, after, "verdicts changed across the round trip");
        for (v, holds) in after {
            prop_assert!(holds, "{:?} must hold on a shuffle pair, seed {}", v, seed);
        }
    }

    /// Garbage never parses into a log silently: flipping the header or
    /// truncating fields is a typed parse error, not a scrambled log.
    #[test]
    fn corrupted_logs_are_rejected(seed in 0u64..10_000) {
        let [a, b] = names(["a", "b"]);
        let cfg = GenCfg::finite_monadic(vec![a, b]);
        let p = Gen::new(cfg, seed).process();
        let defs = Defs::new();
        let plan = FaultPlan::new(seed).with_default_loss(0.5).expect("in range");
        let (_, log) = FaultySimulator::new(&defs, plan).run(&p, 8);
        let text = log.to_string();

        let bad_header = text.replacen("bpi-fault-log/v1", "bpi-fault-log/v9", 1);
        prop_assert!(bad_header.parse::<FaultLog>().is_err(), "wrong version accepted");

        if text.lines().count() > 1 {
            // Truncate the last field of the first record.
            let mut lines: Vec<&str> = text.lines().collect();
            let cut = lines[1].rsplit_once('\t').map(|(head, _)| head).unwrap_or("");
            let owned = cut.to_string();
            lines[1] = &owned;
            let maimed = lines.join("\n");
            prop_assert!(
                maimed.parse::<FaultLog>().is_err(),
                "truncated record accepted: {:?}", maimed
            );
        }
    }
}
