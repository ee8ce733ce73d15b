//! What resuming a decoded graph-build park costs the term store.
//!
//! `Graph::continue_build` re-conses every committed state of a resumed
//! build to rebuild its index. A decoded checkpoint's node table shares
//! each state's subterms with the states after it. When no live cell
//! holds those subterms, consing the first state makes each decoded node
//! the canonical allocation of its class, and every later state is one
//! pointer probe, so the store's hash hits plus misses grow linearly in
//! the committed states. A holder that kept the parking run's cells live,
//! such as a process-global successor memo on the build path, would have
//! each later state found by hash, node by node: a resume quadratic in a
//! ladder's states.
//!
//! The interner's counters are process-wide, so this test has a binary
//! of its own. `--nocapture` prints the readings.

use bpi_core::builder::*;
use bpi_core::store::store_stats;
use bpi_core::syntax::{Defs, P};
use bpi_equiv::{Checker, Checkpoint, SliceOutcome, Variant};
use std::time::Instant;

/// Store probes (hash hits plus misses) allowed per committed state.
const PROBES_PER_STATE: u64 = 4;

/// `τⁿ.0`: n + 1 states, each the continuation of the one before.
fn ladder(n: usize) -> P {
    (0..n).fold(nil(), |p, _| tau(p))
}

/// Parks a strong-labelled check of an n-rung ladder in `build_left` at
/// n/2 fuel units, round-trips the park through its text, and resumes
/// one unit in the process that parked it.
#[test]
fn a_decoded_build_park_resumes_in_linear_store_work() {
    let defs = Defs::new();
    let c = Checker::new(&defs);
    let v = Variant::StrongLabelled;
    for n in [1_000, 2_000] {
        let (p, q) = (ladder(n), ladder(n + 1));
        let parked = match c.run_slice(v, &p, &q, None, n / 2) {
            Ok(SliceOutcome::Parked(ck)) => ck,
            Ok(done) => panic!("n = {n}: half the fuel finished the check: {done:?}"),
            Err(e) => panic!("n = {n}: the check stopped: {}", e.error),
        };
        assert_eq!(parked.phase(), "build_left");
        let ck: Checkpoint = parked.to_text().parse().expect("the park decodes");
        drop(parked);
        let committed = ck.states_explored() as u64;

        let (_, hash0, miss0) = store_stats();
        let start = Instant::now();
        let resumed = c.run_slice(v, &p, &q, Some(ck), 1);
        let elapsed = start.elapsed();
        let (_, hash1, miss1) = store_stats();
        let (hash, miss) = (hash1 - hash0, miss1 - miss0);
        println!(
            "n = {n}: {committed} states, resumed in {elapsed:?}: \
             {hash} hash hits, {miss} misses"
        );
        assert!(
            matches!(resumed, Ok(SliceOutcome::Parked(_))),
            "n = {n}: one unit parks again: {resumed:?}"
        );
        assert!(
            hash + miss <= PROBES_PER_STATE * committed,
            "n = {n}: {hash} hash hits and {miss} misses over {committed} states"
        );
    }
}
