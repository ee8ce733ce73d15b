//! The fault model's node-granular step against the LTS of Table 3.
//!
//! With nothing lost, the step that `FaultySimulator`, the exact chain
//! and the lossy traces share must be the LTS itself: a broadcast
//! reaches every other node in one step, listeners receive, the rest
//! discard, and a node listening on the channel at another arity blocks
//! it. So the reliable node-granular traces of a system are its LTS
//! traces, on systems that mix arities on one channel.
//!
//! Restriction stays out of the systems: an extruded name reappears in
//! later labels under a fresh `~N` spelling that depends on the walk, so
//! two walks of the same system would print it differently.

use bpi::core::builder::*;
use bpi::core::syntax::Defs;
use bpi::equiv::arbitrary::{Gen, GenCfg};
use bpi::equiv::testing::traces;
use bpi::semantics::faults::reliable_traces;

const DEPTH: usize = 3;
const SEEDS: u64 = 1_000;

#[test]
fn reliable_node_traces_are_the_lts_traces() {
    let [a, b] = names(["a", "b"]);
    let cfg = GenCfg {
        max_arity: 2,
        allow_restriction: false,
        ..GenCfg::finite_monadic(vec![a, b])
    };
    let defs = Defs::new();
    for seed in 0..SEEDS {
        let mut g = Gen::new(cfg.clone(), seed);
        let p = par_of([g.process(), g.process(), g.process()]);
        assert_eq!(
            reliable_traces(&p, &defs, DEPTH),
            traces(&p, &defs, DEPTH),
            "seed {seed}: {p}"
        );
    }
}
