//! Cross-cutting diagnostics: the explorer, the τ-SCC analysis and
//! state normalisation agree with each other on the repository's own
//! example systems.

use bpi::core::builder::*;
use bpi::core::syntax::Defs;
use bpi::encodings::election::election_system;
use bpi::semantics::{
    analyse, explore, explore_resume_from, explore_with_checkpoint, normalize_state, Budget,
    CheckpointCfg, ExploreCheckpoint, ExploreOpts,
};

#[test]
fn checkpointed_explorer_agrees_on_election() {
    // Interrupt the checkpointed explorer every few states, park each
    // checkpoint through its text format, resume: the final graph is the
    // plain explorer's, state for state and edge for edge.
    let (sys, defs, _ch) = election_system(4);
    let opts = ExploreOpts::default();
    let g1 = explore(&sys, &defs, opts);
    let budget = Budget::unlimited();
    let mut slices = 0;
    let mut run = explore_with_checkpoint(&sys, &defs, opts, &budget, &CheckpointCfg::fuelled(7));
    let g2 = loop {
        match run {
            Ok(g) => break g,
            Err(stop) => {
                slices += 1;
                let parked = ExploreCheckpoint::from_text(&stop.checkpoint.to_text())
                    .expect("checkpoint text round-trips");
                assert_eq!(parked, stop.checkpoint);
                run = explore_resume_from(parked, &defs, opts, &budget, &CheckpointCfg::fuelled(7));
            }
        }
    };
    assert!(slices > 1, "election(4) should need several slices");
    assert!(!g1.truncated && !g2.truncated);
    assert_eq!(g1.len(), g2.len());
    assert_eq!(g1.edge_count(), g2.edge_count());
    assert_eq!(g1.edges, g2.edges);
    let s1: Vec<String> = g1.states.iter().map(|s| s.to_string()).collect();
    let s2: Vec<String> = g2.states.iter().map(|s| s.to_string()).collect();
    assert_eq!(s1, s2);
}

#[test]
fn election_analysis_profile() {
    let (sys, defs, ch) = election_system(3);
    let g = explore(&sys, &defs, ExploreOpts::default());
    let an = analyse(&g);
    assert!(!an.may_diverge(), "the protocol always terminates");
    assert!(!an.terminal_states.is_empty());
    // Traffic: claims, announcements and follow reports, nothing else.
    for chan in an.traffic.keys() {
        assert!(
            [ch.claim, ch.led, ch.follow].contains(chan),
            "unexpected traffic on {chan}"
        );
    }
    assert!(an.traffic[&ch.claim] >= 1);
}

#[test]
fn normalize_state_is_idempotent_and_stable() {
    use bpi::equiv::arbitrary::{Gen, GenCfg};
    let cfg = GenCfg::finite_monadic(names(["a", "b"]).to_vec());
    for seed in 0..60u64 {
        let p = Gen::new(cfg.clone(), seed).process();
        let protected = p.free_names();
        let n1 = normalize_state(&p, &protected);
        let n2 = normalize_state(&n1, &protected);
        assert_eq!(n1, n2, "normalisation not idempotent on {p}");
    }
}

#[test]
fn truncation_budget_is_respected_exactly() {
    // A growing system: at any budget the explorer stops at ≤ budget
    // states and flags truncation.
    let defs = Defs::new();
    let b = bpi::core::Name::new("b");
    let xid = bpi::core::syntax::Ident::new("DgGrow");
    let p = rec(xid, [b], tau(par(var(xid, [b]), out_(b, []))), [b]);
    for budget in [1usize, 5, 17] {
        let g = explore(
            &p,
            &defs,
            ExploreOpts {
                max_states: budget,
                normalize_extruded: true,
            },
        );
        assert!(g.truncated);
        assert!(g.len() <= budget, "budget {budget} exceeded: {}", g.len());
    }
}
