//! Cross-cutting diagnostics: the explorer, the τ-SCC analysis and
//! state normalisation agree with each other on the repository's own
//! example systems.

use bpi::core::builder::*;
use bpi::core::syntax::Defs;
use bpi::encodings::election::election_system;
use bpi::semantics::{analyse, explore, normalize_state, EngineError, ExploreOpts};

#[test]
fn capped_explorer_is_a_prefix_of_the_full_graph_on_election() {
    // A state cap stops the one exploration loop part way: the partial
    // graph holds the first `cap` states of the full run, in its order,
    // with each of their edges whose target lies inside the cap.
    let (sys, defs, _ch) = election_system(4);
    let full = explore(&sys, &defs, ExploreOpts::default());
    assert!(full.is_complete() && full.len() > 8);
    let capped = |max_states| ExploreOpts {
        max_states,
        ..ExploreOpts::default()
    };
    for cap in [1, 7, full.len() / 2, full.len() - 1] {
        let part = explore(&sys, &defs, capped(cap));
        let limit = EngineError::StateBudgetExceeded { limit: cap };
        assert_eq!(part.interrupted, Some(limit), "cap {cap}");
        assert!(part.truncated);
        assert_eq!(part.states, full.states[..cap], "states under cap {cap}");
        for (i, out) in part.edges.iter().enumerate() {
            let inside = full.edges[i].iter().filter(|(_, j)| *j < cap);
            assert!(out.iter().eq(inside), "edges of state {i} under cap {cap}");
        }
    }
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
