//! Example 1 of the paper as a runnable scenario: distributed cycle
//! detection over broadcast.
//!
//! ```sh
//! cargo run --example cycle_detection            # built-in demo graphs
//! cargo run --example cycle_detection -- a:b b:c c:a
//! ```
//!
//! Each `src:dst` argument adds a directed edge; vertices are channels,
//! each edge gets a manager that broadcasts a private token and forwards
//! foreign ones, and a cycle is reported exactly when some manager hears
//! its own token come home.

use bpi::core::syntax::Defs;
use bpi::encodings::cycle::{
    detect_by_exploration, edge_managers_system, has_cycle_dfs, Graph, Verdict,
};
use bpi::semantics::{explore, ExploreOpts};

fn parse_args() -> Option<Graph> {
    let edges: Vec<(String, String)> = std::env::args()
        .skip(1)
        .map(|arg| {
            let (a, b) = arg
                .split_once(':')
                .unwrap_or_else(|| panic!("edge {arg:?} is not of the form src:dst"));
            (a.to_string(), b.to_string())
        })
        .collect();
    if edges.is_empty() {
        None
    } else {
        Some(Graph { edges })
    }
}

fn report(name: &str, g: &Graph) {
    let expect = has_cycle_dfs(g);
    let start = std::time::Instant::now();
    let (verdict, graph) = detect_by_exploration(g, 60_000);
    let elapsed = start.elapsed();
    println!(
        "{name:<12} edges={:<2} verdict={verdict:?} (DFS says cycle={expect}) in {elapsed:.2?}",
        g.edges.len(),
    );
    match verdict {
        Verdict::Cycle => assert!(expect, "false positive!"),
        Verdict::NoCycle => {
            assert!(!expect, "false negative!");
            println!("  full state space: {} states", graph.len());
        }
        Verdict::Unknown => println!("  (state budget exhausted)"),
    }
    if let Verdict::Cycle = verdict {
        // Re-explore within a modest budget to extract a witness trace.
        let (sys, defs, o) = edge_managers_system(g);
        let defs: Defs = defs;
        let small = explore(&sys, &defs, ExploreOpts { max_states: 20_000 });
        if let Some(trace) = small.trace_to_output(o) {
            println!(
                "  witness trace ({} steps): {}",
                trace.len(),
                trace
                    .iter()
                    .map(|a| a.to_string())
                    .collect::<Vec<_>>()
                    .join(" · ")
            );
        }
    }
}

fn main() {
    if let Some(g) = parse_args() {
        report("custom", &g);
        return;
    }
    report("chain", &Graph::new(&[("a", "b"), ("b", "c"), ("c", "d")]));
    report(
        "diamond",
        &Graph::new(&[("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]),
    );
    report("two-cycle", &Graph::new(&[("a", "b"), ("b", "a")]));
    report(
        "triangle",
        &Graph::new(&[("a", "b"), ("b", "c"), ("c", "a")]),
    );
    report(
        "lollipop",
        &Graph::new(&[("a", "b"), ("b", "c"), ("c", "b")]),
    );
}
