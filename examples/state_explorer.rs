//! State-space explorer: parse a bπ process from the command line and
//! print its reachable step-move graph, deadlocks and barbs.
//!
//! ```sh
//! cargo run --example state_explorer -- 'a<v> | a(x).x<> | b(y).0'
//! cargo run --example state_explorer -- 'new a. (a<> | a().c<>)'
//! ```

use bpi::core::parse_process;
use bpi::core::syntax::Defs;
use bpi::semantics::{explore, ExploreOpts};

fn main() {
    let src = std::env::args().skip(1).collect::<Vec<_>>().join(" ");
    let src = if src.is_empty() {
        "a<v> | a(x).x<> | a(y).y<y>".to_string()
    } else {
        src
    };
    let p = match parse_process(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    let defs = Defs::new();
    println!("process: {p}\n");

    let opts = ExploreOpts::default();
    let start = std::time::Instant::now();
    let g = explore(&p, &defs, opts);
    let elapsed = start.elapsed();

    for (i, state) in g.states.iter().enumerate() {
        println!("[{i}] {state}");
        for (act, j) in &g.edges[i] {
            println!("      —{act}→ [{j}]");
        }
    }
    println!();
    println!(
        "{} states, {} transitions{} in {elapsed:.2?}",
        g.len(),
        g.edge_count(),
        if g.truncated { " (truncated)" } else { "" }
    );
    println!("deadlocked states : {:?}", g.deadlocks());
    println!("output subjects   : {:?}", g.output_subjects());
}
