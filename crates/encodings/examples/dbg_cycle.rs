use bpi_encodings::cycle::*;
use bpi_semantics::{explore, ExploreOpts};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_graph(seed: u64, n_vertices: usize, n_edges: usize) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for _ in 0..n_edges {
        let a = rng.gen_range(0..n_vertices);
        let b = rng.gen_range(0..n_vertices);
        edges.push((format!("n{a}"), format!("n{b}")));
    }
    Graph { edges }
}

fn main() {
    for seed in 0..12u64 {
        let g = random_graph(seed, 3, 3);
        let (sys, defs, _o) = edge_managers_system(&g);
        let start = std::time::Instant::now();
        let graph = explore(&sys, &defs, ExploreOpts { max_states: 50_000 });
        println!(
            "seed {seed}: {:?} -> {} states trunc={} in {:?}",
            g.edges,
            graph.len(),
            graph.truncated,
            start.elapsed()
        );
    }
}
