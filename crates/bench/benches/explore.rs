//! State-space exploration cost.
//!
//! The subject family `Πᴺ (āᵢ.b̄ᵢ)` has 3^N reachable states (each
//! component independently in one of three phases), giving a clean
//! scaling series.

use bpi_bench::independent_components;
use bpi_core::builder::*;
use bpi_core::syntax::Defs;
use bpi_semantics::{explore, ExploreOpts};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_explore(c: &mut Criterion) {
    let defs = Defs::new();
    let opts = ExploreOpts::default();
    let mut group = c.benchmark_group("explore/independent-3^N");
    group.sample_size(10);
    for n in [4usize, 6, 8] {
        let p = independent_components(n);
        group.bench_with_input(BenchmarkId::new("sequential", n), &p, |b, p| {
            b.iter(|| {
                let g = explore(std::hint::black_box(p), &defs, opts);
                assert!(!g.truncated);
                g.len()
            })
        });
    }
    group.finish();
}

fn bench_normalisation_overhead(c: &mut Criterion) {
    // The cost of extruded-name normalisation, on a system that
    // actually extrudes: N private-token broadcasters.
    let defs = Defs::new();
    let mut group = c.benchmark_group("explore/extrusion-normalisation");
    group.sample_size(10);
    for n in [2usize, 4] {
        let p = par_of((0..n).map(|i| {
            let a = bpi_core::Name::intern_raw(&format!("xa{i}"));
            let t = bpi_core::Name::intern_raw("xt");
            new(t, out(a, [t], out_(t, [])))
        }));
        for (label, normalize) in [("with-normalisation", true), ("canon-only", false)] {
            let opts = ExploreOpts {
                max_states: 100_000,
                normalize_extruded: normalize,
            };
            group.bench_with_input(BenchmarkId::new(label, n), &p, |b, p| {
                b.iter(|| explore(std::hint::black_box(p), &defs, opts).len())
            });
        }
    }
    group.finish();
}

fn bench_consed_warm_exploration(c: &mut Criterion) {
    // B8 — the PR 2 cache story. The explorer keys its visited table by
    // consed identity and memoizes successor derivation per (consed
    // term, defs generation); re-exploring a system whose states are
    // already consed and whose transitions are already derived measures
    // the steady-state (warm) cost the seed paid on every run. The
    // first iteration of each Criterion sample warms the global caches;
    // all subsequent iterations are pure cache traffic, so the reported
    // median is the warm figure to set against `explore/independent-3^N`
    // cold numbers from the seed baseline.
    let defs = Defs::new();
    let opts = ExploreOpts::default();
    let mut group = c.benchmark_group("explore/consed-warm-3^N");
    group.sample_size(10);
    for n in [4usize, 6, 8] {
        let p = independent_components(n);
        // Warm the store and the successor memos once, outside timing.
        let baseline = explore(&p, &defs, opts).len();
        group.bench_with_input(BenchmarkId::from_parameter(n), &p, |b, p| {
            b.iter(|| {
                let g = explore(std::hint::black_box(p), &defs, opts);
                assert_eq!(g.len(), baseline);
                g.len()
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = bpi_bench::criterion();
    targets = bench_explore, bench_normalisation_overhead, bench_consed_warm_exploration
}
criterion_main!(benches);
