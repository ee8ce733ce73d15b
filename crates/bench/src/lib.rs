//! # bpi-bench — benchmark harness for the bπ-calculus workspace
//!
//! The paper has no empirical evaluation (it is a theory paper), so the
//! benches characterise the decision procedures it implicitly defines —
//! see EXPERIMENTS.md entries B1–B6:
//!
//! * `lts` — transition-derivation throughput vs term size and fan-out;
//! * `bisim` — bisimilarity checking across the six variants;
//! * `normalize` — head-normal-form computation and the prover;
//! * `broadcast_vs_p2p` — 1→N broadcast vs the π-encoded multicast
//!   emulation (sender-side cost: constant vs linear);
//! * `explore` — state-space search on the 3^N family, cold and warm;
//! * `examples` — the paper's worked examples end-to-end vs their
//!   direct Rust baselines.

/// Builds the 1→N broadcast system `āv ‖ Πᴺ a(x).x̄` used by several
/// benches.
pub fn fanout_system(n: usize) -> bpi_core::syntax::P {
    use bpi_core::builder::*;
    let [a, v, x] = names(["a", "v", "x"]);
    let listeners = (0..n).map(|_| inp(a, [x], out_(x, [])));
    par_of(std::iter::once(out_(a, [v])).chain(listeners))
}

/// A τ-chain of the given length: `τ.τ.….0`.
pub fn tau_chain(n: usize) -> bpi_core::syntax::P {
    use bpi_core::builder::*;
    (0..n).fold(nil(), |acc, _| tau(acc))
}

/// A positive bisimulation pair of size ~n: nested sums of broadcast
/// sequences, one side commuted (shared by benches/bisim.rs and the
/// `bench_report` bin).
pub fn scaled_pair(n: usize) -> (bpi_core::syntax::P, bpi_core::syntax::P) {
    use bpi_core::builder::*;
    let [a, b, c] = names(["a", "b", "c"]);
    let mut p = nil();
    let mut q = nil();
    for i in 0..n {
        let ch = [a, b, c][i % 3];
        let leaf_p = out(ch, [], tau(out_(ch, [])));
        let leaf_q = out(ch, [], tau(out_(ch, [])));
        p = sum(leaf_p, p);
        q = sum(q, leaf_q); // commuted association
    }
    (p, q)
}

/// `Πᴺ (āᵢ.b̄ᵢ)` — 3^N reachable states (shared by benches/explore.rs
/// and the `bench_report` bin).
pub fn independent_components(n: usize) -> bpi_core::syntax::P {
    independent_components_tagged(n, "")
}

/// [`independent_components`] with `tag`-prefixed channel names: a fresh
/// tag per measurement yields structurally fresh terms, defeating the
/// cross-run successor memos so each sample pays genuinely cold
/// construction (cold-exploration measurements need this — a memo hit
/// does none of the work being timed).
pub fn independent_components_tagged(n: usize, tag: &str) -> bpi_core::syntax::P {
    use bpi_core::builder::*;
    par_of((0..n).map(|i| {
        let a = bpi_core::Name::intern_raw(&format!("{tag}ea{i}"));
        let b = bpi_core::Name::intern_raw(&format!("{tag}eb{i}"));
        out(a, [], out_(b, []))
    }))
}

/// `Πᴺ (ā + τ.b̄.a(​))` — N *identical* stations on **shared** channels:
/// every copy is the same hash-consed term, so the compositional
/// engine's symmetry reduction collapses the product to multisets of
/// local classes (polynomially many orbit states) while the monolithic
/// graph keeps every ordered tuple (exponentially many states — `canon`
/// deliberately does not commute `‖`). The BENCH_8 wide-composition
/// ladder family.
pub fn identical_stations(n: usize) -> bpi_core::syntax::P {
    identical_stations_tagged(n, "")
}

/// [`identical_stations`] with `tag`-prefixed (but still shared within
/// the system) channel names — fresh tags defeat the graph and compose
/// memos so each sample pays cold construction.
pub fn identical_stations_tagged(n: usize, tag: &str) -> bpi_core::syntax::P {
    use bpi_core::builder::*;
    let a = bpi_core::Name::intern_raw(&format!("{tag}sa"));
    let b = bpi_core::Name::intern_raw(&format!("{tag}sb"));
    par_of((0..n).map(|_| sum(out_(a, []), tau(out(b, [], inp_(a, []))))))
}

/// `Πᴺ (ā.b̄)` on **shared** channels — the 3^N family of
/// [`independent_components`], but with every copy identical so the
/// orbit space is the `C(n+2, 2)` multisets of the three local states
/// instead of the `3^N` tuples. The BENCH_8 3^N ladder family.
pub fn shared_components(n: usize) -> bpi_core::syntax::P {
    shared_components_tagged(n, "")
}

/// [`shared_components`] with `tag`-prefixed shared channel names (see
/// [`identical_stations_tagged`] for why).
pub fn shared_components_tagged(n: usize, tag: &str) -> bpi_core::syntax::P {
    use bpi_core::builder::*;
    let a = bpi_core::Name::intern_raw(&format!("{tag}ca"));
    let b = bpi_core::Name::intern_raw(&format!("{tag}cb"));
    par_of((0..n).map(|_| out(a, [], out_(b, []))))
}

/// The deep alternating prefix/sum term from benches/normalize.rs.
pub fn deep_term(depth: usize) -> bpi_core::syntax::P {
    use bpi_core::builder::*;
    let [a, b, x] = names(["a", "b", "x"]);
    let mut p = nil();
    for i in 0..depth {
        p = match i % 3 {
            0 => out(a, [b], p),
            1 => inp(a, [x], p),
            _ => sum(tau(p.clone()), p),
        };
    }
    p
}

/// Shared Criterion configuration: shorter warm-up and measurement
/// windows than the defaults, so the full `cargo bench --workspace`
/// sweep (≈80 benchmark points) completes in minutes while still
/// producing stable medians for the shape comparisons EXPERIMENTS.md
/// makes.
pub fn criterion() -> criterion::Criterion {
    criterion::Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_millis(1500))
        .sample_size(20)
}
