//! # bpi-bench — the measurement harness of the bπ-calculus workspace
//!
//! The paper has no empirical evaluation (it is a theory paper), so the
//! harness characterises the decision procedures it implicitly defines.
//! One binary, `bench_report`, measures every family below and writes
//! the readings as one `bpi-bench/v2` document (`BENCH_<pr>.json`); its
//! `--check` mode evaluates the gates recorded there. EXPERIMENTS.md
//! B1–B22 name the entries. This library holds the term families those
//! entries share.

/// The 1→N broadcast system `āv ‖ Πᴺ a(x).x̄`: one broadcast hands `v`
/// to all N listeners (rules (12)–(13)), and each then outputs `v` once.
pub fn fanout_system(n: usize) -> bpi_core::syntax::P {
    use bpi_core::builder::*;
    let [a, v, x] = names(["a", "v", "x"]);
    let listeners = (0..n).map(|_| inp(a, [x], out_(x, [])));
    par_of(std::iter::once(out_(a, [v])).chain(listeners))
}

/// [`fanout_system`] over point-to-point handshakes, the lock protocol of
/// the uniform π encoding (`bpi_encodings::pi`): the sender offers `v`
/// N times in sequence, `νl (ā⟨v,l⟩ ‖ l(w).next)`, and each receiver is
/// `R = a(x,l).(νm l̄⟨m⟩.x̄ + l(o).R)`. Every listener hears an offer and
/// races to claim its lock; the claim is itself a broadcast, so the
/// sender moves on and every losing receiver returns to `R` to hear the
/// next offer. Each offer thus serves exactly one receiver, and every
/// terminated run outputs `v` once per receiver, as [`fanout_system`]
/// does, after N offers and N claims where the native system needs one
/// broadcast.
pub fn p2p_emulation(n: usize) -> bpi_core::syntax::P {
    use bpi_core::builder::*;
    let [a, v, w, x, l, m, o] = names(["a", "v", "lw", "rx", "rl", "rm", "ro"]);
    let sender = (0..n).fold(nil(), |next, i| {
        let lock = bpi_core::Name::intern_raw(&format!("lk{i}"));
        new(lock, par(out_(a, [v, lock]), inp(lock, [w], next)))
    });
    let r = bpi_core::syntax::Ident::new("P2pReceiver");
    let claim = new(m, out(l, [m], out_(x, [])));
    let body = inp(a, [x, l], sum(claim, inp(l, [o], var(r, [a]))));
    let receiver = rec(r, [a], body, [a]);
    par_of(std::iter::once(sender).chain(std::iter::repeat_n(receiver, n)))
}

/// A τ-chain of the given length: `τ.τ.….0`.
pub fn tau_chain(n: usize) -> bpi_core::syntax::P {
    use bpi_core::builder::*;
    (0..n).fold(nil(), |acc, _| tau(acc))
}

/// A positive bisimulation pair of size ~n: nested sums of broadcast
/// sequences, one side commuted.
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

/// `Πᴺ (āᵢ.b̄ᵢ)`, 3^N reachable states, with `tag`-prefixed channel
/// names: a fresh tag per measurement yields structurally fresh terms,
/// defeating the cross-run successor memos so each sample pays genuinely
/// cold construction (cold-exploration measurements need this — a memo
/// hit does none of the work being timed).
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
/// deliberately does not commute `‖`). Channel names are prefixed with
/// `tag` but still shared within the system: fresh tags defeat the graph
/// and compose memos so each sample pays cold construction. The
/// identical-stations compose ladder family of `bench_report`.
pub fn identical_stations_tagged(n: usize, tag: &str) -> bpi_core::syntax::P {
    use bpi_core::builder::*;
    let a = bpi_core::Name::intern_raw(&format!("{tag}sa"));
    let b = bpi_core::Name::intern_raw(&format!("{tag}sb"));
    par_of((0..n).map(|_| sum(out_(a, []), tau(out(b, [], inp_(a, []))))))
}

/// `Πᴺ (ā.b̄)` on **shared** channels — the 3^N family of
/// [`independent_components_tagged`], but with every copy identical so the
/// orbit space is the `C(n+2, 2)` multisets of the three local states
/// instead of the `3^N` tuples. Channel names are `tag`-prefixed (see
/// [`identical_stations_tagged`] for why). The shared-3^N compose ladder
/// family of `bench_report`.
pub fn shared_components_tagged(n: usize, tag: &str) -> bpi_core::syntax::P {
    use bpi_core::builder::*;
    let a = bpi_core::Name::intern_raw(&format!("{tag}ca"));
    let b = bpi_core::Name::intern_raw(&format!("{tag}cb"));
    par_of((0..n).map(|_| out(a, [], out_(b, []))))
}

/// The deep alternating prefix/sum term of the term-level cache entries.
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

#[cfg(test)]
mod tests {
    use super::*;
    use bpi_core::builder::names;
    use bpi_core::syntax::Defs;
    use bpi_semantics::Simulator;

    /// Outputs on `a` and on `v` of every terminated seeded run.
    fn runs(p: &bpi_core::syntax::P) -> Vec<(usize, usize)> {
        let [a, v] = names(["a", "v"]);
        let defs = Defs::new();
        (1..=8)
            .map(|seed| Simulator::new(&defs, seed).run(p, 10_000))
            .inspect(|t| assert!(t.terminated, "a fan-out run must terminate"))
            .map(|t| (t.count_outputs_on(a), t.count_outputs_on(v)))
            .collect()
    }

    #[test]
    fn the_point_to_point_baseline_serves_every_receiver() {
        for n in 1..=4 {
            // Each receiver outputs `v` at most once, so N outputs on `v`
            // mean each one was served exactly once.
            for (broadcasts, served) in runs(&fanout_system(n)) {
                assert_eq!((broadcasts, served), (1, n), "native, N = {n}");
            }
            for (offers, served) in runs(&p2p_emulation(n)) {
                assert_eq!((offers, served), (n, n), "emulation, N = {n}");
            }
        }
    }
}
