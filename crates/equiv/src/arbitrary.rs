//! Seeded random generation of finite bπ processes.
//!
//! Used by the sampled experiments (Theorem 1 agreement, congruence
//! closure, axiom soundness/completeness) and by random static contexts.
//! Generation is deterministic given the seed, so failures are
//! reproducible; the shape distribution is biased toward the operators
//! the paper's proofs stress (sums of guarded terms, restriction over
//! outputs, matches).

use bpi_core::builder::*;
use bpi_core::name::Name;
use bpi_core::syntax::P;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for random process generation.
#[derive(Clone, Debug)]
pub struct GenCfg {
    /// Free names to draw subjects and objects from.
    pub names: Vec<Name>,
    /// Maximum prefix-nesting depth.
    pub max_depth: usize,
    /// Whether to generate `νx` nodes.
    pub allow_restriction: bool,
    /// Whether to generate `(x=y)p,q` nodes.
    pub allow_match: bool,
    /// Whether to generate `p‖q` nodes (off for the finite sequential
    /// fragment that Section 5 axiomatises directly).
    pub allow_par: bool,
    /// Maximum object-tuple length (1 = monadic, as in Section 5).
    pub max_arity: usize,
}

impl GenCfg {
    /// Monadic finite processes over the given names — the fragment of
    /// the Section 5 axiomatisation.
    pub fn finite_monadic(names: Vec<Name>) -> GenCfg {
        GenCfg {
            names,
            max_depth: 3,
            allow_restriction: true,
            allow_match: true,
            allow_par: true,
            max_arity: 1,
        }
    }

    /// Small sequential processes (no ‖) for the normal-form prover.
    pub fn sequential(names: Vec<Name>) -> GenCfg {
        GenCfg {
            allow_par: false,
            ..GenCfg::finite_monadic(names)
        }
    }
}

/// A deterministic generator of finite processes.
pub struct Gen {
    rng: StdRng,
    cfg: GenCfg,
    fresh: usize,
}

impl Gen {
    pub fn new(cfg: GenCfg, seed: u64) -> Gen {
        Gen {
            rng: StdRng::seed_from_u64(seed),
            cfg,
            fresh: 0,
        }
    }

    fn name(&mut self) -> Name {
        if self.cfg.names.is_empty() {
            // Closed-process generation (e.g. contexts around closed
            // terms): fall back to a fixed default channel.
            return Name::intern_raw("gdefault");
        }
        let i = self.rng.gen_range(0..self.cfg.names.len());
        self.cfg.names[i]
    }

    fn binder(&mut self) -> Name {
        // Distinct binder spellings avoid accidental shadowing patterns
        // dominating the sample.
        self.fresh += 1;
        Name::intern_raw(&format!("g{}", self.fresh))
    }

    fn arity(&mut self) -> usize {
        self.rng.gen_range(1..=self.cfg.max_arity)
    }

    /// Generates one random process of depth at most `cfg.max_depth`.
    pub fn process(&mut self) -> P {
        let d = self.cfg.max_depth;
        self.go(d)
    }

    fn go(&mut self, depth: usize) -> P {
        if depth == 0 {
            return nil();
        }
        // Weighted operator choice.
        let mut choices: Vec<u32> = vec![
            10, // output prefix
            8,  // input prefix
            4,  // tau prefix
            8,  // sum
            2,  // nil
        ];
        choices.push(if self.cfg.allow_par { 5 } else { 0 });
        choices.push(if self.cfg.allow_restriction { 4 } else { 0 });
        choices.push(if self.cfg.allow_match { 3 } else { 0 });
        let total: u32 = choices.iter().sum();
        let mut pick = self.rng.gen_range(0..total);
        let mut idx = 0;
        for (k, w) in choices.iter().enumerate() {
            if pick < *w {
                idx = k;
                break;
            }
            pick -= w;
        }
        match idx {
            0 => {
                let a = self.name();
                let n = self.arity();
                let objs: Vec<Name> = (0..n).map(|_| self.name()).collect();
                out(a, objs, self.go(depth - 1))
            }
            1 => {
                let a = self.name();
                let n = self.arity();
                let binders: Vec<Name> = (0..n).map(|_| self.binder()).collect();
                // The binder may be used inside: temporarily extend the
                // name supply.
                let saved = self.cfg.names.clone();
                self.cfg.names.extend(binders.iter().copied());
                let cont = self.go(depth - 1);
                self.cfg.names = saved;
                inp(a, binders, cont)
            }
            2 => tau(self.go(depth - 1)),
            3 => sum(self.go(depth - 1), self.go(depth - 1)),
            4 => nil(),
            5 => {
                // ‖ interleaves prefixes, so `depth` is additive across
                // branches: split the budget rather than passing it twice,
                // keeping the documented `max_depth` bound tight.
                let left = self.rng.gen_range(1..=depth);
                par(self.go(left), self.go(depth - left))
            }
            6 => {
                let x = self.binder();
                let saved = self.cfg.names.clone();
                self.cfg.names.push(x);
                let cont = self.go(depth - 1);
                self.cfg.names = saved;
                new(x, cont)
            }
            _ => {
                let x = self.name();
                let y = self.name();
                mat(x, y, self.go(depth - 1), self.go(depth - 1))
            }
        }
    }

    /// Generates a *pair* of processes that are often related: with
    /// probability ~1/2 a structural rearrangement of the same process
    /// (commuted sums/parallels — sound laws), otherwise two independent
    /// samples. This gives the equivalence experiments a useful mix of
    /// positives and negatives.
    pub fn related_pair(&mut self) -> (P, P) {
        let p = self.process();
        if self.rng.gen_bool(0.5) {
            (p.clone(), shuffle(&p, &mut self.rng))
        } else {
            let q = self.process();
            (p, q)
        }
    }
}

/// Applies sound structural rearrangements (commutativity of `+`/`‖`)
/// at random positions — the output is provably `~c`-equal to the input
/// (Lemma 6 (c), (f)).
pub fn shuffle(p: &P, rng: &mut StdRng) -> P {
    use bpi_core::syntax::Process;
    match &**p {
        Process::Sum(l, r) => {
            let (l2, r2) = (shuffle(l, rng), shuffle(r, rng));
            if rng.gen_bool(0.5) {
                sum(r2, l2)
            } else {
                sum(l2, r2)
            }
        }
        Process::Par(l, r) => {
            let (l2, r2) = (shuffle(l, rng), shuffle(r, rng));
            if rng.gen_bool(0.5) {
                par(r2, l2)
            } else {
                par(l2, r2)
            }
        }
        Process::Act(pre, cont) => Process::Act(pre.clone(), shuffle(cont, rng)).rc(),
        Process::New(x, cont) => new(*x, shuffle(cont, rng)),
        Process::Match(x, y, l, r) => mat(*x, *y, shuffle(l, rng), shuffle(r, rng)),
        _ => p.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenCfg::finite_monadic(names(["a", "b", "c"]).to_vec());
        let p1 = Gen::new(cfg.clone(), 11).process();
        let p2 = Gen::new(cfg, 11).process();
        assert_eq!(p1, p2);
    }

    #[test]
    fn generated_processes_are_finite() {
        let cfg = GenCfg::finite_monadic(names(["a", "b"]).to_vec());
        let mut g = Gen::new(cfg, 3);
        for _ in 0..50 {
            let p = g.process();
            assert!(p.is_finite());
            assert!(p.depth() <= 3);
        }
    }

    #[test]
    fn sequential_cfg_never_emits_par() {
        use bpi_core::syntax::Process;
        fn has_par(p: &P) -> bool {
            match &**p {
                Process::Par(..) => true,
                Process::Act(_, c) | Process::New(_, c) => has_par(c),
                Process::Sum(l, r) | Process::Match(_, _, l, r) => has_par(l) || has_par(r),
                _ => false,
            }
        }
        let cfg = GenCfg::sequential(names(["a", "b"]).to_vec());
        let mut g = Gen::new(cfg, 5);
        for _ in 0..50 {
            assert!(!has_par(&g.process()));
        }
    }

    #[test]
    fn shuffle_preserves_bisimilarity() {
        use crate::bisim::{decide, Checker, Variant};
        use bpi_core::syntax::Defs;
        let defs = Defs::new();
        let c = Checker::new(&defs);
        let cfg = GenCfg::finite_monadic(names(["a", "b"]).to_vec());
        let mut g = Gen::new(cfg, 9);
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        for _ in 0..10 {
            let p = g.process();
            let q = shuffle(&p, &mut rng);
            assert!(
                decide(&c, Variant::StrongLabelled, &p, &q),
                "shuffle broke {p} vs {q}"
            );
        }
    }
}
