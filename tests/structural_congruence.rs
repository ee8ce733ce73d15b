//! The structural route of `Checker::check`: two terms with equal
//! structural normal forms (`bpi::core::snf`) are answered `Holds`
//! before any graph is built. These tests fail when the law set is
//! wrong.
//!
//! * Law applications: a random finite `p` rewritten by random law
//!   applications at any depth, under prefixes and input binders
//!   included (AC of `+` and `‖`, `+` duplication, nil padding, vacuous
//!   `ν`, α-renaming of binders), keeps its normal form, and the naive
//!   `refine` over `Graph::build` holds at the roots for all six
//!   variants.
//! * No false `Holds`: over random pairs and near misses that are not
//!   laws (`p ‖ p` against `p`, two swapped prefixes, one renamed free
//!   name, a `ν` moved over a `‖` operand that mentions its name), equal
//!   normal forms imply the naive oracle holds for all six variants.
//! * Congruence: each law holds as `~c` (`congruent_strong`) under the
//!   congruence suite's plugs (E13's prefixes, restriction and match,
//!   and E25's Definition 12 context), which is what rewriting below a
//!   prefix or inside an input binder needs.
//! * Witnesses: the pair of inputs in either order, and a τ-chain at the
//!   parser's `MAX_DEPTH` against itself on a default test thread, are
//!   settled with a one-state ceiling, so no graph was built.

use bpi::core::builder::*;
use bpi::core::name::Name;
use bpi::core::parser::{parse_process, MAX_DEPTH};
use bpi::core::snf;
use bpi::core::subst::{plug_ident, Subst};
use bpi::core::syntax::{Defs, Ident, Prefix, Process, P};
use bpi::equiv::arbitrary::{Gen, GenCfg};
use bpi::equiv::{congruent_strong, refine, shared_pool, Checker, Graph, Opts, Variant, Verdict};
use bpi::semantics::{Budget, EngineError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ALL: [Variant; 6] = [
    Variant::StrongBarbed,
    Variant::WeakBarbed,
    Variant::StrongStep,
    Variant::WeakStep,
    Variant::StrongLabelled,
    Variant::WeakLabelled,
];

/// Random finite processes over `a, b, c` with restriction and match:
/// monadic for even seeds, up to arity 2 for odd ones.
fn generator(seed: u64) -> Gen {
    let cfg = GenCfg {
        max_arity: 1 + (seed % 2) as usize,
        ..GenCfg::finite_monadic(names(["a", "b", "c"]).to_vec())
    };
    Gen::new(cfg, seed)
}

/// The naive oracle: `refine` over both `Graph::build`s, all six
/// variants at the roots.
fn naive(p: &P, q: &P) -> Vec<(Variant, bool)> {
    let defs = Defs::new();
    let opts = Opts::default();
    let pool = shared_pool(p, q, opts.fresh_inputs);
    let g1 = Graph::build(p, &defs, &pool, opts).expect("a finite term fits");
    let g2 = Graph::build(q, &defs, &pool, opts).expect("a finite term fits");
    ALL.iter()
        .map(|&v| (v, refine(v, &g1, &g2).holds(0, 0)))
        .collect()
}

/// Random applications of the laws `snf` applies, at every node.
struct Laws {
    rng: StdRng,
    /// Binder names never seen before, so renaming captures nothing.
    fresh: usize,
    /// Summand duplications left, which bounds the term's growth.
    twins: usize,
}

impl Laws {
    fn new(seed: u64) -> Laws {
        Laws {
            rng: StdRng::seed_from_u64(seed),
            fresh: 0,
            twins: 6,
        }
    }

    fn fresh(&mut self) -> Name {
        self.fresh += 1;
        Name::intern_raw(&format!("lw{}", self.fresh))
    }

    fn rewrite(&mut self, p: &P) -> P {
        let q = match &**p {
            Process::Act(Prefix::Input(a, xs), cont) if self.rng.gen_bool(0.5) => {
                let ys: Vec<Name> = xs.iter().map(|_| self.fresh()).collect();
                let cont = Subst::parallel(xs, &ys).apply_process(cont);
                inp(*a, ys, self.rewrite(&cont))
            }
            Process::Act(pre, cont) => Process::Act(pre.clone(), self.rewrite(cont)).rc(),
            Process::New(x, cont) if self.rng.gen_bool(0.5) => {
                let y = self.fresh();
                let cont = Subst::single(*x, y).apply_process(cont);
                new(y, self.rewrite(&cont))
            }
            Process::New(x, cont) => new(*x, self.rewrite(cont)),
            Process::Sum(l, r) => self.ac(l, r, true),
            Process::Par(l, r) => self.ac(l, r, false),
            Process::Match(x, y, l, r) => mat(*x, *y, self.rewrite(l), self.rewrite(r)),
            _ => p.clone(),
        };
        match self.rng.gen_range(0..10) {
            0 => par(q, nil()),
            1 => sum(nil(), q),
            2 => new(self.fresh(), q),
            3 if self.twins > 0 => {
                self.twins -= 1;
                let twin = self.rewrite(p);
                sum(q, twin)
            }
            _ => q,
        }
    }

    /// Commutes the operands half the time, and reassociates a left
    /// operand of the same kind half the time.
    fn ac(&mut self, l: &P, r: &P, is_sum: bool) -> P {
        let join = |x: P, y: P| if is_sum { sum(x, y) } else { par(x, y) };
        let (mut l, mut r) = (self.rewrite(l), self.rewrite(r));
        if self.rng.gen_bool(0.5) {
            std::mem::swap(&mut l, &mut r);
        }
        let rotate = self.rng.gen_bool(0.5);
        match &*l {
            Process::Sum(x, y) if is_sum && rotate => sum(x.clone(), sum(y.clone(), r)),
            Process::Par(x, y) if !is_sum && rotate => par(x.clone(), par(y.clone(), r)),
            _ => join(l, r),
        }
    }
}

/// Prefix `k` of three over `a, b`: τ, an output, an input binding `x`.
fn prefix(k: usize, cont: P) -> P {
    let [a, b, x] = names(["a", "b", "x"]);
    match k {
        0 => tau(cont),
        1 => out(a, [b], cont),
        _ => inp(b, [x], cont),
    }
}

/// A one-hole context.
type Plug = Box<dyn Fn(&P) -> P>;

/// A random pair and near misses of laws, named.
fn near_misses(seed: u64) -> Vec<(&'static str, P, P)> {
    let mut g = generator(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let [a, b, c] = names(["a", "b", "c"]);
    let (p, q, r) = (g.process(), g.process(), g.process());
    let (i, j) = (rng.gen_range(0..3), rng.gen_range(0..3));
    let swapped = (
        prefix(i, prefix(j, r.clone())),
        prefix(j, prefix(i, r.clone())),
    );
    let mentions_a = par(out_(a, []), q.clone());
    vec![
        ("random pair", p.clone(), q.clone()),
        ("p | p against p", par(p.clone(), p.clone()), p.clone()),
        ("two swapped prefixes", swapped.0, swapped.1),
        (
            "one renamed free name",
            p.clone(),
            Subst::single(a, if seed.is_multiple_of(3) { b } else { c }).apply_process(&p),
        ),
        (
            "a restriction moved over an operand that mentions its name",
            par(new(a, r.clone()), mentions_a.clone()),
            new(a, par(r, mentions_a)),
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn law_applications_keep_the_normal_form_and_the_naive_verdict(seed in 0u64..100_000) {
        let p = generator(seed).process();
        let q = Laws::new(seed).rewrite(&p);
        prop_assert_eq!(snf(&p), snf(&q), "{} vs {}", p, q);
        for (v, holds) in naive(&p, &q) {
            prop_assert!(holds, "{:?}: a law application broke the naive oracle: {} vs {}", v, p, q);
        }
    }

    #[test]
    fn equal_normal_forms_imply_the_naive_oracle(seed in 0u64..100_000) {
        for (what, p, q) in near_misses(seed) {
            if what == "p | p against p" && !matches!(*snf(&p), Process::Nil) {
                prop_assert_ne!(snf(&p), snf(&q));
            }
            if snf(&p) == snf(&q) {
                for (v, holds) in naive(&p, &q) {
                    prop_assert!(holds, "{}: equal normal forms but {:?} fails: {} vs {}", what, v, p, q);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn each_law_is_a_congruence_under_the_plugs(seed in 0u64..100_000) {
        let mut g = Gen::new(
            GenCfg { max_depth: 2, ..GenCfg::finite_monadic(names(["a", "b"]).to_vec()) },
            seed,
        );
        let (p, q, r) = (g.process(), g.process(), g.process());
        let [a, b, c, x, y] = names(["a", "b", "c", "x", "y"]);
        let unused = Name::intern_raw("lwunused");
        let laws: Vec<(&str, P, P)> = vec![
            ("| commutes", par(p.clone(), q.clone()), par(q.clone(), p.clone())),
            (
                "| associates",
                par(par(p.clone(), q.clone()), r.clone()),
                par(p.clone(), par(q.clone(), r.clone())),
            ),
            ("+ commutes", sum(p.clone(), q.clone()), sum(q.clone(), p.clone())),
            (
                "+ associates",
                sum(sum(p.clone(), q.clone()), r.clone()),
                sum(p.clone(), sum(q.clone(), r.clone())),
            ),
            ("+ is idempotent (S2)", sum(p.clone(), p.clone()), p.clone()),
            ("| has unit nil", par(p.clone(), nil()), p.clone()),
            ("+ has unit nil", sum(nil(), p.clone()), p.clone()),
            ("vacuous restriction", new(unused, p.clone()), p.clone()),
            (
                "alpha-conversion",
                inp(a, [x], par(out_(x, [b]), p.clone())),
                inp(a, [y], par(out_(y, [b]), p.clone())),
            ),
        ];
        let e = {
            // Definition 12's example context: āb.X⟨a,b⟩ + νc āc.X⟨c,b⟩.
            let hole = Ident::new("LawHole");
            let e = sum(out(a, [b], var(hole, [a, b])), new(c, out(a, [c], var(hole, [c, b]))));
            move |t: &P| plug_ident(&e, hole, &[a, b], t)
        };
        let plugs: Vec<(&str, Plug)> = vec![
            ("tau prefix", Box::new(|t: &P| tau(t.clone()))),
            ("output prefix", Box::new(move |t: &P| out(a, [b], t.clone()))),
            ("input prefix binding b", Box::new(move |t: &P| inp(a, [b], t.clone()))),
            ("restriction", Box::new(move |t: &P| new(b, t.clone()))),
            ("match", Box::new(move |t: &P| mat(a, b, t.clone(), nil()))),
            ("Definition 12 context", Box::new(e)),
        ];
        let d = Defs::new();
        for (law, lhs, rhs) in &laws {
            prop_assert_eq!(snf(lhs), snf(rhs), "{} is not applied by snf", law);
            prop_assert!(congruent_strong(lhs, rhs, &d, Opts::default()), "{}: {} vs {}", law, lhs, rhs);
            for (plug, ctx) in &plugs {
                prop_assert!(
                    congruent_strong(&ctx(lhs), &ctx(rhs), &d, Opts::default()),
                    "{} is not ~c under the {}: {} vs {}", law, plug, lhs, rhs
                );
            }
        }
    }
}

/// A check settled with a one-state ceiling built no graph: any graph
/// of these pairs has more states than that.
fn settled_without_graphs(p: &P, q: &P) -> bool {
    let defs = Defs::new();
    let c = Checker::new(&defs).with_budget(Budget::states(1));
    let graph = c.try_fixpoint(Variant::StrongLabelled, p, q).err();
    assert_eq!(graph, Some(EngineError::StateBudgetExceeded { limit: 1 }));
    ALL.iter().all(|&v| c.check(v, p, q) == Verdict::Holds)
}

#[test]
fn inputs_in_either_order_are_settled() {
    let p = parse_process("a(x).x<> | b(y).y<>").unwrap();
    let q = parse_process("b(y).y<> | a(x).x<>").unwrap();
    assert!(settled_without_graphs(&p, &q));
}

#[test]
fn a_tau_chain_at_the_depth_cap_is_settled_on_a_default_test_thread() {
    let chain = format!("{}0", "tau.".repeat(MAX_DEPTH));
    let p = parse_process(&chain).expect("a chain at the cap parses");
    let q = parse_process(&chain).expect("a chain at the cap parses");
    assert!(settled_without_graphs(&p, &q));
}
