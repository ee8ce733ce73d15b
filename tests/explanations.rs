//! Explanations certify themselves: when strong labelled bisimilarity
//! fails, the formula of its explanation holds on exactly the side it
//! names. Inputs of arity one and two on one channel make many pairs
//! differ in what they discard, and restriction makes some formulas
//! mention a name that their own move extrudes.

use bpi::core::builder::*;
use bpi::core::{parse_process, syntax::Defs};
use bpi::equiv::arbitrary::{Gen, GenCfg};
use bpi::equiv::{explain, satisfies, Checker, Opts, Side, Variant};
use proptest::prelude::*;

mod common;
use common::strong;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn strong_labelled_explanations_are_certified(seed in 0u64..100_000) {
        let names = names(["a", "b"]).to_vec();
        let cfg = GenCfg { max_arity: 2, ..GenCfg::finite_monadic(names) };
        let mut g = Gen::new(cfg, seed);
        let (p, q) = (g.process(), g.process());
        // A silent blocker on `a` mostly changes only what `q` discards.
        let blocked = par(q.clone(), parse_process("a(x).0 | a(x,y).0").unwrap());
        let defs = Defs::new();
        let c = Checker::new(&defs);
        for (l, r) in [(&p, &q), (&q, &blocked)] {
            if !strong(&c, l, r) {
                let d = explain(Variant::StrongLabelled, l, r, &defs, Opts::default()).unwrap();
                let (side, f) = d.to_formula();
                let sat = |x| satisfies(x, &f, &defs, Opts::default());
                let want = (side == Side::Left, side == Side::Right);
                prop_assert_eq!((sat(l), sat(r)), want, "{} vs {}: {}", l, r, d);
            }
        }
    }
}
