//! Parser/pretty-printer round-trip properties: `parse(print(p)) == p`
//! for arbitrary terms, and stability of the concrete syntax.

use bpi::core::builder::*;
use bpi::core::{canon, parse_process};
use bpi::equiv::arbitrary::{Gen, GenCfg};
use proptest::prelude::*;

mod common;
use common::strong;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn print_parse_is_identity(seed in 0u64..100_000) {
        let cfg = GenCfg {
            names: names(["a", "b", "c"]).to_vec(),
            max_depth: 4,
            allow_restriction: true,
            allow_match: true,
            allow_par: true,
            max_arity: 3,
        };
        let p = Gen::new(cfg, seed).process();
        let printed = p.to_string();
        let reparsed = parse_process(&printed)
            .unwrap_or_else(|e| panic!("reparse of {printed:?} failed: {e}"));
        prop_assert_eq!(&p, &reparsed, "round trip changed {}", printed);
    }

    #[test]
    fn printing_is_stable_under_canon(seed in 0u64..50_000) {
        // canon → print → parse → canon is the identity on canonical
        // forms (canonical names survive the concrete syntax).
        let cfg = GenCfg::finite_monadic(names(["a", "b"]).to_vec());
        let p = Gen::new(cfg, seed).process();
        let c = canon(&p);
        let reparsed = parse_process(&c.to_string()).unwrap();
        prop_assert_eq!(canon(&reparsed), c);
    }

    #[test]
    fn prune_preserves_bisimilarity(seed in 0u64..3_000) {
        // The structural GC used by every explorer: `prune(p) ~ p`.
        let cfg = GenCfg::finite_monadic(names(["a", "b"]).to_vec());
        let p = Gen::new(cfg, seed).process();
        let pruned = bpi::core::prune(&p);
        let defs = bpi::core::syntax::Defs::new();
        prop_assert!(
            strong(&bpi::equiv::Checker::new(&defs), &p, &pruned),
            "prune broke {} into {}", p, pruned
        );
    }
}

#[test]
fn canonical_and_fresh_names_roundtrip() {
    // The reserved namespaces must survive the concrete syntax.
    for src in ["#0<#1>", "x~3(y).y<x~3>", "#b0<#e1,#w2>"] {
        let p = parse_process(src).expect(src);
        let printed = p.to_string();
        assert_eq!(parse_process(&printed).unwrap(), p);
    }
}
