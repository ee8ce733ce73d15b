//! The state budget under the compose dispatch. The cap applies to the
//! graphs the checker refines over: under compose, the component graphs
//! and the composed products. Twelve identical stations have a
//! monolithic graph over the default 20,000-state cap, while their
//! orbit product has at most C(14, 2) = 91 states, so the default
//! dispatch gives a definite verdict where `BPI_COMPOSE=off` (the
//! monolithic oracle) reports the exhausted budget. The graph route
//! (`try_fixpoint`) shows both; `Checker::check` answers `Holds` in both
//! modes, since the two sides are structurally equal and it builds no
//! graph.
//!
//! `BPI_COMPOSE` is re-read on every dispatch and the environment is
//! process-global, so this file is its own test binary with one test.

use bpi_core::parser::parse_process;
use bpi_core::syntax::Defs;
use bpi_equiv::{Checker, Variant, Verdict};
use bpi_semantics::EngineError;

const ALL: [Variant; 6] = [
    Variant::StrongBarbed,
    Variant::WeakBarbed,
    Variant::StrongStep,
    Variant::WeakStep,
    Variant::StrongLabelled,
    Variant::WeakLabelled,
];

#[test]
fn composed_product_gets_a_verdict_where_the_monolithic_graph_is_over_the_cap() {
    std::env::remove_var("BPI_COMPOSE");
    let p = parse_process(&["(a<> + tau.b<>.a())"; 12].join(" | ")).expect("parses");
    let defs = Defs::new();
    let c = Checker::new(&defs);
    assert_eq!(c.opts.max_states, 20_000, "the default cap");

    for v in ALL {
        let (g1, g2, rel) = c.try_fixpoint(v, &p, &p).expect("the product fits the cap");
        assert!(rel.holds(0, 0), "{v:?}");
        assert!(g1.len() <= 91 && g2.len() <= 91, "orbit product too large");
        assert_eq!(c.check(v, &p, &p), Verdict::Holds, "{v:?}");
    }

    std::env::set_var("BPI_COMPOSE", "off");
    let forced = c.try_fixpoint(Variant::StrongLabelled, &p, &p).err();
    let settled = c.check(Variant::StrongLabelled, &p, &p);
    std::env::remove_var("BPI_COMPOSE");
    assert_eq!(
        forced,
        Some(EngineError::StateBudgetExceeded { limit: 20_000 })
    );
    // `check` settles the pair structurally in both modes: no graph is
    // built, so the cap does not matter to it.
    assert_eq!(settled, Verdict::Holds);
}
