//! The graph route for tests whose subject is the semantics or an
//! engine.
//!
//! `Checker::check` (and `bisimilar`, `strong`, `weak`, `all_variants`
//! through it) settles structurally equal pairs without building a
//! graph, and decides most strong checks from the root pair outward
//! over states derived on demand. A test that feeds such a pair as
//! evidence about the transition relation or a refiner decides it here
//! instead, through `Checker::try_fixpoint`, which always builds and
//! refines the graphs, and asserts that `check` agrees.

#![allow(dead_code)] // each test target uses a different subset

use bpi::core::syntax::{Defs, P};
use bpi::equiv::{Checker, Variant, Verdict};

/// The six variants in `all_variants` order.
pub const ALL: [Variant; 6] = [
    Variant::StrongBarbed,
    Variant::WeakBarbed,
    Variant::StrongStep,
    Variant::WeakStep,
    Variant::StrongLabelled,
    Variant::WeakLabelled,
];

/// `p ~ᵥ q` decided on the graph route, like `Checker::bisimilar` (an
/// exhausted budget reads `false`). Panics when `Checker::check`
/// disagrees: a definite graph verdict must be its verdict. An exhausted
/// graph route leaves it the same error, a structural `Holds`, or, for a
/// strong variant, a definite verdict of the on-the-fly search, which
/// reads only the states the root pair's obligations reach and so can
/// decide a pair whose graphs exceed the ceiling.
pub fn decide(c: &Checker, v: Variant, p: &P, q: &P) -> bool {
    let graph = c.try_fixpoint(v, p, q).map(|(_, _, rel)| rel.holds(0, 0));
    let checked = c.check(v, p, q);
    match &graph {
        Ok(holds) => assert_eq!(
            checked.holds(),
            *holds,
            "check disagrees with the graph route on {v:?}: {p} vs {q} ({checked:?})"
        ),
        Err(e) => assert!(
            checked.holds()
                || checked == Verdict::Inconclusive(e.clone())
                || (!v.is_weak() && matches!(checked, Verdict::Fails(_))),
            "check disagrees with the exhausted graph route on {v:?}: {p} vs {q} ({checked:?})"
        ),
    }
    graph.unwrap_or(false)
}

/// [`decide`] for strong labelled bisimilarity, like `Checker::strong`.
pub fn strong(c: &Checker, p: &P, q: &P) -> bool {
    decide(c, Variant::StrongLabelled, p, q)
}

/// [`decide`] for weak labelled bisimilarity, like `Checker::weak`.
pub fn weak(c: &Checker, p: &P, q: &P) -> bool {
    decide(c, Variant::WeakLabelled, p, q)
}

/// `all_variants` on the graph route: [`decide`] for each variant.
pub fn all_variants(p: &P, q: &P, defs: &Defs) -> [(Variant, bool); 6] {
    let c = Checker::new(defs);
    ALL.map(|v| (v, decide(&c, v, p, q)))
}
