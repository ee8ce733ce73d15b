//! The compositional engine on the repository's own encodings: the
//! leader election is exactly the shape minimize-then-compose targets —
//! a top-level parallel composition of candidates plus a monitor, all
//! on shared broadcast channels. The monolithic build stays the oracle
//! (as in `crates/equiv/tests/compose_oracle.rs`); here the systems are
//! real protocol encodings rather than generated terms.

use bpi::core::builder::*;
use bpi::core::syntax::Defs;
use bpi::encodings::election::{candidate, channels, election_system, monitor};
use bpi::equiv::{build_composed, refine, refine_auto, shared_pool, Graph, Opts, Variant};
use bpi::semantics::Budget;

const ALL: [Variant; 6] = [
    Variant::StrongBarbed,
    Variant::StrongStep,
    Variant::StrongLabelled,
    Variant::WeakBarbed,
    Variant::WeakStep,
    Variant::WeakLabelled,
];

/// The named election (distinct candidate ids, so every component is
/// its own symmetry class): the gate accepts it — uniform arities on
/// `claim`/`led`, every state listens or discards, no restriction —
/// and the composed graph is bisimilar to the monolithic one under
/// every variant.
#[test]
fn composed_election_matches_monolithic() {
    let (sys, defs, _ch) = election_system(3);
    let opts = Opts::default();
    let pool = shared_pool(&sys, &sys, opts.fresh_inputs);
    let comp = build_composed(&sys, &defs, &pool, opts, &Budget::unlimited())
        .expect("election is finite")
        .expect("the election passes the compose gate");
    let mono = Graph::build(&sys, &defs, &pool, opts).expect("election fits");
    for v in ALL {
        assert!(
            refine(v, &mono, &comp).holds(0, 0),
            "{v:?}: composed election diverged from the monolithic graph"
        );
    }
}

/// Permuting the candidate list is behaviourally invisible, and the
/// compositional engine agrees with the monolithic verdict on it for
/// every variant.
#[test]
fn candidate_order_is_invisible_compositionally() {
    let ch = channels();
    let ids = ["n0", "n1", "n2"].map(bpi::core::Name::intern_raw);
    let build = |order: [usize; 3]| {
        par_of(
            order
                .iter()
                .map(|&i| candidate(&ch, ids[i]))
                .chain(std::iter::once(monitor(&ch))),
        )
    };
    let p = build([0, 1, 2]);
    let q = build([2, 0, 1]);
    let defs = Defs::new();
    let opts = Opts::default();
    let pool = shared_pool(&p, &q, opts.fresh_inputs);
    let cp = build_composed(&p, &defs, &pool, opts, &Budget::unlimited())
        .expect("finite")
        .expect("gate accepts");
    let cq = build_composed(&q, &defs, &pool, opts, &Budget::unlimited())
        .expect("finite")
        .expect("gate accepts");
    let gp = Graph::build(&p, &defs, &pool, opts).expect("fits");
    let gq = Graph::build(&q, &defs, &pool, opts).expect("fits");
    for v in ALL {
        let mono = refine_auto(v, &gp, &gq, 1).holds(0, 0);
        let comp = refine_auto(v, &cp, &cq, 1).holds(0, 0);
        assert!(mono, "{v:?}: candidate order must be invisible");
        assert_eq!(mono, comp, "{v:?}: compositional verdict diverged");
    }
}

/// An *anonymous* election — every candidate is the same hash-consed
/// term — is the symmetry-reduction showcase on a real encoding: the
/// orbit-canonical product is strictly smaller than the monolithic
/// graph (multisets vs ordered tuples) yet bisimilar to it.
#[test]
fn anonymous_election_exercises_symmetry_reduction() {
    let ch = channels();
    let anon = bpi::core::Name::intern_raw("anon");
    let n = 5;
    let sys = par_of(
        (0..n)
            .map(|_| candidate(&ch, anon))
            .chain(std::iter::once(monitor(&ch))),
    );
    let defs = Defs::new();
    let opts = Opts::default();
    let pool = shared_pool(&sys, &sys, opts.fresh_inputs);
    let comp = build_composed(&sys, &defs, &pool, opts, &Budget::unlimited())
        .expect("finite")
        .expect("gate accepts");
    let mono = Graph::build(&sys, &defs, &pool, opts).expect("fits");
    assert!(
        comp.len() < mono.len(),
        "orbit states ({}) must undercut monolithic states ({})",
        comp.len(),
        mono.len()
    );
    for v in ALL {
        assert!(
            refine(v, &mono, &comp).holds(0, 0),
            "{v:?}: symmetry-reduced election diverged from the monolithic graph"
        );
    }
}
