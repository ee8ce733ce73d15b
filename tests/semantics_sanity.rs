//! Experiment E2 — well-formedness of Tables 2 and 3.
//!
//! * **receive-xor-discard dichotomy**: for every process `p` and
//!   channel `a` (at a consistent arity), `p —a:→` iff `p` has no
//!   `a(ṽ)`-transition — a process either hears a broadcast or ignores
//!   it, never both, never neither;
//! * **outputs are never blocked**: composing an output-capable process
//!   with any listener/non-listener never removes its output subjects;
//! * the syntactic heads of `bpi-axioms` (derived from the *axioms*)
//!   agree with the SOS transitions of `bpi-semantics` (derived from
//!   Table 3) on finite processes — two independent implementations of
//!   the first transition layer;
//! * **inputs per (channel, arity)**: [`Lts::input_transitions`], which
//!   derives each pair of the listening interface on its first pool
//!   tuple and refuses the pair when that derivation is empty, equals
//!   the per-tuple loop it replaced, label for label and in order;
//! * **the interface is the discard set**: on polyadic terms,
//!   `p —a:→` iff `a ∉ dom(input_arities(p))`, for every pool name, and
//!   that is the discard set [`Lts::inputs`] hands the graph build.

use bpi::core::builder::*;
use bpi::core::canon::{alpha_eq, canon};
use bpi::core::name::Name;
use bpi::core::syntax::{Defs, P};
use bpi::core::Action;
use bpi::equiv::arbitrary::{Gen, GenCfg};
use bpi::semantics::{discards, input_arities, tuples, Lts};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Polyadic terms with restriction, match and parallel composition.
fn polyadic() -> GenCfg {
    GenCfg {
        max_arity: 2,
        ..GenCfg::finite_monadic(names(["a", "b", "c"]).to_vec())
    }
}

/// The generator's free names and the first binders it mints, so that
/// received objects and observed channels collide with restriction
/// binders.
fn pool() -> Vec<Name> {
    names(["a", "b", "c", "g1", "g2"]).to_vec()
}

/// A generated polyadic term, and shapes the generator seldom reaches
/// built around generated continuations: parallel listeners at two
/// arities on one channel (a silent blocker), a sum listening at both
/// arities beside a listener at one of them (arity 1 blocked, arity 2
/// heard), and restrictions whose binder is a pool name, received as an
/// object or listened on as a channel.
fn cases(seed: u64) -> Vec<P> {
    let mut gen = Gen::new(polyadic(), seed);
    let (p, q) = (gen.process(), gen.process());
    let [a, x, y, g1] = names(["a", "x", "y", "g1"]);
    vec![
        p.clone(),
        par(inp(a, [x], p.clone()), inp(a, [x, y], q.clone())),
        par(
            sum(inp(a, [x], p.clone()), inp(a, [x, y], q.clone())),
            inp(a, [x, y], p.clone()),
        ),
        par(p.clone(), par(inp_(a, [x]), inp_(a, [x, y]))),
        new(g1, par(inp(a, [x], out_(g1, [x])), q.clone())),
        new(g1, sum(inp(g1, [x], p), q)),
    ]
}

/// The input derivation `Lts::input_transitions` ran before it derived
/// each (channel, arity) pair once: every pool tuple of every arity of
/// the interface, each derived on its own.
fn per_tuple_inputs(lts: &Lts<'_>, p: &P, pool: &[Name]) -> Vec<(Action, P)> {
    let mut out = Vec::new();
    for (chan, arities) in input_arities(p, lts.defs) {
        for arity in arities {
            for objects in tuples(pool, arity) {
                for cont in lts.receives(p, chan, &objects) {
                    let objects = objects.clone();
                    out.push((Action::Input { chan, objects }, cont));
                }
            }
        }
    }
    out
}

fn inputs_match_per_tuple_loop(p: &P) -> Result<(), TestCaseError> {
    let defs = Defs::new();
    let lts = Lts::new(&defs);
    let got = lts.input_transitions(p, &pool());
    let want = per_tuple_inputs(&lts, p, &pool());
    prop_assert_eq!(got.len(), want.len(), "input count differs on {}", p);
    for (k, ((ga, gc), (wa, wc))) in got.iter().zip(&want).enumerate() {
        prop_assert_eq!(ga, wa, "label {} differs on {}", k, p);
        prop_assert!(
            alpha_eq(gc, wc),
            "continuation {} of {} on {}: {} vs {}",
            k,
            ga,
            p,
            gc,
            wc
        );
    }
    Ok(())
}

fn discards_match_interface(p: &P) -> Result<(), TestCaseError> {
    let defs = Defs::new();
    let interface = input_arities(p, &defs);
    let inputs = Lts::new(&defs).inputs(p, &pool());
    for a in pool() {
        let d = discards(p, a, &defs);
        prop_assert_eq!(
            d,
            !interface.contains_key(&a),
            "{} on {}: discards={} but interface {:?}",
            p,
            a,
            d,
            interface
        );
        prop_assert_eq!(inputs.discards(&pool()).contains(a), d, "{} on {}", p, a);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn receive_xor_discard(seed in 0u64..10_000) {
        let ns = names(["a", "b", "c"]);
        let cfg = GenCfg::finite_monadic(ns.to_vec());
        let p = Gen::new(cfg, seed).process();
        let defs = Defs::new();
        let lts = Lts::new(&defs);
        let v = Name::new("vv");
        for a in ns {
            let receives = !lts.receives(&p, a, &[v]).is_empty();
            let discards = discards(&p, a, &defs);
            // The generator is monadic, so arity always matches and the
            // dichotomy is exact.
            prop_assert!(
                receives != discards,
                "dichotomy failed for {p} on {a}: receives={receives} discards={discards}"
            );
        }
    }

    #[test]
    fn inputs_per_arity_match_the_per_tuple_loop(seed in 0u64..100_000) {
        for p in cases(seed) {
            inputs_match_per_tuple_loop(&p)?;
        }
    }

    #[test]
    fn polyadic_discard_iff_outside_interface(seed in 0u64..100_000) {
        for p in cases(seed) {
            discards_match_interface(&p)?;
        }
    }

    #[test]
    fn outputs_never_blocked(seed in 0u64..10_000) {
        // For p ‖ q, every output subject of p alone is still an output
        // subject of the composition (rules 13/14: someone receives or
        // everyone discards — the send happens either way).
        let ns = names(["a", "b"]);
        let cfg = GenCfg::finite_monadic(ns.to_vec());
        let mut g = Gen::new(cfg, seed);
        let p = g.process();
        let q = g.process();
        let defs = Defs::new();
        let lts = Lts::new(&defs);
        let subjects = |x: &bpi::core::syntax::P| {
            lts.step_transitions(x)
                .into_iter()
                .filter(|(a, _)| a.is_output())
                .filter_map(|(a, _)| a.subject())
                .collect::<std::collections::BTreeSet<_>>()
        };
        let solo = subjects(&p);
        let composed = subjects(&par(p.clone(), q.clone()));
        for s in &solo {
            prop_assert!(
                composed.contains(s),
                "output on {s} of {p} blocked by composition with {q}"
            );
        }
    }

    #[test]
    fn axiom_heads_agree_with_sos(seed in 0u64..10_000) {
        // The Table 7/8 rewrites and the Table 3 SOS rules must produce
        // the same step moves (same multiset of (label, continuation) up
        // to α and the bound-output representative choice).
        let ns = names(["a", "b"]);
        let cfg = GenCfg::finite_monadic(ns.to_vec());
        let p = Gen::new(cfg, seed).process();
        let defs = Defs::new();
        let lts = Lts::new(&defs);

        // SOS side: τ and output steps, as canonical summand strings.
        let mut sos: Vec<String> = lts
            .step_transitions(&p)
            .into_iter()
            .map(|(act, cont)| summand_key(&act, &cont))
            .collect();
        sos.sort();
        sos.dedup();

        // Axiom side.
        let mut ax: Vec<String> = bpi::axioms::heads(&p)
            .into_iter()
            .filter(|(h, _)| !h.is_input())
            .map(|(h, cont)| head_key(&h, &cont))
            .collect();
        ax.sort();
        ax.dedup();

        prop_assert_eq!(sos, ax, "head disagreement on {}", p);
    }
}

/// Canonical key for an SOS step move: normalise extruded names to
/// positional markers and α-canonicalise the continuation.
fn summand_key(act: &bpi::core::Action, cont: &bpi::core::syntax::P) -> String {
    use bpi::core::subst::Subst;
    use bpi::core::Action;
    match act {
        Action::Tau => format!("tau.{}", canon(&bpi::core::prune(cont))),
        Action::Output {
            chan,
            objects,
            bound,
        } => {
            let mut s = Subst::identity();
            for (i, b) in bound.iter().enumerate() {
                s.bind(*b, Name::intern_raw(&format!("#K{i}")));
            }
            let objs: Vec<String> = objects.iter().map(|o| s.apply(*o).to_string()).collect();
            format!(
                "{}<{}>!{}.{}",
                chan,
                objs.join(","),
                bound.len(),
                canon(&bpi::core::prune(&s.apply_process(cont)))
            )
        }
        _ => unreachable!(),
    }
}

/// The same canonical key for an axiom-side head.
fn head_key(h: &bpi::axioms::Head, cont: &bpi::core::syntax::P) -> String {
    use bpi::axioms::Head;
    use bpi::core::subst::Subst;
    match h {
        Head::Tau => format!("tau.{}", canon(&bpi::core::prune(cont))),
        Head::Output(chan, objects) => {
            let objs: Vec<String> = objects.iter().map(|o| o.to_string()).collect();
            format!(
                "{}<{}>!0.{}",
                chan,
                objs.join(","),
                canon(&bpi::core::prune(cont))
            )
        }
        Head::BoundOutput {
            chan,
            objects,
            bound,
        } => {
            let mut s = Subst::identity();
            for (i, b) in bound.iter().enumerate() {
                s.bind(*b, Name::intern_raw(&format!("#K{i}")));
            }
            let objs: Vec<String> = objects.iter().map(|o| s.apply(*o).to_string()).collect();
            format!(
                "{}<{}>!{}.{}",
                chan,
                objs.join(","),
                bound.len(),
                canon(&bpi::core::prune(&s.apply_process(cont)))
            )
        }
        Head::Input(..) => unreachable!(),
    }
}

#[test]
fn dichotomy_holds_for_recursive_processes() {
    let [a, b, x] = names(["a", "b", "x"]);
    let xid = bpi::core::syntax::Ident::new("SanR");
    let defs = Defs::new();
    let lts = Lts::new(&defs);
    let p = rec(xid, [a], inp(a, [x], var(xid, [a])), [a]);
    assert!(!lts.receives(&p, a, &[b]).is_empty());
    assert!(!discards(&p, a, &defs));
    assert!(lts.receives(&p, b, &[a]).is_empty());
    assert!(discards(&p, b, &defs));
}
