//! Traces and **may-testing** — the paper's parting question, executable.
//!
//! Section 6 closes by observing that `ā.(b̄+c̄)` and `ā.b̄ + ā.c̄` are
//! *not* barbed equivalent, "surprising, as in our calculus an observer
//! can not influence the behavior of the two processes, nor can it
//! distinguish them", and announces a study of the preorders induced by
//! may testing. This module provides the two coarser observables needed
//! to make that observation precise:
//!
//! * **bounded trace sets** — the sequences of step-move labels (outputs
//!   and τ elided) a closed system can perform up to a depth;
//! * **may-testing**: a *test* is a static-context observer `O` with a
//!   fresh success channel `ω`; `p may T` iff `ν(shared) (p ‖ O)` can
//!   eventually broadcast on `ω`. Two processes are may-equivalent on a
//!   test set iff they pass the same tests.
//!
//! The crate's tests then demonstrate the paper's point: the pair above
//! is trace-equivalent and passes exactly the same randomized and
//! crafted tests, while every bisimulation in this repository separates
//! it — bisimilarity is strictly finer than any broadcast testing
//! scenario.

use crate::arbitrary::{Gen, GenCfg};
use bpi_core::action::Action;
use bpi_core::builder::*;
use bpi_core::name::{Name, NameSet};
use bpi_core::syntax::{Defs, P};
use bpi_semantics::{output_reachable, ExploreOpts, Lts};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;

/// The set of visible traces (sequences of output labels, τs skipped) of
/// length ≤ `depth`, with extruded names normalised positionally.
pub fn traces(p: &P, defs: &Defs, depth: usize) -> BTreeSet<Vec<String>> {
    let lts = Lts::new(defs);
    let mut out = BTreeSet::new();
    fn go(
        lts: &Lts<'_>,
        p: &P,
        depth: usize,
        prefix: &mut Vec<String>,
        out: &mut BTreeSet<Vec<String>>,
    ) {
        out.insert(prefix.clone());
        if depth == 0 {
            return;
        }
        for (act, cont) in lts.step_transitions(p) {
            match &act {
                Action::Tau => go(lts, &cont, depth - 1, prefix, out),
                Action::Output { .. } => {
                    prefix.push(act.normalise_label(prefix.len()));
                    go(lts, &cont, depth - 1, prefix, out);
                    prefix.pop();
                }
                _ => unreachable!(),
            }
        }
    }
    go(&lts, p, depth, &mut Vec::new(), &mut out);
    out
}

/// Bounded trace equivalence.
pub fn trace_equivalent(p: &P, q: &P, defs: &Defs, depth: usize) -> bool {
    traces(p, defs, depth) == traces(q, defs, depth)
}

/// A may-test: an observer process and its success channel.
#[derive(Clone, Debug)]
pub struct Test {
    pub observer: P,
    pub success: Name,
}

/// Whether `p` **may** pass the test: composed with the observer under a
/// restriction of all shared names, a broadcast on the success channel
/// is reachable. `None` when the state budget ran out.
pub fn may_pass(p: &P, t: &Test, defs: &Defs, max_states: usize) -> Option<bool> {
    let shared: Vec<Name> = p
        .free_names()
        .union(&t.observer.free_names())
        .iter()
        .filter(|n| *n != t.success)
        .collect();
    let sys = new_many(shared, par(p.clone(), t.observer.clone()));
    output_reachable(&sys, defs, t.success, ExploreOpts { max_states })
}

/// Generates `count` random observer tests over the given names: random
/// finite processes with success broadcasts grafted onto random leaves.
pub fn random_tests(names_pool: &NameSet, count: usize, seed: u64) -> Vec<Test> {
    let success = pick_success(names_pool);
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = GenCfg {
        names: names_pool.to_vec(),
        max_depth: 3,
        allow_restriction: false,
        allow_match: true,
        allow_par: true,
        max_arity: 1,
    };
    (0..count)
        .map(|i| {
            use rand::Rng;
            let mut g = Gen::new(cfg.clone(), rng.gen::<u64>() ^ i as u64);
            let body = g.process();
            Test {
                observer: graft_success(&body, success, &mut rng),
                success,
            }
        })
        .collect()
}

fn pick_success(avoid: &NameSet) -> Name {
    let mut s = String::from("omega");
    loop {
        let n = Name::intern_raw(&s);
        if !avoid.contains(n) {
            return n;
        }
        s.push('\'');
    }
}

/// Replaces each `nil` leaf with `ω̄` with probability ½ — the observer
/// reports success at the points it reaches.
fn graft_success(p: &P, success: Name, rng: &mut StdRng) -> P {
    use bpi_core::syntax::Process;
    use rand::Rng;
    match &**p {
        Process::Nil => {
            if rng.gen_bool(0.5) {
                out_(success, [])
            } else {
                nil()
            }
        }
        Process::Act(pre, cont) => {
            Process::Act(pre.clone(), graft_success(cont, success, rng)).rc()
        }
        Process::Sum(l, r) => sum(
            graft_success(l, success, rng),
            graft_success(r, success, rng),
        ),
        Process::Par(l, r) => par(
            graft_success(l, success, rng),
            graft_success(r, success, rng),
        ),
        Process::New(x, cont) => new(*x, graft_success(cont, success, rng)),
        Process::Match(x, y, l, r) => mat(
            *x,
            *y,
            graft_success(l, success, rng),
            graft_success(r, success, rng),
        ),
        _ => p.clone(),
    }
}

/// Sampled may-testing equivalence: `p` and `q` pass exactly the same
/// tests from the battery. Returns the first discriminating test on
/// failure.
pub fn may_equivalent_sampled(
    p: &P,
    q: &P,
    defs: &Defs,
    count: usize,
    seed: u64,
) -> Result<(), Test> {
    let fns = p.free_names().union(&q.free_names());
    for t in random_tests(&fns, count, seed) {
        let (rp, rq) = (may_pass(p, &t, defs, 30_000), may_pass(q, &t, defs, 30_000));
        if let (Some(a), Some(b)) = (rp, rq) {
            if a != b {
                return Err(t);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bisim::strong_bisimilar;

    fn d() -> Defs {
        Defs::new()
    }

    #[test]
    fn traces_of_simple_systems() {
        let defs = d();
        let [a, b] = names(["a", "b"]);
        let p = out(a, [], out_(b, []));
        let ts = traces(&p, &defs, 3);
        assert!(ts.contains(&vec![]));
        assert!(ts.contains(&vec!["a<>".to_string()]));
        assert!(ts.contains(&vec!["a<>".to_string(), "b<>".to_string()]));
        assert_eq!(ts.len(), 3);
    }

    #[test]
    fn tau_is_invisible_in_traces() {
        let defs = d();
        let a = Name::new("a");
        assert_eq!(
            traces(&tau(out_(a, [])), &defs, 4),
            traces(&out_(a, []), &defs, 4)
        );
    }

    #[test]
    fn extruded_names_normalise() {
        let defs = d();
        let [a, t, u] = names(["a", "t", "u"]);
        let p = new(t, out_(a, [t]));
        let q = new(u, out_(a, [u]));
        assert_eq!(traces(&p, &defs, 2), traces(&q, &defs, 2));
    }

    #[test]
    fn section6_pair_is_trace_equivalent_but_not_bisimilar() {
        // The paper's closing example, both halves made executable.
        let defs = d();
        let [a, b, c] = names(["a", "b", "c"]);
        let p = out(a, [], sum(out_(b, []), out_(c, [])));
        let q = sum(out(a, [], out_(b, [])), out(a, [], out_(c, [])));
        assert!(trace_equivalent(&p, &q, &defs, 5), "traces coincide");
        assert!(
            may_equivalent_sampled(&p, &q, &defs, 40, 17).is_ok(),
            "no broadcast test distinguishes them (may-testing)"
        );
        assert!(!strong_bisimilar(&p, &q, &defs), "bisimulation is finer");
    }

    #[test]
    fn may_testing_separates_genuinely_different_processes() {
        let defs = d();
        let [a, b, v] = names(["a", "b", "v"]);
        // Monadic outputs (the random observers listen at arity 1).
        let p = out_(a, [v]);
        let q = out_(b, [v]);
        assert!(
            may_equivalent_sampled(&p, &q, &defs, 60, 3).is_err(),
            "a test hears the difference between ā⟨v⟩ and b̄⟨v⟩"
        );
    }

    #[test]
    fn bisimilar_implies_trace_and_may_equivalent() {
        let defs = d();
        let [a, b, x] = names(["a", "b", "x"]);
        let p = sum(out(a, [b], inp_(a, [x])), tau(out_(b, [])));
        let q = par(p.clone(), nil());
        let c = crate::bisim::Checker::new(&defs);
        assert!(crate::bisim::decide(
            &c,
            crate::bisim::Variant::StrongLabelled,
            &p,
            &q
        ));
        assert!(trace_equivalent(&p, &q, &defs, 4));
        assert!(may_equivalent_sampled(&p, &q, &defs, 25, 5).is_ok());
    }

    #[test]
    fn crafted_test_hears_the_choice_resolution_not_the_branching() {
        // The deepest a test can see: after hearing ā it can try both b
        // and c, but only in *separate runs* — may-testing collects
        // possibilities, so both pairs answer identically.
        let defs = d();
        let [a, b, c] = names(["a", "b", "c"]);
        let p = out(a, [], sum(out_(b, []), out_(c, [])));
        let q = sum(out(a, [], out_(b, [])), out(a, [], out_(c, [])));
        let success = Name::intern_raw("omega");
        for target in [b, c] {
            let t = Test {
                observer: inp(a, [], inp(target, [], out_(success, []))),
                success,
            };
            assert_eq!(
                may_pass(&p, &t, &defs, 10_000),
                Some(true),
                "p may answer on {target}"
            );
            assert_eq!(may_pass(&q, &t, &defs, 10_000), Some(true));
        }
    }
}
