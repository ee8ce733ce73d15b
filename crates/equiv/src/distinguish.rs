//! Distinguishing evidence for failed equivalence checks.
//!
//! When `p ≁ q`, a bare `false` is a poor answer for a tool user. This
//! module extracts a **distinguishing experiment**: a tree of moves that
//! one process can perform and the other cannot match (staying related),
//! in the spirit of the Hennessy–Milner characterisation of
//! bisimilarity. For the broadcast calculus the relevant observations
//! are:
//!
//! * `⟨α⟩` — "can do α (τ / output / input-or-discard) and then …";
//! * `↓a` — "has a strong barb on a" (for the barbed variants);
//! * `↓ₐ^φ` / step moves for the step variants.
//!
//! The extraction replays the pair-refinement fixpoint: a pair died
//! because some move of one side had no matching move with surviving
//! residuals; recursing on the best witness yields a finite experiment,
//! whose depth is bounded by the number of refinement rounds.

use crate::bisim::{refine_auto, Variant};
use crate::graph::{shared_pool, Graph, Opts};
use bpi_core::action::Action;
use bpi_core::name::Name;
use bpi_core::syntax::{Defs, P};
use bpi_semantics::budget::Budget;
use std::fmt;

/// A distinguishing experiment: evidence that the *left* process can do
/// something the right cannot match (or vice versa — see [`Side`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Experiment {
    /// The distinguishing observation is a barb the other side lacks.
    Barb { chan: Name, weak: bool },
    /// A move with the given label such that *every* answer of the other
    /// side leads to residuals distinguished by the nested experiment.
    Move {
        label: Action,
        /// For each answer the opponent has (empty when it has none): a
        /// distinguishing experiment for the residual pair, and whether
        /// the *mover's residual* is the side satisfying it.
        answers: Vec<(bool, Experiment)>,
    },
}

/// Which side performs the top-level distinguishing move.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    Left,
    Right,
}

/// A rooted distinguishing result.
#[derive(Clone, Debug)]
pub struct Distinction {
    pub side: Side,
    pub experiment: Experiment,
}

impl fmt::Display for Experiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Experiment::Barb { chan, weak } => {
                write!(f, "{}↓{chan}", if *weak { "⇓" } else { "" })
            }
            Experiment::Move { label, answers } => {
                write!(f, "⟨{label}⟩")?;
                let one = |f: &mut fmt::Formatter<'_>, (mine, e): &(bool, Experiment)| {
                    if *mine {
                        write!(f, "{e}")
                    } else {
                        write!(f, "¬({e})")
                    }
                };
                match answers.len() {
                    0 => write!(f, "(no answer)"),
                    1 => one(f, &answers[0]),
                    _ => {
                        write!(f, "(")?;
                        for (i, a) in answers.iter().enumerate() {
                            if i > 0 {
                                write!(f, " ∧ ")?;
                            }
                            one(f, a)?;
                        }
                        write!(f, ")")
                    }
                }
            }
        }
    }
}

impl fmt::Display for Distinction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let side = match self.side {
            Side::Left => "left",
            Side::Right => "right",
        };
        write!(f, "[{side} satisfies] {}", self.experiment)
    }
}

/// Explains why `p ≁ q` under the given strong variant, or `None` when
/// they are in fact bisimilar. Weak variants are currently explained
/// through their strong counterparts' graphs (the experiment is still
/// valid evidence, read weakly).
///
/// Resource exhaustion while building the graphs also yields `None` (no
/// distinction could be exhibited); use [`try_explain`] to tell the two
/// apart.
pub fn explain(v: Variant, p: &P, q: &P, defs: &Defs, opts: Opts) -> Option<Distinction> {
    try_explain(v, p, q, defs, opts).unwrap_or(None)
}

/// [`explain`] with typed exhaustion: `Err` when either graph exceeds
/// `opts.max_states` before the distinction search can run.
pub fn try_explain(
    v: Variant,
    p: &P,
    q: &P,
    defs: &Defs,
    opts: Opts,
) -> Result<Option<Distinction>, bpi_semantics::EngineError> {
    let pool = shared_pool(p, q, opts.fresh_inputs);
    let budget = Budget::unlimited();
    let g1 = Graph::build_cached(p, defs, &pool, opts, &budget)?;
    let g2 = Graph::build_cached(q, defs, &pool, opts, &budget)?;
    let rel = refine_auto(v, &g1, &g2, 1);
    Ok(explain_fixpoint(v, &g1, &g2, &rel.rel))
}

/// Extracts a distinction from an **already-computed** fixpoint — the
/// shape [`crate::bisim::Checker::run_with_checkpoint`] hands back —
/// without rebuilding graphs or re-refining, so a resumed or sliced run
/// ([`crate::bisim::Checker::run_slice`]) can explain its `Fails`
/// verdict for free. `None` when the root pair survived refinement.
pub fn explain_fixpoint(
    v: Variant,
    g1: &Graph,
    g2: &Graph,
    rel: &[Vec<bool>],
) -> Option<Distinction> {
    if rel[0][0] {
        return None;
    }
    let initial_budget = g1.len() * g2.len() + 2;
    let mut depth_budget = initial_budget;
    let d = explain_pair(v, g1, 0, g2, 0, rel, &mut depth_budget);
    // The experiment is a function of the fixpoint relation, which is
    // engine-independent — so the count and search depth
    // replay deterministically.
    bpi_obs::counter("equiv.distinguish.formulas", bpi_obs::Det::Deterministic).inc();
    bpi_obs::counter("equiv.distinguish.depth", bpi_obs::Det::Deterministic)
        .add((initial_budget - depth_budget) as u64);
    bpi_obs::emit("equiv.distinguish", "explained", || {
        vec![
            ("depth", bpi_obs::Value::from(initial_budget - depth_budget)),
            ("experiment", bpi_obs::Value::from(d.to_string())),
        ]
    });
    Some(d)
}

fn related(rel: &[Vec<bool>], i: usize, j: usize) -> bool {
    rel[i][j]
}

fn explain_pair(
    v: Variant,
    g1: &Graph,
    i: usize,
    g2: &Graph,
    j: usize,
    rel: &[Vec<bool>],
    budget: &mut usize,
) -> Distinction {
    if *budget > 0 {
        *budget -= 1;
    }
    // Try the left side's moves first, then the right's.
    if let Some(exp) = dir_explain(v, g1, i, g2, j, rel, false, budget) {
        return Distinction {
            side: Side::Left,
            experiment: exp,
        };
    }
    if let Some(exp) = dir_explain(v, g2, j, g1, i, rel, true, budget) {
        return Distinction {
            side: Side::Right,
            experiment: exp,
        };
    }
    // The pair died in the fixpoint, so one direction must fail; if the
    // budget ran dry, fall back to a generic barb report.
    Distinction {
        side: Side::Left,
        experiment: Experiment::Barb {
            chan: Name::intern_raw("#unknown"),
            weak: false,
        },
    }
}

/// If `(ga, i)` has an unmatched observation against `(gb, j)`, return
/// the experiment witnessing it.
#[allow(clippy::too_many_arguments)]
fn dir_explain(
    v: Variant,
    ga: &Graph,
    i: usize,
    gb: &Graph,
    j: usize,
    rel: &[Vec<bool>],
    transposed: bool,
    budget: &mut usize,
) -> Option<Experiment> {
    let rl = |x: usize, y: usize| {
        if transposed {
            related(rel, y, x)
        } else {
            related(rel, x, y)
        }
    };
    // Barb mismatch (barbed/step variants).
    if matches!(
        v,
        Variant::StrongBarbed | Variant::WeakBarbed | Variant::StrongStep | Variant::WeakStep
    ) {
        let (ba, bb) = match v {
            Variant::StrongBarbed | Variant::StrongStep => (ga.strong_barbs(i), gb.strong_barbs(j)),
            Variant::WeakBarbed => (ga.weak_barbs(i), gb.weak_barbs(j)),
            _ => (ga.weak_step_barbs(i), gb.weak_step_barbs(j)),
        };
        for chan in &ba {
            if !bb.contains(chan) {
                return Some(Experiment::Barb {
                    chan,
                    weak: matches!(v, Variant::WeakBarbed | Variant::WeakStep),
                });
            }
        }
    }
    // Move mismatch.
    for (lid, i2) in ga.edge_ids(i) {
        let act = ga.label(lid);
        let considered = match v {
            Variant::StrongBarbed | Variant::WeakBarbed => matches!(act, Action::Tau),
            Variant::StrongStep | Variant::WeakStep => act.is_step_move(),
            _ => true,
        };
        if !considered {
            continue;
        }
        // The opponent's candidate answers for this label.
        let answers: Vec<usize> = opponent_answers(v, gb, j, act);
        if answers.iter().any(|&j2| rl(i2, j2)) {
            continue; // matched
        }
        // Unmatched: recurse into each answer to explain why its
        // residual pair is distinguished.
        if *budget == 0 {
            return Some(Experiment::Move {
                label: act.clone(),
                answers: Vec::new(),
            });
        }
        let sub: Vec<(bool, Experiment)> = answers
            .iter()
            .map(|&j2| {
                let d = if transposed {
                    explain_pair(v, gb, j2, ga, i2, rel, budget)
                } else {
                    explain_pair(v, ga, i2, gb, j2, rel, budget)
                };
                // Whether the mover's residual is the satisfying side:
                // in the non-transposed call the residual is the first
                // argument (Side::Left); transposed, the second.
                let mine = (d.side == Side::Left) != transposed;
                (mine, d.experiment)
            })
            .collect();
        return Some(Experiment::Move {
            label: act.clone(),
            answers: sub,
        });
    }
    None
}

/// The opponent's possible responses to a move with the given label.
fn opponent_answers(v: Variant, gb: &Graph, j: usize, act: &Action) -> Vec<usize> {
    match v {
        Variant::StrongBarbed => gb.tau_succs(j).collect(),
        Variant::WeakBarbed => gb.tau_closure(j).iter().copied().collect(),
        Variant::StrongStep => gb.step_edges(j).map(|(_, k)| k).collect(),
        Variant::WeakStep => gb.step_closure(j).iter().copied().collect(),
        Variant::StrongLabelled => {
            // Same-label answers compare interned ids after translating
            // the mover's label into the opponent's id space.
            let same = |gb: &Graph| -> Vec<usize> {
                match gb.csr().label_id(act) {
                    Some(bl) => gb
                        .edge_ids(j)
                        .filter(|&(l, _)| l == bl)
                        .map(|(_, k)| k)
                        .collect(),
                    None => Vec::new(),
                }
            };
            match act {
                Action::Tau => gb.tau_succs(j).collect(),
                Action::Output { .. } => same(gb),
                Action::Input { chan, .. } => {
                    let mut out = same(gb);
                    if gb.state_discards(j, *chan) {
                        out.push(j);
                    }
                    out
                }
                Action::Discard { .. } => vec![j],
            }
        }
        Variant::WeakLabelled => match act {
            Action::Tau => gb.tau_closure(j).iter().copied().collect(),
            Action::Output { .. } => gb.weak_label(j, act).iter().copied().collect(),
            Action::Input { chan, .. } => {
                let mut s: std::collections::BTreeSet<usize> =
                    gb.weak_label(j, act).iter().copied().collect();
                s.extend(gb.weak_discard(j, *chan).iter().copied());
                s.into_iter().collect()
            }
            Action::Discard { .. } => vec![j],
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bisim::Checker;
    use bpi_core::builder::*;

    fn d() -> Defs {
        Defs::new()
    }

    #[test]
    fn no_distinction_for_bisimilar_pairs() {
        let defs = d();
        let [a, b] = names(["a", "b"]);
        let p = out(a, [b], nil());
        let q = par(p.clone(), nil());
        assert!(explain(Variant::StrongLabelled, &p, &q, &defs, Opts::default()).is_none());
    }

    #[test]
    fn explains_differing_outputs() {
        let defs = d();
        let [a, b, c] = names(["a", "b", "c"]);
        let p = out_(a, [b]);
        let q = out_(a, [c]);
        let dist = explain(Variant::StrongLabelled, &p, &q, &defs, Opts::default()).unwrap();
        // The top move is an a-output with no answer.
        match &dist.experiment {
            Experiment::Move { label, answers } => {
                assert_eq!(label.subject(), Some(a));
                assert!(answers.is_empty(), "no same-label answer exists");
            }
            other => panic!("expected a move, got {other:?}"),
        }
    }

    #[test]
    fn explains_deep_difference() {
        // ā.(b̄+c̄) vs ā.b̄+ā.c̄: the distinction is one level down.
        let defs = d();
        let [a, b, c] = names(["a", "b", "c"]);
        let p = out(a, [], sum(out_(b, []), out_(c, [])));
        let q = sum(out(a, [], out_(b, [])), out(a, [], out_(c, [])));
        let dist = explain(Variant::StrongLabelled, &p, &q, &defs, Opts::default()).unwrap();
        let text = dist.to_string();
        assert!(text.contains("⟨a<>⟩"), "experiment: {text}");
        // Both answers of the opponent must be refuted.
        match &dist.experiment {
            Experiment::Move { answers, .. } => assert_eq!(answers.len(), 2),
            other => panic!("expected a move, got {other:?}"),
        }
    }

    #[test]
    fn explains_barb_mismatch() {
        let defs = d();
        let [a, b] = names(["a", "b"]);
        let p = out_(a, []);
        let q = out_(b, []);
        let dist = explain(Variant::StrongBarbed, &p, &q, &defs, Opts::default()).unwrap();
        assert!(matches!(dist.experiment, Experiment::Barb { .. }));
    }

    #[test]
    fn explanation_is_consistent_with_checker() {
        // explain() returns Some iff the checker says ≁, on a mixed bag.
        let defs = d();
        let checker = Checker::new(&defs);
        let [a, b, x] = names(["a", "b", "x"]);
        let pairs = vec![
            (inp_(a, [x]), nil()),
            (inp(a, [x], out_(x, [])), nil()),
            (tau(out_(a, [])), out_(a, [])),
            (sum(out_(a, []), out_(b, [])), sum(out_(b, []), out_(a, []))),
        ];
        for (p, q) in pairs {
            for v in [
                Variant::StrongBarbed,
                Variant::StrongStep,
                Variant::StrongLabelled,
                Variant::WeakLabelled,
            ] {
                let bis = crate::bisim::decide(&checker, v, &p, &q);
                let exp = explain(v, &p, &q, &defs, Opts::default());
                assert_eq!(bis, exp.is_none(), "{v:?} on {p} vs {q}: {exp:?}");
            }
        }
    }
}
