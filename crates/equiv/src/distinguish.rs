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
//! The extraction replays the pair-refinement fixpoint as one more
//! scorer of the transfer walk (`bisim::transfer`): a pair died because
//! one side shows a barb the other lacks, or has an obligation (a move
//! to match, a discard to mirror) with no answer whose residuals
//! survived; recursing on that obligation's candidates yields a finite
//! experiment, whose depth is bounded by a budget of n₁·n₂ + 2 pairs.

use crate::bisim::{refine_auto, transfer, Note, RelView, Variant};
use crate::graph::{shared_pool, Graph, Opts};
use bpi_core::action::Action;
use bpi_core::name::Name;
use bpi_core::syntax::{Defs, P};
use bpi_semantics::budget::Budget;
use std::fmt;
use std::ops::ControlFlow::{self, Break, Continue};

/// A distinguishing experiment: evidence that the *left* process can do
/// something the right cannot match (or vice versa — see [`Side`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Experiment {
    /// The distinguishing observation is a barb the other side lacks.
    Barb { chan: Name, weak: bool },
    /// A move with the given label such that *every* answer of the other
    /// side leads to residuals distinguished by the nested experiment. A
    /// discard to mirror reads as the move `a(b̃)?` of the tuple's receipt
    /// label, or as `a:` when the other side neither receives nor
    /// discards on `a`.
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
    let d = explain_pair(v, g1, 0, g2, 0, rel, &mut depth_budget)?;
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

/// Explains why `(i, j)` is not in `rel`: the first unmet obligation of
/// the left side's transfer walk, else of the right side's, recursing on
/// its candidates while the depth budget lasts. `None` only when `rel`
/// is not `v`'s greatest fixpoint: a refuted pair has an unmet obligation
/// even with the pair itself counted as related, or adding it would give
/// a larger bisimulation.
fn explain_pair(
    v: Variant,
    g1: &Graph,
    i: usize,
    g2: &Graph,
    j: usize,
    rel: &[Vec<bool>],
    budget: &mut usize,
) -> Option<Distinction> {
    *budget = budget.saturating_sub(1);
    let (side, unmet) = [Side::Left, Side::Right]
        .into_iter()
        .find_map(|side| Some((side, first_unmet(v, g1, i, g2, j, rel, side)?)))?;
    let experiment = match unmet {
        Unmet::Barb(chan) => Experiment::Barb {
            chan,
            weak: v.is_weak(),
        },
        Unmet::Move(label, _) if *budget == 0 => Experiment::Move {
            label,
            answers: Vec::new(),
        },
        Unmet::Move(label, candidates) => {
            let answers = candidates
                .into_iter()
                .map(|(a, b)| {
                    let (i2, j2) = if side == Side::Left { (a, b) } else { (b, a) };
                    let d = explain_pair(v, g1, i2, g2, j2, rel, budget)?;
                    // Whether the mover's residual is the satisfying side.
                    Some((d.side == side, d.experiment))
                })
                .collect::<Option<_>>()?;
            Experiment::Move { label, answers }
        }
    };
    Some(Distinction { side, experiment })
}

/// The first unmet obligation of `side`'s walk of the pair `(i, j)`.
fn first_unmet(
    v: Variant,
    g1: &Graph,
    i: usize,
    g2: &Graph,
    j: usize,
    rel: &[Vec<bool>],
    side: Side,
) -> Option<Unmet> {
    let transposed = side == Side::Right;
    let mut first = FirstUnmet {
        rel: RelView::new(rel, transposed),
        pair: if transposed { (j, i) } else { (i, j) },
        unmet: None,
    };
    let _ = if transposed {
        transfer(v, g2, j, g1, i, &mut first)
    } else {
        transfer(v, g1, i, g2, j, &mut first)
    };
    first.unmet
}

/// An unmet obligation: a barb the other side lacks, or an obligation's
/// label with its candidate pairs in the walk's order and multiplicity.
enum Unmet {
    Barb(Name),
    Move(Action, Vec<(usize, usize)>),
}

/// The explainer's score of a transfer walk: it stops at the first
/// unmet obligation and keeps it. The pair being explained counts as
/// related, so a discard both sides share, whose only candidate is that
/// pair, is met.
struct FirstUnmet<'a> {
    rel: RelView<'a>,
    pair: (usize, usize),
    unmet: Option<Unmet>,
}

impl Note for FirstUnmet<'_> {
    fn note(
        &mut self,
        label: &Action,
        candidates: impl Iterator<Item = (usize, usize)>,
    ) -> ControlFlow<()> {
        let candidates: Vec<_> = candidates.collect();
        if candidates
            .iter()
            .any(|&(a, b)| (a, b) == self.pair || self.rel.holds(a, b))
        {
            return Continue(());
        }
        self.unmet = Some(Unmet::Move(label.clone(), candidates));
        Break(())
    }

    fn barb(&mut self, chan: Name) -> ControlFlow<()> {
        self.unmet = Some(Unmet::Barb(chan));
        Break(())
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
