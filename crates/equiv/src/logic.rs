//! A Hennessy–Milner-style modal logic for the broadcast calculus.
//!
//! Bisimilarity is classically characterised by modal logic: two
//! image-finite processes are bisimilar iff they satisfy the same
//! formulas. For the bπ-calculus the modalities follow the moves of
//! Definition 8:
//!
//! ```text
//! φ ::= tt | ¬φ | φ∧φ
//!     | ⟨τ⟩φ              after some silent step, φ
//!     | ⟨νb̃ āx̃⟩φ          after that (bound) output, φ
//!     | ⟨a(x̃)?⟩φ          after receiving x̃ on a — or discarding — φ
//!     | ↓a                 strong output barb on a
//! ```
//!
//! [`satisfies`] decides satisfaction over a [`Graph`];
//! [`Experiment::to_formula`] converts the distinguishing experiments of
//! [`crate::distinguish`] into formulas, and the crate's tests close the
//! loop: whenever the checker separates `p` and `q`, the extracted
//! formula holds on exactly one of them — a semantic audit of the
//! checker itself.

use crate::distinguish::{Distinction, Experiment, Side};
use crate::graph::{Graph, Opts};
use bpi_core::action::Action;
use bpi_core::name::{Name, NameSet};
use bpi_core::syntax::{Defs, P};
use std::fmt;

/// A modal formula.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Formula {
    True,
    Not(Box<Formula>),
    And(Box<Formula>, Box<Formula>),
    /// `⟨α⟩φ` — some α-move (with the `a(b)?` input-or-discard reading
    /// for inputs) leads to a state satisfying φ.
    Diamond(Action, Box<Formula>),
    /// `↓a` — strong output barb.
    Barb(Name),
}

impl Formula {
    #[allow(clippy::should_implement_trait)]
    pub fn not(f: Formula) -> Formula {
        Formula::Not(Box::new(f))
    }

    pub fn and(a: Formula, b: Formula) -> Formula {
        Formula::And(Box::new(a), Box::new(b))
    }

    pub fn diamond(act: Action, f: Formula) -> Formula {
        Formula::Diamond(act, Box::new(f))
    }

    /// `[α]φ = ¬⟨α⟩¬φ`.
    pub fn boxm(act: Action, f: Formula) -> Formula {
        Formula::not(Formula::diamond(act, Formula::not(f)))
    }

    /// Modal depth.
    pub fn depth(&self) -> usize {
        match self {
            Formula::True | Formula::Barb(_) => 0,
            Formula::Not(f) => f.depth(),
            Formula::And(a, b) => a.depth().max(b.depth()),
            Formula::Diamond(_, f) => 1 + f.depth(),
        }
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::True => f.write_str("tt"),
            Formula::Not(x) => write!(f, "¬{x}"),
            Formula::And(a, b) => write!(f, "({a} ∧ {b})"),
            Formula::Diamond(act, x) => write!(f, "⟨{act}⟩{x}"),
            Formula::Barb(a) => write!(f, "↓{a}"),
        }
    }
}

/// Satisfaction at a graph state.
pub fn sat(g: &Graph, i: usize, f: &Formula) -> bool {
    match f {
        Formula::True => true,
        Formula::Not(x) => !sat(g, i, x),
        Formula::And(a, b) => sat(g, i, a) && sat(g, i, b),
        Formula::Barb(a) => g.strong_barbs(i).contains(*a),
        Formula::Diamond(act, x) => successors(g, i, act).into_iter().any(|j| sat(g, j, x)),
    }
}

/// The α-successors of a state, with inputs read as `a(b)?`
/// (input-or-discard).
fn successors(g: &Graph, i: usize, act: &Action) -> Vec<usize> {
    let labelled = || {
        let lid = g.csr().label_id(act);
        g.edge_ids(i)
            .filter(|&(l, _)| Some(l) == lid)
            .map(|(_, j)| j)
            .collect()
    };
    match act {
        Action::Tau | Action::Output { .. } => labelled(),
        Action::Input { chan, .. } => {
            let mut out: Vec<usize> = labelled();
            if g.state_discards(i, *chan) {
                out.push(i);
            }
            out
        }
        Action::Discard { chan } => {
            if g.state_discards(i, *chan) {
                vec![i]
            } else {
                Vec::new()
            }
        }
    }
}

/// Decides whether a closed process satisfies a formula, building its
/// graph over the formula's free names plus the process's own.
///
/// If the graph exceeds `opts.max_states` the answer degrades to `false`
/// (satisfaction could not be certified); [`try_satisfies`] exposes the
/// typed error.
pub fn satisfies(p: &P, f: &Formula, defs: &Defs, opts: Opts) -> bool {
    try_satisfies(p, f, defs, opts).unwrap_or(false)
}

/// [`satisfies`] with typed resource exhaustion.
pub fn try_satisfies(
    p: &P,
    f: &Formula,
    defs: &Defs,
    opts: Opts,
) -> Result<bool, bpi_semantics::EngineError> {
    // The pool must cover the names the formula mentions.
    let mut fns = p.free_names();
    fns.extend(&formula_names(f));
    let mut dummy = fns.clone();
    let pool = {
        let fresh = crate::graph::fresh_pool_names(opts.fresh_inputs, &dummy);
        for &n in &fresh {
            dummy.insert(n);
        }
        let mut v: Vec<Name> = fns.to_vec();
        v.extend(fresh);
        v
    };
    let g = Graph::build_cached(p, defs, &pool, opts, &bpi_semantics::Budget::unlimited())?;
    Ok(sat(&g, 0, f))
}

/// The names `f` mentions free. A name an output diamond extrudes is
/// bound beneath it: pooling it would change the name the graph extrudes.
fn formula_names(f: &Formula) -> NameSet {
    let mut out = NameSet::new();
    match f {
        Formula::True => {}
        Formula::Barb(a) => {
            out.insert(*a);
        }
        Formula::Not(x) => out = formula_names(x),
        Formula::And(a, b) => {
            out = formula_names(a);
            out.extend(&formula_names(b));
        }
        Formula::Diamond(act, x) => {
            out = formula_names(x);
            for &b in act.bound_names() {
                out.remove(b);
            }
            out.extend(&act.free_names());
        }
    }
    out
}

impl Experiment {
    /// Converts a distinguishing experiment into the formula the winning
    /// side satisfies: a move whose every answer is refuted becomes
    /// `⟨α⟩ ⋀ᵢ ¬φᵢ` (with `⟨α⟩tt` when the opponent had no answer), and
    /// a barb mismatch becomes `↓a`.
    pub fn to_formula(&self) -> Formula {
        match self {
            Experiment::Barb { chan, .. } => Formula::Barb(*chan),
            Experiment::Move { label, answers } => {
                // Each answer is refuted by a sub-formula the residual
                // satisfies (taken positively) or the answer satisfies
                // (taken negatively).
                let inner = answers
                    .iter()
                    .map(|(mine, a)| {
                        if *mine {
                            a.to_formula()
                        } else {
                            Formula::not(a.to_formula())
                        }
                    })
                    .reduce(Formula::and)
                    .unwrap_or(Formula::True);
                Formula::diamond(label.clone(), inner)
            }
        }
    }
}

impl Distinction {
    /// A formula satisfied by `p` and not `q` (or vice versa, per
    /// [`Side`]).
    pub fn to_formula(&self) -> (Side, Formula) {
        (self.side, self.experiment.to_formula())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bisim::Variant;
    use crate::distinguish::explain;
    use bpi_core::builder::*;

    fn d() -> Defs {
        Defs::new()
    }

    #[test]
    fn basic_satisfaction() {
        let defs = d();
        let [a, b] = names(["a", "b"]);
        let p = out(a, [], out_(b, []));
        let barb_a = Formula::Barb(a);
        let after_a_barb_b = Formula::diamond(Action::free_output(a, vec![]), Formula::Barb(b));
        assert!(satisfies(&p, &barb_a, &defs, Opts::default()));
        assert!(satisfies(&p, &after_a_barb_b, &defs, Opts::default()));
        assert!(!satisfies(&p, &Formula::Barb(b), &defs, Opts::default()));
    }

    #[test]
    fn input_modality_includes_discard() {
        // nil satisfies ⟨a(v)?⟩tt (it discards), but not ⟨a(v)?⟩↓b.
        let defs = d();
        let [a, b, v] = names(["a", "b", "v"]);
        let inp_mod = |f| {
            Formula::diamond(
                Action::Input {
                    chan: a,
                    objects: vec![v],
                },
                f,
            )
        };
        assert!(satisfies(
            &nil(),
            &inp_mod(Formula::True),
            &defs,
            Opts::default()
        ));
        assert!(!satisfies(
            &nil(),
            &inp_mod(Formula::Barb(b)),
            &defs,
            Opts::default()
        ));
        // a(x).b̄ satisfies ⟨a(v)?⟩↓b.
        let p = inp(a, [Name::intern_raw("lx")], out_(b, []));
        assert!(satisfies(
            &p,
            &inp_mod(Formula::Barb(b)),
            &defs,
            Opts::default()
        ));
    }

    #[test]
    fn extracted_formulas_audit_the_checker() {
        // For each inequivalent pair: extract the distinguishing
        // experiment, convert to a formula, and verify semantically that
        // exactly one side satisfies it. Pairs five to eight differ in
        // what they discard: a silent blocker (a(x).0 | a(x,y).0 neither
        // receives nor discards on a) against a discarder, and nil, which
        // discards a, against a listener. The last formula names the name
        // its first move extrudes.
        let defs = d();
        let [a, b, c, x] = names(["a", "b", "c", "x"]);
        let parse = |s: &str| bpi_core::parse_process(s).unwrap();
        let pairs: Vec<(bpi_core::syntax::P, bpi_core::syntax::P)> = vec![
            (out_(a, [b]), out_(a, [c])),
            (
                out(a, [], sum(out_(b, []), out_(c, []))),
                sum(out(a, [], out_(b, [])), out(a, [], out_(c, []))),
            ),
            (inp(a, [x], out_(x, [])), nil()),
            (tau(out_(a, [])), out_(a, [])),
            (parse("a(x).0 | a(x,y).0"), parse("0")),
            (parse("tau.tau.(a(x).0 | a(x,y).0)"), parse("tau.tau.0")),
            (parse("b<> | (a(x).0 | a(x,y).0)"), parse("b<>")),
            (parse("0"), parse("a(x).x<>")),
            (parse("new x. b<x>.b<x,a>"), parse("new x. b<x>.b<x,b>")),
        ];
        for (p, q) in pairs {
            let dist = explain(Variant::StrongLabelled, &p, &q, &defs, Opts::default())
                .expect("pairs are inequivalent");
            let (side, formula) = dist.to_formula();
            let (sat_p, sat_q) = (
                satisfies(&p, &formula, &defs, Opts::default()),
                satisfies(&q, &formula, &defs, Opts::default()),
            );
            match side {
                crate::distinguish::Side::Left => {
                    assert!(sat_p && !sat_q, "{formula} on {p} vs {q}: {sat_p}/{sat_q}");
                }
                crate::distinguish::Side::Right => {
                    assert!(!sat_p && sat_q, "{formula} on {p} vs {q}: {sat_p}/{sat_q}");
                }
            }
        }
    }

    #[test]
    fn bisimilar_processes_agree_on_sampled_formulas() {
        // HML soundness direction on a bisimilar pair: a battery of
        // formulas gets identical verdicts.
        let defs = d();
        let [a, b, v] = names(["a", "b", "v"]);
        let p = out(a, [b], nil());
        let q = par(p.clone(), nil());
        let formulas = vec![
            Formula::Barb(a),
            Formula::Barb(b),
            Formula::diamond(Action::free_output(a, vec![b]), Formula::True),
            Formula::diamond(
                Action::Input {
                    chan: b,
                    objects: vec![v],
                },
                Formula::Barb(a),
            ),
            Formula::boxm(Action::Tau, Formula::Barb(a)),
        ];
        for f in formulas {
            assert_eq!(
                satisfies(&p, &f, &defs, Opts::default()),
                satisfies(&q, &f, &defs, Opts::default()),
                "disagreement on {f}"
            );
        }
    }
}
