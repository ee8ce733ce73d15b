//! Bisimulations **up-to ~** — the paper's proof technique, executable
//! (Definitions 9 and 13, Lemmas 7 and 14).
//!
//! To prove `p ~ q` coinductively one exhibits a bisimulation containing
//! `(p, q)`; the "up-to ~" refinement lets the relation be *small*: a
//! move of one side may be matched into `~S~` — related residuals up to
//! strong bisimilarity on both flanks. Lemma 7 shows such a relation is
//! contained in `~` (and Lemma 14 the `~₊` analogue).
//!
//! [`check_bisimulation_upto`] verifies a user-supplied finite relation
//! against this definition, which is exactly how the paper's Lemma 6
//! proofs go: each structural law (commutativity, associativity, …)
//! nominates a two-or-three-clause relation and checks the transfer
//! property once. The tests replay several of the paper's own
//! relations (`S²`, `S³`, `S⁵`, `S⁸`).

use crate::bisim::{transfer, Checker, Note, Variant};
use crate::graph::{shared_pool, Graph, Opts};
use bpi_core::action::Action;
use bpi_core::syntax::{Defs, P};
use bpi_semantics::budget::EngineError;
use std::ops::ControlFlow::{self, Break, Continue};

/// The verdict of an up-to check, with the offending pair and move on
/// failure.
#[derive(Debug)]
pub enum UptoVerdict {
    /// The relation satisfies the Definition 9 transfer property.
    Valid,
    /// An obligation of `pair.0` — a move, or a discard to mirror (see
    /// `bisim::transfer` for its label) — could not be matched into
    /// `~S~`.
    Fails {
        pair: (P, P),
        label: Action,
        left_moved: bool,
    },
    /// A pair's graph exceeded the state budget before the transfer
    /// property could be checked.
    Inconclusive(EngineError),
}

impl UptoVerdict {
    pub fn is_valid(&self) -> bool {
        matches!(self, UptoVerdict::Valid)
    }
}

/// Checks that the finite symmetric closure of `pairs` is a strong
/// bisimulation up-to `~` (Definition 9, strong reading): every move of
/// one component is matched by the other with residuals in `~ S ~`.
///
/// Each pair's obligations are those of the `StrongLabelled` transfer
/// walk at its two roots. A candidate meets one when its residuals are in
/// `~S~`, decided by: for some pair `(u, v) ∈ S` (or a flank of it),
/// `p' ~ u` and `v ~ q'` — each flank checked with the full bisimilarity
/// checker. This is expensive but faithful; the point of the technique
/// is that `S` itself is tiny.
pub fn check_bisimulation_upto(pairs: &[(P, P)], defs: &Defs, opts: Opts) -> UptoVerdict {
    let checker = Checker::with_opts(defs, opts);
    for (p, q) in pairs {
        let pool = shared_pool(p, q, opts.fresh_inputs);
        let budget = bpi_semantics::Budget::unlimited();
        let gp = match Graph::build_cached(p, defs, &pool, opts, &budget) {
            Ok(g) => g,
            Err(e) => return UptoVerdict::Inconclusive(e),
        };
        let gq = match Graph::build_cached(q, defs, &pool, opts, &budget) {
            Ok(g) => g,
            Err(e) => return UptoVerdict::Inconclusive(e),
        };
        for (left_moved, ga, gb, a, b) in [(true, &gp, &gq, p, q), (false, &gq, &gp, q, p)] {
            let mut upto = UpTo {
                ga,
                gb,
                left_moved,
                pairs,
                checker: &checker,
                unmet: None,
            };
            let _ = transfer(Variant::StrongLabelled, ga, 0, gb, 0, &mut upto);
            if let Some(label) = upto.unmet {
                return UptoVerdict::Fails {
                    pair: (a.clone(), b.clone()),
                    label,
                    left_moved,
                };
            }
        }
    }
    UptoVerdict::Valid
}

/// The up-to score of a transfer walk from the roots of `ga` and `gb`:
/// an obligation is met by a candidate whose residuals are in `~S~`, the
/// root pair itself counting as in `S`. The walk stops at the first unmet
/// obligation and keeps its label.
struct UpTo<'a> {
    ga: &'a Graph,
    gb: &'a Graph,
    left_moved: bool,
    pairs: &'a [(P, P)],
    checker: &'a Checker<'a>,
    unmet: Option<Action>,
}

impl Note for UpTo<'_> {
    fn note(
        &mut self,
        label: &Action,
        mut candidates: impl Iterator<Item = (usize, usize)>,
    ) -> ControlFlow<()> {
        let matched = candidates.any(|(i2, j2)| {
            (i2, j2) == (0, 0)
                || in_up_to_closure(
                    &self.ga.states[i2],
                    &self.gb.states[j2],
                    self.left_moved,
                    self.pairs,
                    self.checker,
                )
        });
        if matched {
            return Continue(());
        }
        self.unmet = Some(label.clone());
        Break(())
    }
}

/// `(a, b) ∈ ~S~` (oriented: when `left_moved` the S-pair is read
/// left-to-right, else flipped), including the identity-through-~ case
/// `a ~ b`.
fn in_up_to_closure(
    a: &P,
    b: &P,
    left_moved: bool,
    pairs: &[(P, P)],
    checker: &Checker<'_>,
) -> bool {
    if checker.strong(a, b) {
        return true; // ~ ∘ Id ∘ ~
    }
    pairs.iter().any(|(u, v)| {
        let (u, v) = if left_moved { (u, v) } else { (v, u) };
        checker.strong(a, u) && checker.strong(v, b)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpi_core::builder::*;

    fn d() -> Defs {
        Defs::new()
    }

    #[test]
    fn s2_nil_unit_relation() {
        // The paper's S² = {(p ‖ nil, p)}: a one-clause (schematic)
        // bisimulation up-to ~. We instantiate the schema at a few
        // representative points.
        let [a, b, x] = names(["a", "b", "x"]);
        let ps = [
            out(a, [b], nil()),
            inp(a, [x], out_(x, [])),
            sum(tau_(), out_(b, [])),
        ];
        let pairs: Vec<(bpi_core::syntax::P, bpi_core::syntax::P)> = ps
            .iter()
            .map(|p| (par(p.clone(), nil()), p.clone()))
            .collect();
        assert!(check_bisimulation_upto(&pairs, &d(), Opts::default()).is_valid());
    }

    #[test]
    fn s3_commutativity_relation() {
        // S³ = {(p ‖ q, q ‖ p)} at representative points.
        let [a, b, x] = names(["a", "b", "x"]);
        let p = out_(a, [b]);
        let q = inp(a, [x], out_(x, []));
        let pairs = vec![
            (par(p.clone(), q.clone()), par(q.clone(), p.clone())),
            // One-step residuals of the broadcast are again instances.
            (par(nil(), out_(b, [])), par(out_(b, []), nil())),
        ];
        assert!(check_bisimulation_upto(&pairs, &d(), Opts::default()).is_valid());
    }

    #[test]
    fn s5_sum_unit_relation() {
        // S⁵ = {(p + nil, p)} ∪ Id.
        let [a, b] = names(["a", "b"]);
        let p = out(a, [], out_(b, []));
        let pairs = vec![(sum(p.clone(), nil()), p.clone())];
        assert!(check_bisimulation_upto(&pairs, &d(), Opts::default()).is_valid());
    }

    #[test]
    fn s8_vacuous_restriction_relation() {
        // S⁸ = {(νx p, p) | x ∉ fn(p)}.
        let [a, b, x] = names(["a", "b", "x"]);
        let ps = [out(a, [b], nil()), tau(out_(b, []))];
        let pairs: Vec<_> = ps.iter().map(|p| (new(x, p.clone()), p.clone())).collect();
        assert!(check_bisimulation_upto(&pairs, &d(), Opts::default()).is_valid());
    }

    #[test]
    fn invalid_relation_rejected_with_witness() {
        // {(āb, āc)} is not a bisimulation up-to ~.
        let [a, b, c] = names(["a", "b", "c"]);
        let pairs = vec![(out_(a, [b]), out_(a, [c]))];
        match check_bisimulation_upto(&pairs, &d(), Opts::default()) {
            UptoVerdict::Fails { label, .. } => {
                assert_eq!(label.subject(), Some(a));
            }
            other => panic!("must reject, got {other:?}"),
        }
    }

    #[test]
    fn an_unmirrored_discard_is_reported_with_its_label() {
        // {(nil, a(x).nil | a(x,y).nil)}: neither side moves, and the one
        // unmet obligation is nil's discard on a, which the blocker can
        // neither mirror nor answer with a receipt.
        let parse = |s: &str| bpi_core::parse_process(s).unwrap();
        let pairs = vec![(parse("0"), parse("a(x).0 | a(x,y).0"))];
        match check_bisimulation_upto(&pairs, &d(), Opts::default()) {
            UptoVerdict::Fails {
                label, left_moved, ..
            } => {
                assert_eq!(label.to_string(), "a:");
                assert!(left_moved);
            }
            other => panic!("must reject, got {other:?}"),
        }
    }

    #[test]
    fn upto_closure_does_real_work() {
        // A relation whose residuals are NOT syntactically in S but are
        // ~-equal to members: {(ā.(p‖nil), ā.p)} with residual (p‖nil, p)
        // reachable only through the ~-flanks.
        let [a, b] = names(["a", "b"]);
        let p = out_(b, []);
        let pairs = vec![(out(a, [], par(p.clone(), nil())), out(a, [], p.clone()))];
        // Residual pair (p ‖ nil, p) ∉ S, but p‖nil ~ p, so the up-to
        // closure covers it via the identity-through-~ case.
        assert!(check_bisimulation_upto(&pairs, &d(), Opts::default()).is_valid());
    }
}
