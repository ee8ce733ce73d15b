//! Weak transitions, barbs, and step-moves.
//!
//! * `p ⇒ p'` — zero or more `τ` steps ([`Weak::tau_closure`]);
//! * `p ↓a / p ⇓a` — strong/weak **barbs**: the ability to (eventually)
//!   broadcast on `a`. In a broadcast calculus outputs are the observable
//!   actions (we hear whatever a process says if we listen), while inputs
//!   are invisible (sending is non-blocking, so we cannot tell whether our
//!   value was received or discarded) — Section 3.1;
//! * step-moves `p —α̂→ p'` with `α̂` an output or `τ` — the autonomous
//!   moves of step-bisimilarity (Definition 5), and the step-barbs
//!   `↓ₐ^φ / ⇓ₐ^φ` defined from them.
//!
//! The closure searches are bounded by a [`Budget`]; running out surfaces
//! as `Err(EngineError)` rather than a panic, so equivalence engines can
//! answer "inconclusive" instead of aborting.
//!
//! Each query saturates its root afresh by one budgeted search. The
//! equivalence checkers do not come through here; they saturate over
//! their graphs' cached closures.

use crate::budget::{Budget, EngineError};
use crate::cache::step_transitions_cached;
use crate::lts::Lts;
use bpi_core::action::Action;
use bpi_core::cached_canon;
use bpi_core::name::{Name, NameSet};
use bpi_core::syntax::P;
use std::collections::HashSet;

/// Default bound on the number of distinct states a weak closure may
/// visit before giving up.
pub const DEFAULT_CLOSURE_BUDGET: usize = 65_536;

/// Which transitions a saturation follows.
#[derive(Clone, Copy)]
enum MoveKind {
    Tau,
    Step,
}

/// Weak-transition engine layered over [`Lts`].
#[derive(Clone)]
pub struct Weak<'d> {
    pub lts: Lts<'d>,
    /// Resource envelope every closure and barb search runs under.
    pub budget: Budget,
}

impl<'d> Weak<'d> {
    pub fn new(lts: Lts<'d>) -> Weak<'d> {
        Weak {
            lts,
            budget: Budget::states(DEFAULT_CLOSURE_BUDGET),
        }
    }

    /// Caps the number of distinct states any closure may visit.
    pub fn with_budget(lts: Lts<'d>, max_states: usize) -> Weak<'d> {
        Weak {
            lts,
            budget: Budget::states(max_states),
        }
    }

    /// Full control over states, deadline and cancellation.
    pub fn with_budget_spec(lts: Lts<'d>, budget: Budget) -> Weak<'d> {
        Weak { lts, budget }
    }

    /// `{p' | p ⇒ p'}` — all states reachable by `τ` steps (including `p`
    /// itself), deduplicated up to α-equivalence. `Err` when the budget
    /// runs out first.
    pub fn tau_closure(&self, p: &P) -> Result<Vec<P>, EngineError> {
        self.saturation(p, MoveKind::Tau)
    }

    /// `{p' | p =α̂⇒ p'}` — all states reachable by *step moves*
    /// (`τ` or any output), including `p` itself.
    pub fn step_closure(&self, p: &P) -> Result<Vec<P>, EngineError> {
        self.saturation(p, MoveKind::Step)
    }

    /// Every state reachable from `p` by moves of `kind`, `p` included,
    /// deduplicated up to α-equivalence, by one budgeted search.
    fn saturation(&self, p: &P, kind: MoveKind) -> Result<Vec<P>, EngineError> {
        self.budget.check(0)?;
        let keep = |act: &Action| match kind {
            MoveKind::Tau => matches!(act, Action::Tau),
            MoveKind::Step => act.is_step_move(),
        };
        let mut seen: HashSet<P> = HashSet::new();
        let mut out = Vec::new();
        let mut work = vec![p.clone()];
        seen.insert(cached_canon(p));
        while let Some(q) = work.pop() {
            self.budget.check(seen.len())?;
            for (act, q2) in step_transitions_cached(&self.lts, &q).iter() {
                if keep(act) && seen.insert(cached_canon(q2)) {
                    work.push(q2.clone());
                }
            }
            out.push(q);
        }
        bpi_obs::histogram("semantics.weak.saturation.states").record(out.len() as u64);
        Ok(out)
    }

    /// The strong barbs of every state reachable from `p` by moves of
    /// `kind`.
    fn saturated_barbs(&self, p: &P, kind: MoveKind) -> Result<NameSet, EngineError> {
        let mut s = NameSet::new();
        for q in self.saturation(p, kind)? {
            s.extend(&self.strong_barbs(&q));
        }
        Ok(s)
    }

    /// Strong barbs `{a | p ↓a}`: subjects of immediately available
    /// outputs.
    pub fn strong_barbs(&self, p: &P) -> NameSet {
        let mut s = NameSet::new();
        for (act, _) in step_transitions_cached(&self.lts, p).iter() {
            if act.is_output() {
                if let Some(a) = act.subject() {
                    s.insert(a);
                }
            }
        }
        s
    }

    /// Weak barbs `{a | p ⇓a}`: subjects of outputs reachable through `τ`
    /// steps.
    pub fn weak_barbs(&self, p: &P) -> Result<NameSet, EngineError> {
        self.saturated_barbs(p, MoveKind::Tau)
    }

    /// Weak step-barbs `{a | p ⇓ₐ^φ}`: a sequence of step moves ending in
    /// an output with subject `a` — i.e. some step-reachable state has a
    /// strong barb on `a`. Step moves may traverse *outputs*, not just
    /// `τ`s, which is exactly what distinguishes step- from barbed
    /// observation (Remark 2.3).
    pub fn weak_step_barbs(&self, p: &P) -> Result<NameSet, EngineError> {
        self.saturated_barbs(p, MoveKind::Step)
    }

    /// Whether `a` is a weak barb of `p`. `Err` when the search exceeds
    /// the budget before either finding the barb or exhausting the
    /// τ-reachable states.
    pub fn has_weak_barb(&self, p: &P, a: Name) -> Result<bool, EngineError> {
        // Early-exit search rather than materialising the closure — a
        // reachable barb must stay findable under budgets too small for
        // the full saturation.
        let mut seen: HashSet<P> = HashSet::new();
        let mut work = vec![p.clone()];
        seen.insert(cached_canon(p));
        while let Some(q) = work.pop() {
            self.budget.check(seen.len())?;
            for (act, q2) in step_transitions_cached(&self.lts, &q).iter() {
                if act.is_output() && act.subject() == Some(a) {
                    return Ok(true);
                }
                if matches!(act, Action::Tau) && seen.insert(cached_canon(q2)) {
                    work.push(q2.clone());
                }
            }
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpi_core::builder::*;
    use bpi_core::syntax::Defs;

    fn weak(defs: &Defs) -> Weak<'_> {
        Weak::new(Lts::new(defs))
    }

    #[test]
    fn tau_closure_collects_derivatives() {
        let defs = Defs::new();
        let a = bpi_core::Name::new("a");
        // τ.τ.ā : closure has 3 states
        let p = tau(tau(out_(a, [])));
        let w = weak(&defs);
        assert_eq!(w.tau_closure(&p).unwrap().len(), 3);
    }

    #[test]
    fn barbs_strong_vs_weak() {
        let defs = Defs::new();
        let [a, b] = names(["a", "b"]);
        // τ.ā + b̄ : strong barb {b}, weak barbs {a, b}
        let p = sum(tau(out_(a, [])), out_(b, []));
        let w = weak(&defs);
        assert_eq!(w.strong_barbs(&p).to_vec(), vec![b]);
        assert_eq!(w.weak_barbs(&p).unwrap().to_vec(), vec![a, b]);
        assert!(w.has_weak_barb(&p, a).unwrap());
    }

    #[test]
    fn step_barbs_traverse_outputs() {
        let defs = Defs::new();
        let [a, b] = names(["a", "b"]);
        // b̄.ā : weak barb only {b} (no τ to cross the output), but weak
        // STEP barb {a, b} — the distinction behind Remark 2.3.
        let p = out(b, [], out_(a, []));
        let w = weak(&defs);
        assert_eq!(w.weak_barbs(&p).unwrap().to_vec(), vec![b]);
        assert_eq!(w.weak_step_barbs(&p).unwrap().to_vec(), vec![a, b]);
    }

    #[test]
    fn restricted_output_is_not_a_barb() {
        // νa (āv ‖ a(x)) has no barb at all: the broadcast is internal.
        let defs = Defs::new();
        let [a, v, x] = names(["a", "v", "x"]);
        let p = new(a, par(out_(a, [v]), inp_(a, [x])));
        let w = weak(&defs);
        assert!(w.strong_barbs(&p).is_empty());
        assert!(w.weak_barbs(&p).unwrap().is_empty());
    }

    #[test]
    fn closure_exhaustion_is_typed_not_a_panic() {
        // A recursive pump τ-steps through unboundedly many distinct
        // states; a 4-state budget must surface as an error, not abort.
        let defs = Defs::new();
        let [a, b] = names(["a", "b"]);
        let id = bpi_core::Ident::new("WPump");
        // WPump(a,b) = τ.(b̄ ‖ WPump<a,b>) — each unfolding grows the term.
        let p = rec(id, [a, b], tau(par(out_(b, []), var(id, [a, b]))), [a, b]);
        let w = Weak::with_budget(Lts::new(&defs), 4);
        assert_eq!(
            w.tau_closure(&p),
            Err(EngineError::StateBudgetExceeded { limit: 4 })
        );
        assert_eq!(
            w.has_weak_barb(&p, a),
            Err(EngineError::StateBudgetExceeded { limit: 4 })
        );
        // weak_barbs goes through the same closure: also typed.
        assert!(w.weak_barbs(&p).is_err());
    }

    #[test]
    fn cancellation_stops_closure() {
        let defs = Defs::new();
        let flag = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        let budget = Budget::unlimited().with_cancel_flag(flag);
        let w = Weak::with_budget_spec(Lts::new(&defs), budget);
        let a = bpi_core::Name::new("a");
        assert_eq!(
            w.tau_closure(&tau(out_(a, []))),
            Err(EngineError::Cancelled)
        );
    }
}
