//! Random execution of closed broadcast systems.
//!
//! For systems whose state space is too large to enumerate (e.g. the full
//! transaction-manager example with many items and partitions), a
//! [`Simulator`] performs a uniformly random walk over step moves and
//! records the observable trace. This is how the end-to-end example
//! experiments drive big instances.

use crate::lts::Lts;
use bpi_core::action::Action;
use bpi_core::name::Name;
use bpi_core::syntax::{Defs, P};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The result of one simulation run.
#[derive(Clone, Debug)]
pub struct Trace {
    /// Labels in execution order.
    pub actions: Vec<Action>,
    /// Final state reached.
    pub last: P,
    /// Whether the run stopped because no step move was available.
    pub terminated: bool,
}

impl Trace {
    /// Whether some output with subject `a` occurred.
    pub fn saw_output_on(&self, a: Name) -> bool {
        self.actions
            .iter()
            .any(|act| act.is_output() && act.subject() == Some(a))
    }

    /// Number of outputs with subject `a`.
    pub fn count_outputs_on(&self, a: Name) -> usize {
        self.actions
            .iter()
            .filter(|act| act.is_output() && act.subject() == Some(a))
            .count()
    }

    /// The object tuples of outputs on `a`, in order.
    pub fn outputs_on(&self, a: Name) -> Vec<Vec<Name>> {
        self.actions
            .iter()
            .filter(|act| act.is_output() && act.subject() == Some(a))
            .map(|act| act.objects().to_vec())
            .collect()
    }
}

/// A seeded random walker over step moves.
pub struct Simulator<'d> {
    lts: Lts<'d>,
    rng: StdRng,
}

impl<'d> Simulator<'d> {
    /// Creates a simulator with a deterministic seed.
    pub fn new(defs: &'d Defs, seed: u64) -> Simulator<'d> {
        Simulator {
            lts: Lts::new(defs),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Runs at most `max_steps` uniformly random step moves from `p`.
    pub fn run(&mut self, p: &P, max_steps: usize) -> Trace {
        self.walk(p, None, max_steps)
    }

    /// Runs until an output on `watch` occurs, the system terminates, or
    /// `max_steps` elapse; returns the trace.
    pub fn run_until_output(&mut self, p: &P, watch: Name, max_steps: usize) -> Trace {
        self.walk(p, Some(watch), max_steps)
    }

    /// The one walk: at most `max_steps` uniformly random step moves,
    /// stopping early after an output on `watch` when one is given.
    fn walk(&mut self, p: &P, watch: Option<Name>, max_steps: usize) -> Trace {
        let mut cur = p.clone();
        let mut actions = Vec::new();
        for _ in 0..max_steps {
            let ts = self.lts.step_transitions(&cur);
            if ts.is_empty() {
                return Trace {
                    actions,
                    last: cur,
                    terminated: true,
                };
            }
            let (act, next) = ts[self.rng.gen_range(0..ts.len())].clone();
            let hit = watch.is_some_and(|w| act.is_output() && act.subject() == Some(w));
            actions.push(act);
            cur = next;
            if hit {
                break;
            }
        }
        Trace {
            actions,
            last: cur,
            terminated: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpi_core::builder::*;

    #[test]
    fn deterministic_system_runs_to_completion() {
        let defs = Defs::new();
        let [a, b] = names(["a", "b"]);
        let p = out(a, [], out_(b, []));
        let mut sim = Simulator::new(&defs, 7);
        let tr = sim.run(&p, 100);
        assert!(tr.terminated);
        assert_eq!(tr.actions.len(), 2);
        assert!(tr.saw_output_on(a) && tr.saw_output_on(b));
        assert_eq!(tr.count_outputs_on(a), 1);
    }

    #[test]
    fn run_until_output_stops_early() {
        let defs = Defs::new();
        let [a, b, c] = names(["a", "b", "c"]);
        let p = out(a, [], out(b, [], out_(c, [])));
        let mut sim = Simulator::new(&defs, 1);
        let tr = sim.run_until_output(&p, b, 100);
        assert!(tr.saw_output_on(b));
        assert!(!tr.saw_output_on(c));
    }

    #[test]
    fn seeded_runs_reproduce() {
        let defs = Defs::new();
        let [a, b] = names(["a", "b"]);
        let p = par(out_(a, []), out_(b, []));
        let t1 = Simulator::new(&defs, 42).run(&p, 10);
        let t2 = Simulator::new(&defs, 42).run(&p, 10);
        assert_eq!(t1.actions, t2.actions);
    }
}
