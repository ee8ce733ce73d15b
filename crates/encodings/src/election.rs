//! Leader election by broadcast arbitration — a fourth scenario in the
//! application family the paper's introduction motivates (group
//! protocols over a broadcast medium).
//!
//! The protocol leans on the calculus' defining feature, the *atomic
//! one-to-many* broadcast: every candidate races to claim a shared
//! channel, the first claim is heard by **all** other candidates in the
//! same transition, and they instantly become followers — no rounds, no
//! retries, no tie-breaks:
//!
//! ```text
//! Candidate⟨claim, led, id⟩ ≝
//!       claim̄⟨id⟩. led̄⟨id⟩                 (win: announce leadership)
//!     + claim(w). Follower⟨id, w⟩          (lose: adopt the winner)
//! Follower⟨id, w⟩ ≝ follow̄⟨id, w⟩
//! ```
//!
//! Safety ("at most one leader") is itself expressed *in the calculus*:
//! a monitor that listens for two leadership announcements and raises an
//! error channel — unreachable iff the protocol is safe. This is checked
//! exhaustively over the full state space, not just on sampled runs.

use bpi_core::builder::*;
use bpi_core::name::Name;
use bpi_core::syntax::{Defs, P};
use bpi_semantics::{
    convergence_exact, convergence_mc, explore, output_reachable, Budget, CheckpointCfg,
    ExactOutcome, ExploreOpts, FaultPlan, ProbError, ReliabilityEstimate, Simulator,
};

/// Channel names of the protocol.
pub struct Channels {
    pub claim: Name,
    pub led: Name,
    pub follow: Name,
    pub err: Name,
}

pub fn channels() -> Channels {
    Channels {
        claim: Name::intern_raw("el_claim"),
        led: Name::intern_raw("el_led"),
        follow: Name::intern_raw("el_follow"),
        err: Name::intern_raw("el_err"),
    }
}

fn candidate_id(i: usize) -> Name {
    Name::intern_raw(&format!("node{i}"))
}

/// One candidate process.
pub fn candidate(ch: &Channels, id: Name) -> P {
    let w = Name::intern_raw("el_w");
    sum(
        out(ch.claim, [id], out_(ch.led, [id])),
        inp(ch.claim, [w], out_(ch.follow, [id, w])),
    )
}

/// The at-most-one-leader monitor: raising `err` requires hearing two
/// announcements.
pub fn monitor(ch: &Channels) -> P {
    let (x, y) = (Name::intern_raw("el_x"), Name::intern_raw("el_y"));
    inp(ch.led, [x], inp(ch.led, [y], out_(ch.err, [])))
}

/// The whole system: `n` candidates plus the safety monitor.
pub fn election_system(n: usize) -> (P, Defs, Channels) {
    let ch = channels();
    let sys = par_of(
        (0..n)
            .map(|i| candidate(&ch, candidate_id(i)))
            .chain(std::iter::once(monitor(&ch))),
    );
    (sys, Defs::new(), ch)
}

/// Exhaustive safety check: no reachable state broadcasts on `err`.
/// Returns `Some(true)` when safe, `Some(false)` when a double-leader
/// run exists, `None` on budget exhaustion.
pub fn safe(n: usize, max_states: usize) -> Option<bool> {
    let (sys, defs, ch) = election_system(n);
    output_reachable(&sys, &defs, ch.err, ExploreOpts { max_states }).map(|reachable| !reachable)
}

/// Liveness over the full space: every deadlocked (terminal) state has
/// seen exactly one leader announcement — checked by exploring and
/// verifying every maximal path contains one `led` output.
pub fn every_run_elects(n: usize, max_states: usize) -> bool {
    let (sys, defs, ch) = election_system(n);
    let g = explore(&sys, &defs, ExploreOpts { max_states });
    assert!(!g.truncated, "state budget too small");
    // Walk all maximal paths counting `led` outputs; the graph is a DAG
    // here (every transition consumes a prefix), so DFS terminates.
    fn dfs(g: &bpi_semantics::StateGraph, ch: &Channels, i: usize, leaders: usize, ok: &mut bool) {
        if g.edges[i].is_empty() {
            if leaders != 1 {
                *ok = false;
            }
            return;
        }
        for (act, j) in &g.edges[i] {
            let inc = usize::from(act.is_output() && act.subject() == Some(ch.led));
            dfs(g, ch, *j, leaders + inc, ok);
            if !*ok {
                return;
            }
        }
    }
    let mut ok = true;
    dfs(&g, &ch, 0, 0, &mut ok);
    ok
}

/// The probability that an `n`-candidate election announces a leader
/// (broadcasts on `led`) within `steps` steps under `plan`, estimated
/// from `samples` Monte-Carlo trajectories. Losing a `claim` broadcast
/// never blocks the announcement itself — the winner proceeds to `led`
/// regardless of who heard the claim — so this measures *convergence*
/// of the election, while `safe`-style double-leader anomalies are what
/// the lost deliveries feed.
pub fn election_probability(
    n: usize,
    plan: &FaultPlan,
    steps: usize,
    samples: usize,
) -> ReliabilityEstimate {
    let (sys, defs, ch) = election_system(n);
    convergence_mc(
        &sys,
        &defs,
        plan,
        ch.led,
        steps,
        samples,
        &Budget::unlimited(),
        &CheckpointCfg::default(),
    )
    .expect("unlimited budget and inert checkpointing cannot interrupt")
}

/// Exact bounded-depth interval for [`election_probability`] under a
/// loss-only plan: the election system is finite and converges fast, so
/// a small `depth` usually closes the interval completely
/// (`truncated_mass() == 0`).
pub fn election_probability_exact(
    n: usize,
    plan: &FaultPlan,
    depth: usize,
    budget: &Budget,
) -> Result<ExactOutcome, ProbError> {
    let (sys, defs, ch) = election_system(n);
    convergence_exact(&sys, &defs, plan, ch.led, depth, budget)
}

/// A sampled run transcript: `(leader, followers)`.
pub fn run_once(n: usize, seed: u64) -> (Option<Name>, Vec<(Name, Name)>) {
    let (sys, defs, ch) = election_system(n);
    let mut sim = Simulator::new(&defs, seed);
    let tr = sim.run(&sys, 200);
    let leader = tr
        .outputs_on(ch.led)
        .first()
        .and_then(|objs| objs.first().copied());
    let followers = tr
        .outputs_on(ch.follow)
        .into_iter()
        .filter_map(|objs| match objs.as_slice() {
            [me, boss] => Some((*me, *boss)),
            _ => None,
        })
        .collect();
    (leader, followers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_most_one_leader_exhaustively() {
        for n in 1..=4 {
            assert_eq!(safe(n, 200_000), Some(true), "double leader with n={n}");
        }
    }

    #[test]
    fn every_run_elects_exactly_one() {
        for n in 1..=3 {
            assert!(every_run_elects(n, 200_000), "missed election with n={n}");
        }
    }

    #[test]
    fn followers_adopt_the_actual_winner() {
        for seed in 0..20 {
            let (leader, followers) = run_once(3, seed);
            let leader = leader.expect("someone must win");
            for (me, boss) in followers {
                assert_eq!(boss, leader, "{me} follows {boss}, leader is {leader}");
                assert_ne!(me, leader, "the leader does not follow");
            }
        }
    }

    #[test]
    fn all_candidates_can_win() {
        // Nondeterminism is real: across seeds, every node wins sometimes.
        let mut winners = std::collections::BTreeSet::new();
        for seed in 0..60 {
            if let (Some(l), _) = run_once(3, seed) {
                winners.insert(l);
            }
        }
        assert_eq!(winners.len(), 3, "winners seen: {winners:?}");
    }
}
