//! Example 1: a distributed algorithm for cycle detection in a directed
//! graph, written in the bπ-calculus.
//!
//! The paper's processes:
//!
//! ```text
//! Detector(i,o)        ≝ i(x).i(y).(Detector⟨i,o⟩ ‖ Edge_manager⟨o,x,y⟩)
//! Edge_manager(o,a,b)  ≝ νu ( (rec Y(b,u). b̄u.Y⟨b,u⟩)⟨b,u⟩
//!                           ‖ (rec X(o,a,b,u). a(w).((u=w) ō.nil,
//!                                 (b̄w.nil ‖ X⟨o,a,b,u⟩)))⟨o,a,b,u⟩ )
//! ```
//!
//! Every graph vertex is a channel. An edge manager for `(a, b)` mints a
//! private token `u`, broadcasts it on `b` forever, and forwards every
//! *other* token it hears on `a` to `b`; hearing its **own** token back
//! on `a` means the token travelled a cycle, and the manager signals on
//! `o`. Name generation (`νu`) is essential: tokens of different edges
//! can never collide, which is exactly the dynamic-scoping power the
//! paper contrasts with CBS.
//!
//! The Rust driver offers both the paper's full pipeline (a feeder
//! broadcasting the edge list to the `Detector`, which forks managers)
//! and a direct instantiation of one manager per edge, plus a classic
//! DFS baseline for validation.

use bpi_core::builder::*;
use bpi_core::name::Name;
use bpi_core::syntax::{Defs, Ident, P};
use bpi_semantics::{
    convergence_exact, convergence_mc, explore, Budget, CheckpointCfg, ExactOutcome, ExploreOpts,
    FaultLog, FaultPlan, FaultySimulator, ProbError, ReliabilityEstimate, Simulator, StateGraph,
};
use std::collections::{HashMap, HashSet};

/// A directed graph over vertex labels.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    pub edges: Vec<(String, String)>,
}

impl Graph {
    pub fn new(edges: &[(&str, &str)]) -> Graph {
        Graph {
            edges: edges
                .iter()
                .map(|(a, b)| (a.to_string(), b.to_string()))
                .collect(),
        }
    }

    /// All vertex labels.
    pub fn vertices(&self) -> Vec<String> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for (a, b) in &self.edges {
            for v in [a, b] {
                if seen.insert(v.clone()) {
                    out.push(v.clone());
                }
            }
        }
        out
    }
}

/// Baseline: iterative three-colour DFS cycle detection.
pub fn has_cycle_dfs(g: &Graph) -> bool {
    let mut adj: HashMap<&str, Vec<&str>> = HashMap::new();
    for (a, b) in &g.edges {
        adj.entry(a).or_default().push(b);
    }
    #[derive(Clone, Copy, PartialEq)]
    enum Colour {
        White,
        Grey,
        Black,
    }
    let mut colour: HashMap<&str, Colour> = HashMap::new();
    let verts = g.vertices();
    for v in &verts {
        colour.insert(v, Colour::White);
    }
    for start in &verts {
        if colour[start.as_str()] != Colour::White {
            continue;
        }
        // Explicit stack of (vertex, next-child-index).
        let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
        colour.insert(start, Colour::Grey);
        while let Some((v, i)) = stack.pop() {
            let children = adj.get(v).map(Vec::as_slice).unwrap_or(&[]);
            if i < children.len() {
                stack.push((v, i + 1));
                let c = children[i];
                match colour.get(c).copied().unwrap_or(Colour::White) {
                    Colour::Grey => return true,
                    Colour::White => {
                        colour.insert(c, Colour::Grey);
                        stack.push((c, 0));
                    }
                    Colour::Black => {}
                }
            } else {
                colour.insert(v, Colour::Black);
            }
        }
    }
    false
}

/// The `Edge_manager⟨o, a, b⟩` process.
///
/// `persistent_pump` selects the paper's literal `(rec Y. b̄u.Y)` token
/// pump, which re-broadcasts forever so that edge managers added *later*
/// still hear every token — at the cost of an infinite state space. For
/// a statically instantiated edge set a **one-shot** pump (`b̄u.nil`) is
/// behaviourally sufficient (broadcast loses no messages: every current
/// listener receives the single emission) and keeps the reachable state
/// space finite, which the exhaustive-verification driver needs.
pub fn edge_manager(o: Name, a: Name, b: Name, persistent_pump: bool) -> P {
    let u = Name::intern_raw(&format!("u_{a}_{b}"));
    let w = Name::intern_raw("w");
    let yid = Ident::new("EmY");
    let xid = Ident::new("EmX");
    // (rec Y(b,u). b̄u.Y⟨b,u⟩)⟨b,u⟩  — or the one-shot b̄u.
    let pump = if persistent_pump {
        rec(yid, [b, u], out(b, [u], var(yid, [b, u])), [b, u])
    } else {
        out_(b, [u])
    };
    // (rec X(o,a,b,u). a(w).((u=w) ō, (b̄w ‖ X⟨o,a,b,u⟩)))⟨o,a,b,u⟩
    let listen = rec(
        xid,
        [o, a, b, u],
        inp(
            a,
            [w],
            mat(u, w, out_(o, []), par(out_(b, [w]), var(xid, [o, a, b, u]))),
        ),
        [o, a, b, u],
    );
    new(u, par(pump, listen))
}

/// The `Detector⟨i, o⟩` of the paper: receives edges (two names per
/// edge) on `i` and forks a manager per edge.
pub fn detector(i: Name, o: Name, persistent_pump: bool) -> P {
    let did = Ident::new("Detector");
    let x = Name::intern_raw("dx");
    let y = Name::intern_raw("dy");
    // Detector is expressed through a definition environment so the
    // manager subterm can be arbitrary.
    let _ = did;
    let xid = Ident::new("DetRec");
    rec(
        xid,
        [i, o],
        inp(
            i,
            [x],
            inp(
                y_chan(i),
                [y],
                par(var(xid, [i, o]), edge_manager(o, x, y, persistent_pump)),
            ),
        ),
        [i, o],
    )
}

/// The paper sends source and destination as two successive broadcasts
/// on `i`; to keep the feeder/detector rendezvous unambiguous under
/// interleaving we use a second channel `i'` for the destination.
pub fn y_chan(i: Name) -> Name {
    Name::intern_raw(&format!("{}'", i.spelling()))
}

/// Builds the full paper pipeline: a feeder broadcasting the edge list
/// to a `Detector`. Returns `(system, defs, o)`.
pub fn detector_system(g: &Graph) -> (P, Defs, Name) {
    let i = Name::intern_raw("i");
    let o = Name::intern_raw("o");
    let mut feeder = nil();
    for (a, b) in g.edges.iter().rev() {
        let an = vertex_name(a);
        let bn = vertex_name(b);
        feeder = out(i, [an], out(y_chan(i), [bn], feeder));
    }
    (par(detector(i, o, true), feeder), Defs::new(), o)
}

/// Direct instantiation: one `Edge_manager` per edge (the state the
/// detector reaches after consuming the feeder). Returns
/// `(system, defs, o)`.
pub fn edge_managers_system(g: &Graph) -> (P, Defs, Name) {
    let o = Name::intern_raw("o");
    let managers: Vec<P> = g
        .edges
        .iter()
        .map(|(a, b)| edge_manager(o, vertex_name(a), vertex_name(b), false))
        .collect();
    (par_of(managers), Defs::new(), o)
}

/// The channel name of a vertex.
pub fn vertex_name(v: &str) -> Name {
    Name::intern_raw(&format!("v_{v}"))
}

/// Outcome of running the distributed detector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// An output on `o` is reachable: a cycle was detected.
    Cycle,
    /// The full state space contains no output on `o`.
    NoCycle,
    /// The exploration was truncated before finding a signal.
    Unknown,
}

/// Runs the detector by exhaustive exploration with early exit on the
/// first cycle signal (sound both ways when the graph fits in the
/// budget). The returned [`StateGraph`] is only materialised for
/// negative/unknown verdicts (positives exit before building it).
pub fn detect_by_exploration(g: &Graph, max_states: usize) -> (Verdict, StateGraph) {
    let (sys, defs, o) = edge_managers_system(g);
    let opts = ExploreOpts { max_states };
    match bpi_semantics::output_reachable(&sys, &defs, o, opts) {
        Some(true) => (
            Verdict::Cycle,
            StateGraph {
                states: vec![sys],
                edges: vec![Vec::new()],
                truncated: false,
                interrupted: None,
            },
        ),
        Some(false) => (Verdict::NoCycle, explore(&sys, &defs, opts)),
        None => (Verdict::Unknown, explore(&sys, &defs, opts)),
    }
}

/// Fault-tolerant instantiation: one **persistent-pump** manager per
/// edge (the paper's literal reading). The pump re-broadcasts the edge's
/// token forever, which is a retry-on-loss loop for free: a delivery
/// dropped by a lossy network is simply supplied again on the next pump
/// round, so the cycle signal on `o` is still reached under any
/// per-message loss rate < 1 (only the infinite state space is lost,
/// which the simulation driver never needed). Returns
/// `(system, defs, o)`.
pub fn resilient_edge_managers_system(g: &Graph) -> (P, Defs, Name) {
    let o = Name::intern_raw("o");
    let managers: Vec<P> = g
        .edges
        .iter()
        .map(|(a, b)| edge_manager(o, vertex_name(a), vertex_name(b), true))
        .collect();
    (par_of(managers), Defs::new(), o)
}

/// Runs the resilient detector under injected faults: each edge manager
/// is one fault-domain node, and the plan's message loss / crash / stop
/// faults apply to the broadcasts between them. Returns whether the
/// cycle signal fired within `steps` scheduler steps, plus the log of
/// every injected fault for replay.
pub fn detect_under_faults(g: &Graph, plan: &FaultPlan, steps: usize) -> (bool, FaultLog) {
    let (sys, defs, o) = resilient_edge_managers_system(g);
    let mut sim = FaultySimulator::new(&defs, plan.clone());
    let (trace, log) = sim.run_until_output(&sys, o, steps);
    (trace.saw_output_on(o), log)
}

/// The probability that the resilient detector signals the cycle on `o`
/// within `steps` scheduler steps under `plan`, estimated from
/// `samples` seeded Monte-Carlo trajectories
/// ([`bpi_semantics::convergence_mc`]). Deterministic in `(plan.seed,
/// samples)`; for budgeted or resumable estimation call
/// `convergence_mc` on [`resilient_edge_managers_system`] directly.
pub fn convergence_probability(
    g: &Graph,
    plan: &FaultPlan,
    steps: usize,
    samples: usize,
) -> ReliabilityEstimate {
    let (sys, defs, o) = resilient_edge_managers_system(g);
    convergence_mc(
        &sys,
        &defs,
        plan,
        o,
        steps,
        samples,
        &Budget::unlimited(),
        &CheckpointCfg::default(),
    )
    .expect("unlimited budget and inert checkpointing cannot interrupt")
}

/// Exact bounded-depth convergence interval for the resilient detector
/// under a loss-only plan: `[p_lo, p_hi]` brackets the true probability
/// of signalling on `o` within `depth` steps, the gap being exactly the
/// mass still alive at the horizon ([`bpi_semantics::convergence_exact`]).
pub fn convergence_probability_exact(
    g: &Graph,
    plan: &FaultPlan,
    depth: usize,
    budget: &Budget,
) -> Result<ExactOutcome, ProbError> {
    let (sys, defs, o) = resilient_edge_managers_system(g);
    convergence_exact(&sys, &defs, plan, o, depth, budget)
}

/// Runs the detector by seeded random simulation: returns true iff some
/// run of at most `steps` steps signals on `o` (sound for positives;
/// probabilistic for negatives).
pub fn detect_by_simulation(g: &Graph, seeds: std::ops::Range<u64>, steps: usize) -> bool {
    let (sys, defs, o) = edge_managers_system(g);
    for seed in seeds {
        let mut sim = Simulator::new(&defs, seed);
        if sim.run_until_output(&sys, o, steps).saw_output_on(o) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dfs_baseline() {
        assert!(!has_cycle_dfs(&Graph::new(&[("a", "b"), ("b", "c")])));
        assert!(has_cycle_dfs(&Graph::new(&[("a", "b"), ("b", "a")])));
        assert!(has_cycle_dfs(&Graph::new(&[("a", "a")])));
        assert!(has_cycle_dfs(&Graph::new(&[
            ("a", "b"),
            ("b", "c"),
            ("c", "a"),
        ])));
        assert!(!has_cycle_dfs(&Graph::new(&[
            ("a", "b"),
            ("a", "c"),
            ("b", "d"),
            ("c", "d"),
        ])));
    }

    #[test]
    fn two_cycle_detected() {
        let g = Graph::new(&[("a", "b"), ("b", "a")]);
        let (verdict, _) = detect_by_exploration(&g, 50_000);
        assert_eq!(verdict, Verdict::Cycle);
    }

    #[test]
    fn self_loop_detected() {
        let g = Graph::new(&[("a", "a")]);
        let (verdict, _) = detect_by_exploration(&g, 10_000);
        assert_eq!(verdict, Verdict::Cycle);
    }

    #[test]
    fn chain_has_no_cycle() {
        let g = Graph::new(&[("a", "b"), ("b", "c")]);
        let (verdict, graph) = detect_by_exploration(&g, 50_000);
        assert_eq!(verdict, Verdict::NoCycle, "states: {}", graph.len());
    }

    #[test]
    fn three_cycle_detected_by_simulation() {
        let g = Graph::new(&[("a", "b"), ("b", "c"), ("c", "a")]);
        assert!(detect_by_simulation(&g, 0..20, 400));
    }

    #[test]
    fn detector_pipeline_spawns_managers() {
        // The full Detector+feeder pipeline detects the 2-cycle too.
        let g = Graph::new(&[("a", "b"), ("b", "a")]);
        let (sys, defs, o) = detector_system(&g);
        let mut found = false;
        for seed in 0..30 {
            let mut sim = Simulator::new(&defs, seed);
            if sim.run_until_output(&sys, o, 600).saw_output_on(o) {
                found = true;
                break;
            }
        }
        assert!(found, "pipeline never signalled a cycle");
    }

    #[test]
    fn resilient_detector_survives_heavy_loss() {
        // Persistent pumps retry every token forever, so the decision
        // barb is reached under ANY loss rate < 1 — here 0.5 and 0.9,
        // across a batch of seeds.
        let g = Graph::new(&[("a", "b"), ("b", "a")]);
        for &loss in &[0.0, 0.5, 0.9] {
            for seed in 0..8 {
                let plan = FaultPlan::new(seed).with_default_loss(loss).unwrap();
                let (found, log) = detect_under_faults(&g, &plan, 4_000);
                assert!(
                    found,
                    "cycle missed at loss {loss} seed {seed} ({} losses injected)",
                    log.losses()
                );
            }
        }
    }

    #[test]
    fn resilient_detector_has_no_false_positives_under_loss() {
        // Loss can only DELAY detection, never invent a cycle: on an
        // acyclic graph the signal must stay silent at every loss rate.
        let g = Graph::new(&[("a", "b"), ("b", "c")]);
        for &loss in &[0.0, 0.5, 0.9] {
            for seed in 0..3 {
                let plan = FaultPlan::new(seed).with_default_loss(loss).unwrap();
                let (found, _) = detect_under_faults(&g, &plan, 250);
                assert!(!found, "false positive at loss {loss} seed {seed}");
            }
        }
    }

    #[test]
    fn total_loss_silences_the_detector() {
        // At loss rate 1.0 no token ever crosses between managers, so
        // even a real cycle goes unreported — the boundary case of the
        // "< 1" claim.
        let g = Graph::new(&[("a", "b"), ("b", "a")]);
        let plan = FaultPlan::new(7).with_default_loss(1.0).unwrap();
        let (found, log) = detect_under_faults(&g, &plan, 1_000);
        assert!(!found);
        assert!(log.losses() > 0, "losses must actually have been injected");
    }

    #[test]
    fn crashed_manager_cannot_complete_the_cycle() {
        // Crash-stop of one edge manager at step 0 removes its edge from
        // the live graph: a 2-cycle needs both managers.
        let g = Graph::new(&[("a", "b"), ("b", "a")]);
        let plan = FaultPlan::new(3).with_crash(0, 1);
        let (found, log) = detect_under_faults(&g, &plan, 1_500);
        assert!(!found, "cycle reported despite a crashed manager");
        assert!(!log.events.is_empty());
    }

    #[test]
    fn agreement_with_baseline_on_small_graphs() {
        let cases = [
            Graph::new(&[("a", "b")]),
            Graph::new(&[("a", "b"), ("b", "a")]),
            Graph::new(&[("a", "b"), ("b", "c"), ("a", "c")]),
            Graph::new(&[("a", "b"), ("b", "c"), ("c", "b")]),
        ];
        for g in cases {
            let expect = has_cycle_dfs(&g);
            let (verdict, _) = detect_by_exploration(&g, 200_000);
            match verdict {
                Verdict::Cycle => assert!(expect, "false positive on {:?}", g.edges),
                Verdict::NoCycle => assert!(!expect, "false negative on {:?}", g.edges),
                Verdict::Unknown => panic!("budget too small for {:?}", g.edges),
            }
        }
    }
}
