//! Structural analysis of explored state graphs: strongly connected
//! components, divergence, and progress diagnostics.
//!
//! A closed broadcast system *diverges* when it can cycle through
//! internal (`τ`) steps forever — e.g. two restricted processes ping-
//! ponging a token. Divergence matters for the weak equivalences (they
//! are divergence-blind) and for the examples: the cycle-detector's
//! token pumps are intentionally divergent, while the RAM encoding must
//! be divergence-free to terminate. [`analyse`] computes:
//!
//! * Tarjan SCCs of the τ-subgraph → [`Analysis::divergent_states`];
//! * terminal states split into proper deadlocks (no transitions at
//!   all) vs input-waiting states;
//! * per-channel broadcast counts, for at-a-glance traffic profiles.

use crate::explore::StateGraph;
use bpi_core::action::Action;
use bpi_core::name::Name;
use std::collections::BTreeMap;

/// The result of [`analyse`].
#[derive(Clone, Debug)]
pub struct Analysis {
    /// States lying on a τ-cycle (able to diverge).
    pub divergent_states: Vec<usize>,
    /// States with no outgoing step transitions.
    pub terminal_states: Vec<usize>,
    /// Number of τ-SCCs with more than one state or a self-loop.
    pub tau_scc_count: usize,
    /// Output transitions per subject channel across the whole graph.
    pub traffic: BTreeMap<Name, usize>,
}

impl Analysis {
    /// Whether the system can diverge from its initial state (state 0
    /// can reach a τ-cycle through any transitions).
    pub fn may_diverge(&self) -> bool {
        !self.divergent_states.is_empty()
    }

    /// A one-screen summary.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "divergent states: {}; terminal states: {}; τ-cycles: {}\n",
            self.divergent_states.len(),
            self.terminal_states.len(),
            self.tau_scc_count
        );
        for (chan, n) in &self.traffic {
            s.push_str(&format!("  {chan}: {n} broadcasts\n"));
        }
        s
    }
}

/// Analyses an explored graph.
pub fn analyse(g: &StateGraph) -> Analysis {
    let n = g.len();
    // τ-adjacency.
    let tau_adj: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            g.edges[i]
                .iter()
                .filter(|(a, _)| matches!(a, Action::Tau))
                .map(|(_, j)| *j)
                .collect()
        })
        .collect();

    // Iterative Tarjan SCC.
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut counter = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();

    #[derive(Clone, Copy)]
    struct Frame {
        v: usize,
        child: usize,
    }
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        let mut call: Vec<Frame> = vec![Frame { v: start, child: 0 }];
        index[start] = counter;
        low[start] = counter;
        counter += 1;
        stack.push(start);
        on_stack[start] = true;
        while let Some(frame) = call.last_mut() {
            let v = frame.v;
            if frame.child < tau_adj[v].len() {
                let w = tau_adj[v][frame.child];
                frame.child += 1;
                if index[w] == usize::MAX {
                    index[w] = counter;
                    low[w] = counter;
                    counter += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push(Frame { v: w, child: 0 });
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().unwrap();
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(comp);
                }
                let done = *frame;
                call.pop();
                if let Some(parent) = call.last() {
                    low[parent.v] = low[parent.v].min(low[done.v]);
                }
            }
        }
    }

    // A state diverges if its SCC has >1 state or a τ self-loop.
    let mut divergent = Vec::new();
    let mut cyclic_sccs = 0usize;
    for comp in &sccs {
        let cyclic = comp.len() > 1 || tau_adj[comp[0]].contains(&comp[0]);
        if cyclic {
            cyclic_sccs += 1;
            divergent.extend(comp.iter().copied());
        }
    }
    divergent.sort_unstable();

    let mut traffic: BTreeMap<Name, usize> = BTreeMap::new();
    for (act, _) in g.edges.iter().flatten() {
        if act.is_output() {
            if let Some(a) = act.subject() {
                *traffic.entry(a).or_default() += 1;
            }
        }
    }

    Analysis {
        divergent_states: divergent,
        terminal_states: g.deadlocks(),
        tau_scc_count: cyclic_sccs,
        traffic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, ExploreOpts};
    use bpi_core::builder::*;
    use bpi_core::syntax::{Defs, Ident};

    #[test]
    fn straight_line_has_no_divergence() {
        let defs = Defs::new();
        let [a, b] = names(["a", "b"]);
        let p = out(a, [], tau(out_(b, [])));
        let g = explore(&p, &defs, ExploreOpts::default());
        let an = analyse(&g);
        assert!(!an.may_diverge());
        assert_eq!(an.terminal_states.len(), 1);
        assert_eq!(an.traffic.len(), 2);
    }

    #[test]
    fn restricted_pingpong_diverges() {
        // νa ((rec X(a). āa.X⟨a⟩)⟨a⟩ ‖ (rec Y(a). a(x).Y⟨a⟩)⟨a⟩):
        // endless internal chatter — a τ-cycle.
        let defs = Defs::new();
        let [a, x] = names(["a", "x"]);
        let xi = Ident::new("AnPing");
        let yi = Ident::new("AnPong");
        let p = new(
            a,
            par(
                rec(xi, [a], out(a, [a], var(xi, [a])), [a]),
                rec(yi, [a], inp(a, [x], var(yi, [a])), [a]),
            ),
        );
        let g = explore(&p, &defs, ExploreOpts::default());
        let an = analyse(&g);
        assert!(an.may_diverge(), "{}", an.summary());
        assert!(an.terminal_states.is_empty());
    }

    #[test]
    fn tau_selfloop_detected() {
        // (rec X(). τ.X)⟨⟩ is a single divergent state.
        let defs = Defs::new();
        let xi = Ident::new("AnLoop");
        let p = rec(xi, [], tau(var(xi, [])), []);
        let g = explore(&p, &defs, ExploreOpts::default());
        assert_eq!(g.len(), 1);
        let an = analyse(&g);
        assert_eq!(an.divergent_states, vec![0]);
        assert_eq!(an.tau_scc_count, 1);
    }

    #[test]
    fn visible_cycles_are_not_divergence() {
        // (rec X(a). ā.X)⟨a⟩ cycles through *outputs*, not τs.
        let defs = Defs::new();
        let a = bpi_core::Name::new("a");
        let xi = Ident::new("AnOut");
        let p = rec(xi, [a], out(a, [], var(xi, [a])), [a]);
        let g = explore(&p, &defs, ExploreOpts::default());
        let an = analyse(&g);
        assert!(!an.may_diverge());
        assert_eq!(an.traffic[&a], 1);
    }

    #[test]
    fn sequenced_handshakes_are_divergence_free() {
        // A restricted two-phase handshake makes τ-progress but never
        // cycles.
        let defs = Defs::new();
        let [go, done] = names(["go", "done"]);
        let p = new(go, par(out(go, [], out_(done, [])), inp(go, [], nil())));
        let g = explore(&p, &defs, ExploreOpts::default());
        assert!(!analyse(&g).may_diverge());
    }
}
