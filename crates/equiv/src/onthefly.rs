//! On-the-fly checking of the three strong variants (Fernandez &
//! Mounier 1991): [`Checker::check`](crate::Checker::check) decides
//! `StrongBarbed`, `StrongStep` and `StrongLabelled` from the root pair
//! outward, over states derived only when a pair needs them.
//!
//! Each strong bisimilarity is the largest relation closed under its
//! transfer obligations (`bisim::transfer`: a move to match, a discard
//! to mirror), so its verdict at the roots depends only on the
//! pairs those obligations reach from the root pair. The search numbers
//! those pairs breadth-first from `(0, 0)`. Exploring a pair derives both
//! its states' moves through the build loop's own expansion
//! (`graph::expand_steps`, and `graph::expand_inputs` for the labelled
//! variant only: the barbed and step transfers never read an input or a
//! discard) and walks both directions of the transfer property with
//! `bisim::strong_transfer`, which names each obligation's candidate
//! pairs.
//! Every candidate pair joins the table, and each obligation keeps a
//! count of its candidates not yet refuted.
//!
//! Refutation runs backwards, as the least fixpoint of "not related": a
//! pair is refuted when a barb is missing or one of its obligations has
//! no live candidate left, and refuting a pair decrements every
//! obligation it is a candidate of. Each obligation edge is handled once,
//! so this is linear in the explored pair graph. The search answers
//! [`Verdict::Fails`] as soon as the root pair is refuted, and
//! [`Verdict::Holds`] when the exploration closes: every obligation of a
//! live pair then has a live candidate, so the live pairs form a
//! bisimulation that contains the roots.
//!
//! The search hands the check back to the graph route when its pair
//! table outgrows the states it has derived by more than `PAIR_SLACK`
//! pairs, where refining the two graphs costs less than
//! the pairs would, or when a side passes the state ceiling
//! (`opts.max_states` ∧ the budget's), where the graph route decides how
//! to fail. It polls the budget's cancellation flag and deadline once per
//! explored pair, and answers [`Verdict::Inconclusive`] when they fire.

use crate::bisim::{strong_transfer, Checker, Moves, Note, Variant, Verdict};
use crate::graph::{expand_inputs, expand_steps, shared_pool};
use bpi_core::action::Action;
use bpi_core::name::{Name, NameSet};
use bpi_core::syntax::{Defs, P};
use bpi_core::Consed;
use bpi_obs::{counter, Counter, Det};
use bpi_semantics::lts::Lts;
use std::collections::HashMap;
use std::ops::ControlFlow::{self, Break, Continue};
use std::sync::LazyLock;

// Work counters: pairs and states are numbered in a fixed order from
// the roots, so both are deterministic, and so is the fallback count.
static PAIRS: LazyLock<&Counter> =
    LazyLock::new(|| counter("equiv.onthefly.pairs", Det::Deterministic));
static STATES: LazyLock<&Counter> =
    LazyLock::new(|| counter("equiv.onthefly.states", Det::Deterministic));
static FALLBACKS: LazyLock<&Counter> =
    LazyLock::new(|| counter("equiv.onthefly.fallbacks", Det::Deterministic));

/// How many pairs beyond the states derived on both sides the search
/// may hold before it hands the check to the graph route. A pair graph
/// much larger than its states means the search would visit a product
/// the graph route refines as a partition of the states; the slack lets
/// a search near the roots, where the first obligations name a few pairs
/// per state, run on. Chosen by measurement over check-corpus's strong
/// entries (DESIGN.md §8, *On-the-fly route*), beside the naive cutover
/// `NAIVE_MAX_PAIRS`.
pub(crate) const PAIR_SLACK: usize = 16;

/// What the search made of a check.
pub(crate) enum Outcome {
    /// Its verdict: `Holds`, `Fails`, or `Inconclusive` when the budget
    /// stopped it.
    Settled(Verdict),
    /// It handed the check back to the graph route, for the reason named.
    Fallback(&'static str),
}

/// Decides strong variant `v` between `p` and `q` from the root pair,
/// under `checker`'s options and budget.
pub(crate) fn decide(checker: &Checker, v: Variant, p: &P, q: &P) -> Outcome {
    let _span = bpi_obs::span("equiv.check", "onthefly");
    let pool = shared_pool(p, q, checker.opts.fresh_inputs);
    let pool_set = NameSet::from_iter(pool.iter().copied());
    let inputs = v == Variant::StrongLabelled;
    let side = |t: &P| Side::new(t, checker.defs, &pool, &pool_set, inputs);
    let (mut s1, mut s2) = (side(p), side(q));
    let cap = checker.opts.max_states.min(checker.budget.max_states());
    let mut table = Pairs::default();
    table.intern(0, 0);
    let mut next = 0;
    let outcome = loop {
        if table.dead[0] {
            break Outcome::Settled(Verdict::Fails(format!("{v:?} fails at the root pair")));
        }
        if next == table.pairs.len() {
            break Outcome::Settled(Verdict::Holds);
        }
        if s1.states.len() > cap || s2.states.len() > cap {
            break Outcome::Fallback("states");
        }
        if table.pairs.len() > s1.states.len() + s2.states.len() + PAIR_SLACK {
            break Outcome::Fallback("pairs");
        }
        if let Err(e) = checker.budget.check(0) {
            break Outcome::Settled(Verdict::Inconclusive(e));
        }
        let (i, j) = table.pairs[next];
        let owner = next as u32;
        next += 1;
        s1.expand(i);
        s2.expand(j);
        // The backward direction only when the forward one holds, as in
        // the graph engines.
        let refuted = strong_transfer(v, &s1, i, &s2, j, &mut table.walk(owner, false)).is_break()
            || strong_transfer(v, &s2, j, &s1, i, &mut table.walk(owner, true)).is_break();
        if refuted {
            table.refute(owner);
        }
    };
    PAIRS.add(table.pairs.len() as u64);
    STATES.add((s1.states.len() + s2.states.len()) as u64);
    if matches!(outcome, Outcome::Fallback(_)) {
        FALLBACKS.inc();
    }
    outcome
}

/// One side's states, numbered as the search discovers them (state 0 is
/// the root's normal form, as in [`crate::Graph`]), with the moves of
/// each state the search has expanded.
struct Side<'a> {
    lts: Lts<'a>,
    pool: &'a [Name],
    pool_set: &'a NameSet,
    /// Whether expansions derive inputs and discards.
    inputs: bool,
    states: Vec<Consed>,
    index: HashMap<Consed, usize>,
    /// Per state, its moves once expanded.
    moves: Vec<Option<Expansion>>,
    labels: Vec<Action>,
    label_index: HashMap<Action, u32>,
}

struct Expansion {
    edges: Vec<(u32, usize)>,
    barbs: NameSet,
    discarding: NameSet,
}

impl<'a> Side<'a> {
    fn new(
        root: &P,
        defs: &'a Defs,
        pool: &'a [Name],
        pool_set: &'a NameSet,
        inputs: bool,
    ) -> Side<'a> {
        let root = bpi_core::cons(root).normal_form();
        Side {
            lts: Lts::new(defs),
            pool,
            pool_set,
            inputs,
            states: vec![root.clone()],
            index: HashMap::from([(root, 0)]),
            moves: vec![None],
            labels: Vec::new(),
            label_index: HashMap::new(),
        }
    }

    /// Derives state `i`'s moves, once.
    fn expand(&mut self, i: usize) {
        if self.moves[i].is_some() {
            return;
        }
        let src = &self.states[i];
        let mut succs = expand_steps(&self.lts, src, self.pool_set);
        let discarding = if self.inputs {
            let (received, discarding) = expand_inputs(&self.lts, src, self.pool, self.pool_set);
            succs.extend(received);
            discarding
        } else {
            NameSet::new()
        };
        let mut barbs = NameSet::new();
        let mut edges = Vec::with_capacity(succs.len());
        for (act, key) in succs {
            if act.is_output() {
                barbs.insert(act.subject().expect("outputs have a subject"));
            }
            let t = *self.index.entry(key).or_insert_with_key(|key| {
                self.states.push(key.clone());
                self.moves.push(None);
                self.states.len() - 1
            });
            let lid = *self.label_index.entry(act).or_insert_with_key(|act| {
                self.labels.push(act.clone());
                self.labels.len() as u32 - 1
            });
            edges.push((lid, t));
        }
        self.moves[i] = Some(Expansion {
            edges,
            barbs,
            discarding,
        });
    }

    fn expansion(&self, i: usize) -> &Expansion {
        self.moves[i]
            .as_ref()
            .expect("the search expands both states of a pair before reading them")
    }
}

impl Moves for Side<'_> {
    fn edges(&self, i: usize) -> impl Iterator<Item = (u32, usize)> + '_ {
        self.expansion(i).edges.iter().copied()
    }

    fn label(&self, lid: u32) -> &Action {
        &self.labels[lid as usize]
    }

    fn label_id(&self, label: &Action) -> Option<u32> {
        self.label_index.get(label).copied()
    }

    fn barbs(&self, i: usize) -> NameSet {
        self.expansion(i).barbs.clone()
    }

    fn discarding(&self, i: usize) -> &NameSet {
        &self.expansion(i).discarding
    }
}

/// The pair table: pairs in discovery order, which is the order the
/// search explores them in, and the obligations between them.
#[derive(Default)]
struct Pairs {
    pairs: Vec<(usize, usize)>,
    index: HashMap<(usize, usize), u32>,
    /// Per pair: refuted.
    dead: Vec<bool>,
    /// Per pair: the obligations it is a live candidate of.
    deps: Vec<Vec<u32>>,
    /// Per obligation: its live candidates, and the pair it belongs to.
    live: Vec<u32>,
    owner: Vec<u32>,
}

impl Pairs {
    /// The number of pair `(i, j)`, added to the table when new.
    fn intern(&mut self, i: usize, j: usize) -> u32 {
        *self.index.entry((i, j)).or_insert_with(|| {
            self.pairs.push((i, j));
            self.dead.push(false);
            self.deps.push(Vec::new());
            self.pairs.len() as u32 - 1
        })
    }

    /// The score of one direction of pair `owner`'s transfer walk.
    fn walk(&mut self, owner: u32, transposed: bool) -> Obligations<'_> {
        Obligations {
            table: self,
            owner,
            transposed,
        }
    }

    /// Refutes pair `k` and, backwards through the obligations, every
    /// pair left with an obligation that no live candidate answers.
    fn refute(&mut self, k: u32) {
        self.dead[k as usize] = true;
        let mut work = vec![k];
        while let Some(x) = work.pop() {
            for ob in std::mem::take(&mut self.deps[x as usize]) {
                let live = &mut self.live[ob as usize];
                *live -= 1;
                let owner = self.owner[ob as usize];
                if *live == 0 && !self.dead[owner as usize] {
                    self.dead[owner as usize] = true;
                    work.push(owner);
                }
            }
        }
    }
}

/// The search's score of a transfer walk: it records each obligation of
/// pair `owner`, its candidates interned as pairs (swapped back when the
/// walk runs backwards), and breaks on one with no live candidate.
struct Obligations<'t> {
    table: &'t mut Pairs,
    owner: u32,
    transposed: bool,
}

impl Note for Obligations<'_> {
    fn note(
        &mut self,
        _: &Action,
        candidates: impl Iterator<Item = (usize, usize)>,
    ) -> ControlFlow<()> {
        let ob = self.table.live.len() as u32;
        let mut live = 0;
        for (a, b) in candidates {
            let k = if self.transposed {
                self.table.intern(b, a)
            } else {
                self.table.intern(a, b)
            };
            if !self.table.dead[k as usize] {
                live += 1;
                self.table.deps[k as usize].push(ob);
            }
        }
        self.table.live.push(live);
        self.table.owner.push(self.owner);
        if live == 0 {
            Break(())
        } else {
            Continue(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpi_core::builder::*;
    use bpi_semantics::budget::{Budget, EngineError};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn the_search_polls_its_budget() {
        // `Checker::check` polls before the search; the search polls
        // again before each pair, which a flag raised mid-check meets.
        let d = Defs::new();
        let [a] = names(["a"]);
        let flag = Arc::new(AtomicBool::new(true));
        let c = Checker::new(&d).with_budget(Budget::unlimited().with_cancel_flag(flag));
        let outcome = decide(&c, Variant::StrongBarbed, &tau(out_(a, [])), &out_(a, []));
        assert!(matches!(
            outcome,
            Outcome::Settled(Verdict::Inconclusive(EngineError::Cancelled))
        ));
    }

    #[test]
    fn a_side_past_the_ceiling_falls_back() {
        // τ³.ā against τ³.b̄ differ at depth 3, past a 2-state ceiling:
        // the search hands the check back, and the graph route reports
        // the ceiling as before.
        let d = Defs::new();
        let [a, b] = names(["a", "b"]);
        let (p, q) = (tau(tau(tau(out_(a, [])))), tau(tau(tau(out_(b, [])))));
        let c = Checker::new(&d).with_budget(Budget::states(2));
        let v = Variant::StrongBarbed;
        assert!(matches!(decide(&c, v, &p, &q), Outcome::Fallback("states")));
        assert_eq!(
            c.check(v, &p, &q),
            Verdict::Inconclusive(EngineError::StateBudgetExceeded { limit: 2 })
        );
        let roomy = Checker::new(&d).with_budget(Budget::states(5));
        assert!(matches!(
            decide(&roomy, v, &p, &q),
            Outcome::Settled(Verdict::Fails(_))
        ));
    }
}
