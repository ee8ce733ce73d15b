//! Example 2: detecting inconsistencies for transaction systems over a
//! partitioned, replicated database.
//!
//! The setting (after \[1\] in the paper): while the network is
//! partitioned, transactions keep executing against local copies; when
//! the network is reconnected (a broadcast on the channel `unif`), the
//! system builds a *precedence graph* over transactions and the database
//! is consistent iff that graph is acyclic. Edges `⟨t,p⟩ → ⟨t₁,p₁⟩`
//! exist iff
//!
//! 1. `t` read an item later written by `t₁`, same partition;
//! 2. `t` wrote an item later read or written by `t₁`, same partition;
//! 3. `t` read an item written by `t₁`, **different** partitions —
//!    and two writes of the same item in different partitions yield two
//!    contrary edges (an immediate 2-cycle — the paper's "error" case).
//!
//! The bπ encoding follows the paper's architecture: per item copy an
//! `Item` manager listens for transaction broadcasts and forks a
//! transaction manager `TrMan` per local transaction; a broadcast on
//! `unif` flips the managers into the cross-partition phase (`STrMan`),
//! where each manager announces its record on the item's phase-2 channel
//! and reacts to the other copies' records. All discovered precedence
//! edges are broadcast on an edge channel feeding the Example 1 cycle
//! detector, so "inconsistency" is exactly "the distributed detector
//! signals on `error`".
//!
//! Transaction identifiers, read/write tags and partition identifiers
//! are all channel *names* — the managers compare them with matches and
//! forward them across channels, the name-passing the paper highlights
//! ("this example uses the entire expressiveness power of our calculus").

use crate::cycle::{edge_manager, has_cycle_dfs, Graph};
use crate::retry::RetryPolicy;
use bpi_core::builder::*;
use bpi_core::name::Name;
use bpi_core::syntax::{Defs, Ident, P};
use bpi_semantics::{
    convergence_mc, Budget, CheckpointCfg, FaultLog, FaultPlan, FaultySimulator,
    ReliabilityEstimate, Simulator,
};
use std::collections::HashSet;

/// Read or write access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Access {
    Read,
    Write,
}

/// One transaction event in a history: transaction `tid` performed
/// `access` on `item` inside `partition`. Events are listed in the
/// serialization order of their partition.
#[derive(Clone, Debug)]
pub struct Event {
    pub tid: String,
    pub access: Access,
    pub item: String,
    pub partition: String,
}

impl Event {
    pub fn new(tid: &str, access: Access, item: &str, partition: &str) -> Event {
        Event {
            tid: tid.to_string(),
            access,
            item: item.to_string(),
            partition: partition.to_string(),
        }
    }
}

/// A partitioned-execution history.
#[derive(Clone, Debug, Default)]
pub struct History {
    pub events: Vec<Event>,
}

/// Baseline: builds the precedence graph of the three rules directly.
pub fn precedence_graph(h: &History) -> Graph {
    let mut edges: Vec<(String, String)> = Vec::new();
    let push = |a: &str, b: &str, edges: &mut Vec<(String, String)>| {
        let e = (a.to_string(), b.to_string());
        if a != b && !edges.contains(&e) {
            edges.push(e);
        }
    };
    for (i, e1) in h.events.iter().enumerate() {
        for e2 in h.events.iter().skip(i + 1) {
            if e1.item != e2.item || e1.tid == e2.tid {
                continue;
            }
            if e1.partition == e2.partition {
                // Rules 1 and 2: `e1` happened before `e2` in the same
                // partition; conflict iff either is a write.
                if e1.access == Access::Write || e2.access == Access::Write {
                    push(&e1.tid, &e2.tid, &mut edges);
                }
            } else {
                // Rule 3 (and the contrary-edges error case): order is
                // unknowable across partitions.
                match (e1.access, e2.access) {
                    (Access::Read, Access::Write) => push(&e1.tid, &e2.tid, &mut edges),
                    (Access::Write, Access::Read) => push(&e2.tid, &e1.tid, &mut edges),
                    (Access::Write, Access::Write) => {
                        push(&e1.tid, &e2.tid, &mut edges);
                        push(&e2.tid, &e1.tid, &mut edges);
                    }
                    (Access::Read, Access::Read) => {}
                }
            }
        }
    }
    Graph { edges }
}

/// Baseline verdict: the history is inconsistent iff its precedence
/// graph has a cycle.
pub fn is_inconsistent_baseline(h: &History) -> bool {
    has_cycle_dfs(&precedence_graph(h))
}

fn tid_name(t: &str) -> Name {
    Name::intern_raw(&format!("t_{t}"))
}

fn item_chan(i: &str) -> Name {
    Name::intern_raw(&format!("it_{i}"))
}

fn item_chan2(i: &str) -> Name {
    Name::intern_raw(&format!("it2_{i}"))
}

fn part_name(p: &str) -> Name {
    Name::intern_raw(&format!("p_{p}"))
}

/// Global tag names for read/write accesses.
pub fn rw_names() -> (Name, Name) {
    (Name::intern_raw("rd"), Name::intern_raw("wr"))
}

// Retry-on-loss now flows through [`crate::retry::RetryPolicy`]: one-shot
// sends assume a reliable network, `Immediate` is the PR 1 persistent
// pump, and `Backoff` spaces re-offers with a deterministic seeded
// exponential-backoff-with-jitter schedule compiled into the term.

/// The in-partition transaction manager: for every *later* transaction
/// on the same item and partition that conflicts with `⟨t, ty⟩`,
/// broadcast the precedence edge `ē⟨t, t₁⟩`; on `unif` switch to the
/// cross-partition phase (the paper's `Tr_Man_w`/`Tr_Man_r`, merged by
/// comparing the stored tag with the `wr` name instead of specialising
/// the definition).
fn tr_man(j: &str, p: Name, unif: Name, e: Name, t: Name, ty: Name, retry: &RetryPolicy) -> P {
    let (_rd, wr) = rw_names();
    let id = Ident::new("TrMan");
    let (t1, ty1, pt1) = (
        Name::intern_raw("mt1"),
        Name::intern_raw("mty1"),
        Name::intern_raw("mpt1"),
    );
    let j1 = item_chan(j);
    let j2 = item_chan2(j);
    // Conflict: ty = w ∨ ty₁ = w  ⇒ edge t → t₁.
    let edge = retry.send("EdgeP1", e, &[t, t1]);
    let conflict = mat(ty, wr, edge.clone(), mat(ty1, wr, edge, nil()));
    let body = sum(
        inp(
            j1,
            [t1, ty1, pt1],
            par(
                var(id, [p, unif, e, t, ty]),
                mat(pt1, p, mat(t1, t, nil(), conflict), nil()),
            ),
        ),
        inp(unif, [], str_man(j2, p, e, t, ty, retry)),
    );
    rec(id, [p, unif, e, t, ty], body, [p, unif, e, t, ty])
}

/// The cross-partition manager (the paper's `STr_Man`): announce the
/// local record on the item's phase-2 channel and derive rule-3 edges
/// (and contrary edges for write/write — the error case) from the other
/// copies' records.
fn str_man(j2: Name, p: Name, e: Name, t: Name, ty: Name, retry: &RetryPolicy) -> P {
    let (rd, wr) = rw_names();
    let id = Ident::new("STrMan");
    let (t1, ty1, pt1) = (
        Name::intern_raw("st1"),
        Name::intern_raw("sty1"),
        Name::intern_raw("spt1"),
    );
    // Reaction to a record ⟨t₁, ty₁, p₁⟩ from another partition:
    //   I read, they wrote   → ē⟨t, t₁⟩           (rule 3)
    //   I wrote, they read   → ē⟨t₁, t⟩           (rule 3, other side)
    //   both wrote           → contrary edges     (2-cycle ⇒ error)
    let fwd = |tag: &str, src: Name, dst: Name| retry.send(tag, e, &[src, dst]);
    let react = mat(
        ty,
        rd,
        mat(ty1, wr, fwd("EdgeRW", t, t1), nil()),
        mat(
            ty1,
            wr,
            par(fwd("EdgeWWa", t, t1), fwd("EdgeWWb", t1, t)),
            mat(ty1, rd, fwd("EdgeWR", t1, t), nil()),
        ),
    );
    let listen = rec(
        id,
        [j2, p, e, t, ty],
        inp(
            j2,
            [t1, ty1, pt1],
            par(
                var(id, [j2, p, e, t, ty]),
                mat(pt1, p, nil(), mat(t1, t, nil(), react)),
            ),
        ),
        [j2, p, e, t, ty],
    );
    // Reliable network: announce once — the driver fires `unif` before
    // any announcement, so every cross-partition manager is already
    // listening when the announcements start (broadcast loses no
    // messages). Lossy network: keep announcing, so a manager whose
    // delivery was dropped hears the record on a later round.
    let announce = retry.send("Record", j2, &[t, ty, p]);
    par(announce, listen)
}

/// The `Item` manager for one copy (item `j` in partition `p`): forks a
/// `TrMan` for every transaction executed against this copy; stops
/// listening for new transactions on `unif`. With a persistent `retry`
/// policy, the forked managers use retry-on-loss announcements for the
/// cross-partition phase.
pub fn item_manager(j: &str, p: &str, unif: Name, e: Name, retry: &RetryPolicy) -> P {
    let id = Ident::new("ItemMgr");
    let (t, ty, pt) = (
        Name::intern_raw("qt"),
        Name::intern_raw("qty"),
        Name::intern_raw("qpt"),
    );
    let j1 = item_chan(j);
    let j2 = item_chan2(j);
    let pn = part_name(p);
    let body = sum(
        inp(
            j1,
            [t, ty, pt],
            par(
                var(id, [j1, j2, pn, unif, e]),
                mat(pt, pn, tr_man(j, pn, unif, e, t, ty, retry), nil()),
            ),
        ),
        inp(unif, [], nil()),
    );
    rec(id, [j1, j2, pn, unif, e], body, [j1, j2, pn, unif, e])
}

/// Builds the complete detection system for a history: item managers for
/// every (item, partition) copy, a driver broadcasting the transaction
/// events then `unif`, and a detector spawning one Example 1 edge
/// manager per precedence edge received. Returns
/// `(system, defs, error_channel)`.
pub fn detection_system(h: &History) -> (P, Defs, Name) {
    detection_system_with(h, false)
}

/// [`detection_system`] with a fault-tolerance switch. With `resilient`
/// set, the cross-partition phase uses immediate retry-on-loss wrappers
/// everywhere a one-shot broadcast would silently assume reliable
/// delivery: record announcements on the phase-2 item channels,
/// precedence-edge broadcasts, and the cycle detector's token pumps.
/// Phase 1 stays one-shot — it models partition-*local* execution, which
/// the fault plans in the tests keep reliable (channel-targeted loss on
/// the cross-partition channels only).
pub fn detection_system_with(h: &History, resilient: bool) -> (P, Defs, Name) {
    let retry = if resilient {
        RetryPolicy::Immediate
    } else {
        RetryPolicy::OneShot
    };
    detection_system_retry(h, &retry)
}

/// The general entry: [`detection_system`] under an explicit
/// [`RetryPolicy`]. [`RetryPolicy::Backoff`] gives the production
/// shape — re-announcements spaced by a deterministic seeded
/// exponential-backoff-with-jitter schedule instead of a tight pump.
pub fn detection_system_retry(h: &History, retry: &RetryPolicy) -> (P, Defs, Name) {
    let unif = Name::intern_raw("unif");
    let e = Name::intern_raw("edg");
    let error = Name::intern_raw("error");
    let (rd, wr) = rw_names();

    // One manager per (item, partition) copy present in the history.
    let mut copies: Vec<(String, String)> = {
        let set: HashSet<(String, String)> = h
            .events
            .iter()
            .map(|ev| (ev.item.clone(), ev.partition.clone()))
            .collect();
        set.into_iter().collect()
    };
    copies.sort();
    let managers: Vec<P> = copies
        .iter()
        .map(|(j, p)| item_manager(j, p, unif, e, retry))
        .collect();

    // The driver: broadcast each event in history order on its item
    // channel, then reconnect the network.
    let mut driver = out_(unif, []);
    for ev in h.events.iter().rev() {
        let ty = match ev.access {
            Access::Read => rd,
            Access::Write => wr,
        };
        driver = out(
            item_chan(&ev.item),
            [tid_name(&ev.tid), ty, part_name(&ev.partition)],
            driver,
        );
    }

    let detector = edge_detector(e, error, retry);
    let sys = par_of(
        std::iter::once(driver)
            .chain(managers)
            .chain(std::iter::once(detector)),
    );
    (sys, Defs::new(), error)
}

/// A `Detector` variant receiving edge *pairs* in a single broadcast
/// (`ē⟨src, dst⟩`). With a persistent `retry` policy, the spawned edge
/// managers use persistent token pumps, so a token lost on a lossy
/// vertex channel is re-broadcast until the cycle (if any) is
/// witnessed.
fn edge_detector(e: Name, error: Name, retry: &RetryPolicy) -> P {
    let id = Ident::new("EdgeDetector");
    let (x, y) = (Name::intern_raw("ex"), Name::intern_raw("ey"));
    rec(
        id,
        [e, error],
        inp(
            e,
            [x, y],
            par(
                var(id, [e, error]),
                edge_manager(error, x, y, retry.is_persistent()),
            ),
        ),
        [e, error],
    )
}

/// Runs the distributed detection by seeded random simulation: returns
/// `true` iff some run within the given budgets broadcasts on `error`.
/// Sound for positives; negatives are probabilistic (the tests use
/// enough seeds/steps for the small instances they check).
pub fn detect_inconsistency(h: &History, seeds: std::ops::Range<u64>, steps: usize) -> bool {
    let (sys, defs, error) = detection_system(h);
    for seed in seeds {
        let mut sim = Simulator::new(&defs, seed);
        if sim
            .run_until_output(&sys, error, steps)
            .saw_output_on(error)
        {
            return true;
        }
    }
    false
}

/// [`detect_inconsistency`] under an injected fault plan: runs the
/// *resilient* detection system through a [`FaultySimulator`] and
/// reports whether the `error` barb was reached, together with the
/// replayable log of injected faults. The retry-on-loss wrappers mean
/// the decision barb is still reached (given enough steps) at any
/// cross-partition loss rate below `1.0`.
pub fn detect_inconsistency_under_faults(
    h: &History,
    plan: &FaultPlan,
    steps: usize,
) -> (bool, FaultLog) {
    let (sys, defs, error) = detection_system_with(h, true);
    let mut sim = FaultySimulator::new(&defs, plan.clone());
    let (trace, log) = sim.run_until_output(&sys, error, steps);
    (trace.saw_output_on(error), log)
}

/// The probability that the *resilient* detection system reaches the
/// `error` barb on `h` within `steps` steps under `plan`, estimated
/// from `samples` Monte-Carlo trajectories. For an inconsistent history
/// this is the reliability of the distributed detection under message
/// loss; for a consistent one it stays `0` at every loss rate (losing
/// messages can hide edges, never invent them).
pub fn detection_probability(
    h: &History,
    plan: &FaultPlan,
    steps: usize,
    samples: usize,
) -> ReliabilityEstimate {
    let (sys, defs, error) = detection_system_with(h, true);
    convergence_mc(
        &sys,
        &defs,
        plan,
        error,
        steps,
        samples,
        &Budget::unlimited(),
        &CheckpointCfg::default(),
    )
    .expect("unlimited budget and inert checkpointing cannot interrupt")
}

/// Random workload generation for the benchmarks: `n_tx` transactions
/// over `n_items` items across `n_parts` partitions.
pub fn random_history(seed: u64, n_tx: usize, n_items: usize, n_parts: usize) -> History {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut events = Vec::new();
    for k in 0..n_tx {
        let tid = format!("T{k}");
        let n_access = rng.gen_range(1..=2);
        let partition = format!("P{}", rng.gen_range(0..n_parts));
        for _ in 0..n_access {
            let item = format!("I{}", rng.gen_range(0..n_items));
            let access = if rng.gen_bool(0.5) {
                Access::Write
            } else {
                Access::Read
            };
            events.push(Event::new(&tid, access, &item, &partition));
        }
    }
    History { events }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_same_partition_conflicts() {
        // T1 writes x, then T2 reads x, same partition: edge T1 → T2,
        // acyclic.
        let h = History {
            events: vec![
                Event::new("T1", Access::Write, "x", "P0"),
                Event::new("T2", Access::Read, "x", "P0"),
            ],
        };
        let g = precedence_graph(&h);
        assert_eq!(g.edges, vec![("T1".to_string(), "T2".to_string())]);
        assert!(!is_inconsistent_baseline(&h));
    }

    #[test]
    fn baseline_cross_partition_writes_conflict() {
        let h = History {
            events: vec![
                Event::new("T1", Access::Write, "x", "P0"),
                Event::new("T2", Access::Write, "x", "P1"),
            ],
        };
        assert!(is_inconsistent_baseline(&h));
    }

    #[test]
    fn baseline_reads_never_conflict() {
        let h = History {
            events: vec![
                Event::new("T1", Access::Read, "x", "P0"),
                Event::new("T2", Access::Read, "x", "P1"),
                Event::new("T3", Access::Read, "x", "P0"),
            ],
        };
        assert!(precedence_graph(&h).edges.is_empty());
    }

    #[test]
    fn calculus_detects_cross_partition_write_conflict() {
        let h = History {
            events: vec![
                Event::new("T1", Access::Write, "x", "P0"),
                Event::new("T2", Access::Write, "x", "P1"),
            ],
        };
        assert!(is_inconsistent_baseline(&h));
        assert!(detect_inconsistency(&h, 0..40, 800), "error never raised");
    }

    #[test]
    fn calculus_accepts_serializable_history() {
        let h = History {
            events: vec![
                Event::new("T1", Access::Write, "x", "P0"),
                Event::new("T2", Access::Read, "x", "P0"),
            ],
        };
        assert!(!is_inconsistent_baseline(&h));
        assert!(!detect_inconsistency(&h, 0..10, 400));
    }

    #[test]
    fn calculus_detects_mixed_rule_cycle() {
        // T1 reads x in P0, T2 writes x in P1 (rule 3: T1 → T2);
        // T2 reads y in P1, T1 writes y in P0 (rule 3: T2 → T1): cycle.
        let h = History {
            events: vec![
                Event::new("T1", Access::Read, "x", "P0"),
                Event::new("T1", Access::Write, "y", "P0"),
                Event::new("T2", Access::Write, "x", "P1"),
                Event::new("T2", Access::Read, "y", "P1"),
            ],
        };
        assert!(is_inconsistent_baseline(&h));
        assert!(detect_inconsistency(&h, 0..60, 1500), "cycle missed");
    }

    #[test]
    fn no_false_positives_on_random_histories() {
        for seed in 0..6 {
            let h = random_history(seed, 3, 2, 2);
            if detect_inconsistency(&h, 0..10, 500) {
                assert!(is_inconsistent_baseline(&h), "false positive on {h:?}");
            }
        }
    }

    /// The canonical split-brain history: both copies of `x` accept a
    /// write during the partition.
    fn split_brain() -> History {
        History {
            events: vec![
                Event::new("T1", Access::Write, "x", "P0"),
                Event::new("T2", Access::Write, "x", "P1"),
            ],
        }
    }

    /// A lossy reconnected network: drops hit exactly the channels the
    /// cross-partition phase traverses (phase-2 record announcements,
    /// precedence-edge broadcasts, and the detector's per-transaction
    /// token channels). Partition-local phase 1 stays reliable.
    fn cross_partition_loss(seed: u64, p: f64) -> FaultPlan {
        FaultPlan::new(seed)
            .with_channel_loss(item_chan2("x"), p)
            .and_then(|pl| pl.with_channel_loss(Name::intern_raw("edg"), p))
            .and_then(|pl| pl.with_channel_loss(tid_name("T1"), p))
            .and_then(|pl| pl.with_channel_loss(tid_name("T2"), p))
            .expect("valid loss probability")
    }

    #[test]
    fn resilient_detection_survives_cross_partition_loss() {
        let h = split_brain();
        for &loss in &[0.0, 0.5, 0.9] {
            for seed in 0..3u64 {
                let plan = cross_partition_loss(seed, loss);
                let (found, log) = detect_inconsistency_under_faults(&h, &plan, 6000);
                assert!(
                    found,
                    "split-brain missed at loss {loss} seed {seed} ({} drops)",
                    log.losses()
                );
            }
        }
    }

    #[test]
    fn backoff_detection_survives_cross_partition_loss() {
        // The backoff-spaced retry encoding must close the same gap the
        // immediate pump closes — split-brain is still detected under
        // heavy cross-partition loss — it just spends fewer attempts
        // doing it. The longer horizon pays for the τ-spaced schedule.
        use bpi_semantics::{Backoff, FaultySimulator};
        let h = split_brain();
        let retry = RetryPolicy::Backoff(Backoff::new(0xB0));
        let (sys, defs, error) = detection_system_retry(&h, &retry);
        for seed in 0..2u64 {
            let plan = cross_partition_loss(seed, 0.5);
            let mut sim = FaultySimulator::new(&defs, plan.clone());
            let (trace, log) = sim.run_until_output(&sys, error, 9000);
            assert!(
                trace.saw_output_on(error),
                "split-brain missed under backoff retry at seed {seed} ({} drops)",
                log.losses()
            );
            // Same plan, same system ⇒ bit-identical fault log: the
            // backoff schedule is frozen into the term, so replay
            // determinism is untouched.
            let mut sim2 = FaultySimulator::new(&defs, plan);
            let (_, log2) = sim2.run_until_output(&sys, error, 9000);
            assert_eq!(log.to_string(), log2.to_string());
        }
    }

    #[test]
    fn resilient_detection_stays_silent_on_serializable_history() {
        // Retransmission must not manufacture conflicts: a same-partition
        // serializable history never raises `error`, lossy or not.
        let h = History {
            events: vec![
                Event::new("T1", Access::Write, "x", "P0"),
                Event::new("T2", Access::Read, "x", "P0"),
            ],
        };
        for seed in 0..2u64 {
            let plan = cross_partition_loss(seed, 0.5);
            let (found, _) = detect_inconsistency_under_faults(&h, &plan, 250);
            assert!(!found, "false positive under loss, seed {seed}");
        }
    }

    #[test]
    fn total_cross_partition_loss_silences_detection() {
        // Boundary: at loss 1.0 the reconnected link never delivers, so
        // even the resilient protocol cannot learn of the remote writes.
        let h = split_brain();
        let plan = cross_partition_loss(7, 1.0);
        let (found, log) = detect_inconsistency_under_faults(&h, &plan, 400);
        assert!(!found, "detected a conflict across a dead link");
        assert!(log.losses() > 0, "the dead link should have eaten messages");
    }
}

// ---------------------------------------------------------------------
// The replicated store itself: the paper's transaction messages carry a
// return channel and a value (`i₁⟨t₁, type, p₁, req, V⟩`), and the item
// manager "serves the user which was making the request". The conflict
// detection above only needs the first three fields; this section models
// the value service as well, which makes the split-brain observable at
// the *data* level: during the partition, copies of the same item
// diverge.
// ---------------------------------------------------------------------

/// A store copy for item `j` in partition `p`, holding the current
/// value: serves reads with the stored value and lets writes replace it.
///
/// ```text
/// Store⟨j, p, val⟩ ≝ j(t, ty, pt, req, v).
///     (pt = p) ( (ty = wr) req̄⟨ok⟩.Store⟨j, p, v⟩
///              , req̄⟨val⟩.Store⟨j, p, val⟩ )
///   , Store⟨j, p, val⟩
/// ```
pub fn store_copy(j: &str, p: &str, initial: Name) -> P {
    let (_rd, wr) = rw_names();
    let id = Ident::new("StoreCopy");
    let (t, ty, pt, req, v) = (
        Name::intern_raw("kt"),
        Name::intern_raw("kty"),
        Name::intern_raw("kpt"),
        Name::intern_raw("kreq"),
        Name::intern_raw("kv"),
    );
    let j1 = store_chan(j);
    let pn = part_name(p);
    let ok = ok_name();
    let val = val_param();
    let body = inp(
        j1,
        [t, ty, pt, req, v],
        mat(
            pt,
            pn,
            mat(
                ty,
                wr,
                out(req, [ok], var(id, [j1, pn, v])),
                out(req, [val], var(id, [j1, pn, val])),
            ),
            var(id, [j1, pn, val]),
        ),
    );
    rec(id, [j1, pn, val], body, [j1, pn, initial])
}

fn store_chan(j: &str) -> Name {
    Name::intern_raw(&format!("st_{j}"))
}

/// The recursion parameter threading the stored value.
fn val_param() -> Name {
    Name::intern_raw("kval")
}

/// The `ok` acknowledgement tag.
pub fn ok_name() -> Name {
    Name::intern_raw("okv")
}

/// A client transaction against the store: broadcasts the request with a
/// private return channel and republishes the answer on `obs`.
pub fn store_client(j: &str, p: &str, access: Access, value: Name, obs: Name) -> P {
    let (rd, wr) = rw_names();
    let req = Name::intern_raw("creq");
    let ans = Name::intern_raw("cans");
    let t = Name::intern_raw("t_cli");
    let ty = match access {
        Access::Read => rd,
        Access::Write => wr,
    };
    new(
        req,
        par(
            out_(store_chan(j), [t, ty, part_name(p), req, value]),
            inp(req, [ans], out_(obs, [ans])),
        ),
    )
}

#[cfg(test)]
mod store_tests {
    use super::*;
    use bpi_semantics::{explore, ExploreOpts};

    fn observes_value(sys: &P, obs: Name, val: Name) -> bool {
        let defs = Defs::new();
        let g = explore(sys, &defs, ExploreOpts::default());
        assert!(!g.truncated);
        g.edges
            .iter()
            .flatten()
            .any(|(act, _)| act.is_output() && act.subject() == Some(obs) && act.objects() == [val])
    }

    #[test]
    fn reads_return_initial_value() {
        let v0 = Name::intern_raw("v0");
        let obs = Name::intern_raw("obsv");
        let sys = par(
            store_copy("x", "P0", v0),
            store_client("x", "P0", Access::Read, v0, obs),
        );
        assert!(observes_value(&sys, obs, v0));
    }

    #[test]
    fn writes_are_visible_to_later_reads() {
        // Sequential client: write v1, then read — must see v1.
        let [v0, v1] = [Name::intern_raw("v0"), Name::intern_raw("v1")];
        let obs = Name::intern_raw("obsw");
        let req = Name::intern_raw("wreq");
        let ans = Name::intern_raw("wans");
        let (_rd, wr) = rw_names();
        let t = Name::intern_raw("t_w");
        // write then read, sequenced on the private ack.
        let client = new(
            req,
            par(
                out_(store_chan("y"), [t, wr, part_name("P0"), req, v1]),
                inp(req, [ans], store_client("y", "P0", Access::Read, v0, obs)),
            ),
        );
        let sys = par(store_copy("y", "P0", v0), client);
        assert!(observes_value(&sys, obs, v1), "read missed the write");
        assert!(!observes_value(&sys, obs, v0), "stale read");
    }

    #[test]
    fn partitioned_copies_diverge() {
        // Two copies of the same item in different partitions; a write in
        // P0 leaves the P1 copy stale — the split-brain the detection
        // phase later flags.
        let [v0, v1] = [Name::intern_raw("v0"), Name::intern_raw("v1")];
        let obs0 = Name::intern_raw("obsP0");
        let obs1 = Name::intern_raw("obsP1");
        let req = Name::intern_raw("dreq");
        let ans = Name::intern_raw("dans");
        let (_rd, wr) = rw_names();
        let t = Name::intern_raw("t_d");
        let writer_then_readers = new(
            req,
            par(
                out_(store_chan("z"), [t, wr, part_name("P0"), req, v1]),
                inp(
                    req,
                    [ans],
                    par(
                        store_client("z", "P0", Access::Read, v0, obs0),
                        store_client("z", "P1", Access::Read, v0, obs1),
                    ),
                ),
            ),
        );
        let sys = par_of([
            store_copy("z", "P0", v0),
            store_copy("z", "P1", v0),
            writer_then_readers,
        ]);
        assert!(observes_value(&sys, obs0, v1), "P0 must see the write");
        assert!(observes_value(&sys, obs1, v0), "P1 must still be stale");
        assert!(!observes_value(&sys, obs1, v1));
    }
}
