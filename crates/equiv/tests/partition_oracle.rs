//! Differential tests for the partition-refinement engine (ISSUE 7),
//! mirroring `worklist_oracle.rs`: the pairwise engines are retained as
//! the oracle exactly as naive-vs-worklist was for PR 2.
//!
//! * `partition_to_relation(refine_partition(v, g1, g2))` must equal the
//!   naive global-sweep fixpoint [`refine`] **pointwise**, for all six
//!   variants — the partition's blocks are exactly the equivalence
//!   classes of the greatest bisimulation over the union graph;
//! * [`refine_auto`] (the dispatch every caller goes through) must agree
//!   with the oracle whether it lands on the partition refiner or falls
//!   back to the worklist on partition-unsafe products (mixed input
//!   arities, where the pairwise relation is not even transitive);
//! * interrupting the budgeted partition engine at **every** feasible
//!   round boundary and resuming through the serialised
//!   `bpi-partition-checkpoint/v1` codec is invisible: same blocks, same
//!   canonical numbering, same deterministic counter deltas;
//! * on partition-safe products, each weak variant's relation between
//!   the branching quotients, read through the quotient maps, is the
//!   naive relation between the graphs pair for pair, and each graph's
//!   branching partition is finer than its self-partition for the
//!   variant: the pre-quotient `Checker::check` runs weak checks over;
//! * a silent blocker (a state listening on a channel at arities its
//!   siblings refuse, so it neither hears nor discards it) stays apart
//!   from a state that discards the channel on every path a check takes,
//!   and the whole differential holds on polyadic pairs.
//!
//! The metrics registry is process-global and every test here records
//! deterministic counters, so every test serialises on [`LOCK`] — an
//! unserialised test would leak its counters into another's delta.

use bpi_core::builder::*;
use bpi_core::syntax::{Defs, P};
use bpi_equiv::arbitrary::{shuffle, Gen, GenCfg};
use bpi_equiv::{
    partition_safe, partition_to_relation, quotient_branching, refine, refine_auto,
    refine_branching_self, refine_partition, refine_partition_budgeted, refine_partition_resume,
    refine_partition_self, shared_pool, Checker, Graph, Opts, Partition, PartitionCheckpoint,
    SliceOutcome, Variant,
};
use bpi_obs::CounterDelta;
use bpi_semantics::{Budget, CheckpointCfg, EngineError};
use proptest::prelude::*;
use rand::SeedableRng;
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const ALL: [Variant; 6] = [
    Variant::StrongBarbed,
    Variant::StrongStep,
    Variant::StrongLabelled,
    Variant::WeakBarbed,
    Variant::WeakStep,
    Variant::WeakLabelled,
];

/// Upper bound on the fuel sweep — generously above any round count the
/// small pairs can have, so a non-terminating sweep fails loudly.
const FUEL_CAP: usize = 512;

fn build_pair(p: &P, q: &P) -> (Graph, Graph) {
    let defs = Defs::new();
    let opts = Opts::default();
    let pool = shared_pool(p, q, opts.fresh_inputs);
    let g1 = Graph::build(p, &defs, &pool, opts).expect("finite test term");
    let g2 = Graph::build(q, &defs, &pool, opts).expect("finite test term");
    (g1, g2)
}

/// The core differential: the partition refiner (when the product is
/// partition-safe) and the adaptive dispatch (always) agree with the
/// naive oracle pointwise, for every variant.
fn assert_partition_matches_oracle(p: &P, q: &P) {
    let (g1, g2) = build_pair(p, q);
    assert_graphs_match_oracle(&g1, &g2, p, q);
}

/// [`assert_partition_matches_oracle`] over graphs already built.
fn assert_graphs_match_oracle(g1: &Graph, g2: &Graph, p: &P, q: &P) {
    let safe = partition_safe(g1, g2);
    for v in ALL {
        let want = refine(v, g1, g2);
        if safe {
            let part = refine_partition(v, g1, g2);
            let got = partition_to_relation(&part);
            assert_eq!(
                got.rel, want.rel,
                "{v:?}: partition diverged from naive on {p} vs {q}"
            );
        }
        let auto = refine_auto(v, g1, g2, 1);
        assert_eq!(
            auto.rel, want.rel,
            "{v:?}: refine_auto diverged from naive on {p} vs {q} (safe={safe})"
        );
        if safe && v.is_weak() {
            assert_prequotient_matches_oracle(v, g1, g2, &want.rel, p, q);
        }
    }
}

/// The pre-quotient differential for weak variant `v` on a
/// partition-safe product whose naive relation is `want`: the naive
/// relation between the two branching quotients, read through the
/// quotient maps, is `want` pair for pair, and each graph's branching
/// partition is finer than its `v` self-partition.
fn assert_prequotient_matches_oracle(
    v: Variant,
    g1: &Graph,
    g2: &Graph,
    want: &[Vec<bool>],
    p: &P,
    q: &P,
) {
    let (b1, b2) = (refine_branching_self(g1), refine_branching_self(g2));
    let (q1, q2) = (quotient_branching(g1), quotient_branching(g2));
    assert_eq!((q1.len(), q2.len()), (b1.num_blocks, b2.num_blocks));
    let got = refine(v, &q1, &q2);
    for (i, row) in want.iter().enumerate() {
        for (j, &related) in row.iter().enumerate() {
            let (bi, bj) = (b1.blocks[i] as usize, b2.blocks[j] as usize);
            assert_eq!(
                got.holds(bi, bj),
                related,
                "{v:?}: quotient pair ({bi}, {bj}) disagrees with naive ({i}, {j}) on {p} vs {q}"
            );
        }
    }
    for (g, branching) in [(g1, &b1), (g2, &b2)] {
        let coarse = refine_partition_self(v, g);
        let mut image = vec![None; branching.num_blocks];
        for (u, &b) in branching.blocks.iter().enumerate() {
            let to = *image[b as usize].get_or_insert(coarse.blocks[u]);
            assert_eq!(
                to, coarse.blocks[u],
                "{v:?}: branching block {b} straddles two {v:?} blocks on {p} vs {q}"
            );
        }
    }
}

/// The seed-891 blocks (`a<c> + a(g1)`-style same-channel summands, the
/// shape that trips input-set bugs), paired every way — shared with the
/// ε-engine oracle.
#[test]
fn partition_matches_oracle_on_seed_891_blocks() {
    let _g = lock();
    let ns = names(["a", "b", "c"]).to_vec();
    let mut cfg = GenCfg::sequential(ns);
    cfg.max_depth = 2;
    let mut g = Gen::new(cfg, 891);
    let ps = [g.process(), g.process(), g.process()];
    for p in &ps {
        for q in &ps {
            assert_partition_matches_oracle(p, q);
        }
    }
}

/// The seed-1624 pair: a double-τ-guarded input against its own shuffle
/// — the reflexive pair where weak saturation and discard handling
/// historically disagreed across variants.
#[test]
fn partition_matches_oracle_on_seed_1624_shuffle() {
    let _g = lock();
    let seed = 1624u64;
    let cfg = GenCfg::finite_monadic(names(["a", "b"]).to_vec());
    let mut g = Gen::new(cfg, seed);
    let p = g.process();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5151);
    let q = shuffle(&p, &mut rng);
    assert_partition_matches_oracle(&p, &q);
}

/// The seed-45352 and seed-9724 parser-corner terms (`|`-under-`+`,
/// polyadic inputs guarding multi-binder restrictions). Polyadic
/// generation mixes input arities, so these pairs exercise the
/// partition-unsafe fallback path of `refine_auto` as well.
#[test]
fn partition_matches_oracle_on_parser_corpus_seeds() {
    let _g = lock();
    let cfg = GenCfg {
        names: names(["a", "b", "c"]).to_vec(),
        max_depth: 4,
        allow_restriction: true,
        allow_match: true,
        allow_par: true,
        max_arity: 3,
    };
    let p = Gen::new(cfg.clone(), 45352).process();
    let q = Gen::new(cfg, 9724).process();
    assert_partition_matches_oracle(&p, &q);
    assert_partition_matches_oracle(&p, &p);
    assert_partition_matches_oracle(&q, &q);
}

/// A pool with no fresh input name lets a state listen on every
/// channel, so it has no discard loop that could name its block. Then a
/// τ step into such a state is observed only as `(τ, block)`: a refiner
/// that took every τ step as inert would merge `τ.A + X` with `A + X`,
/// where `A` and `X` listen on both channels, though `A + X` cannot
/// silently become `A`.
#[test]
fn prequotient_matches_oracle_on_a_listener_witness() {
    let _g = lock();
    let [a, b, x] = names(["a", "b", "x"]);
    let listen_a = sum(inp(a, [x], out_(a, [])), inp_(b, [x]));
    let listen_b = sum(inp(b, [x], out_(b, [])), inp_(a, [x]));
    let committed = sum(tau(listen_a.clone()), listen_b.clone());
    let open = sum(listen_a, listen_b);
    let p = sum(tau(committed.clone()), tau(open));
    let q = tau(committed);
    let defs = Defs::new();
    let opts = Opts {
        fresh_inputs: 0,
        ..Opts::default()
    };
    let pool = shared_pool(&p, &q, opts.fresh_inputs);
    let g1 = Graph::build(&p, &defs, &pool, opts).expect("finite test term");
    let g2 = Graph::build(&q, &defs, &pool, opts).expect("finite test term");
    assert!(partition_safe(&g1, &g2));
    assert_graphs_match_oracle(&g1, &g2, &p, &q);
    assert_eq!(refine_branching_self(&g1).num_blocks, g1.len());
}

/// The daemon's slice fuel (`bpi_server::SchedCfg::default().fuel`).
const DAEMON_FUEL: usize = 2_048;

/// A silent blocker: `a(x).0 | a(x,y).0` listens on `a` at arities 1
/// and 2 and each side refuses the other's arity, so it neither
/// receives on `a` nor discards it, and no input label names `a`.
/// `τ⁴⁰.0` discards `a` in every state, which the labelled variants
/// observe as an `a(b̃)?` self-loop the blocker cannot answer. The
/// 41 × 41 product is above the naive cutover, so the partition refiner
/// decides it on every path: `refine_auto`, `Checker::check`, and
/// `run_slice` at the daemon's fuel, sliced as a served check is.
#[test]
fn partition_matches_oracle_on_a_silent_blocker() {
    let _g = lock();
    let [a, x, y] = names(["a", "x", "y"]);
    let ladder = |end: P| (0..40).fold(end, |p, _| tau(p));
    let p = ladder(par(inp_(a, [x]), inp_(a, [x, y])));
    let q = ladder(nil());
    let (g1, g2) = build_pair(&p, &q);
    assert!(partition_safe(&g1, &g2) && g1.len() * g2.len() > 1024);
    assert_graphs_match_oracle(&g1, &g2, &p, &q);
    let defs = Defs::new();
    let checker = Checker::new(&defs);
    for v in ALL {
        let want = refine(v, &g1, &g2).holds(0, 0);
        assert_eq!(
            checker.check(v, &p, &q).holds(),
            want,
            "{v:?}: Checker::check diverged from naive on {p} vs {q}"
        );
        let mut parked = None;
        let served = loop {
            match checker.run_slice(v, &p, &q, parked.take(), DAEMON_FUEL) {
                Ok(SliceOutcome::Done { holds, .. }) => break holds,
                Ok(SliceOutcome::Parked(ck)) => parked = Some(*ck),
                Err(i) => panic!("{v:?}: run_slice stopped: {}", i.error),
            }
        };
        assert_eq!(
            served, want,
            "{v:?}: run_slice diverged from naive on {p} vs {q}"
        );
    }
    assert!(!refine(Variant::StrongLabelled, &g1, &g2).holds(0, 0));
}

/// Polyadic related pairs with a silent blocker beside a discarder, on
/// which the labelled signatures without a pseudo-label merged the two
/// (seed 10047: `b(g1,g2).(0 + 0 | 0) | b(g3)` against `0`). Random
/// polyadic generation reaches such a pair about once per 1,300
/// partition-safe products, too seldom for the property below to be
/// sure of one, so these seeds are kept here, paired every way.
#[test]
fn partition_matches_oracle_on_polyadic_blocker_seeds() {
    let _g = lock();
    for seed in [1252u64, 2127, 10047] {
        let (p, q) = Gen::new(polyadic(), seed).related_pair();
        assert_partition_matches_oracle(&p, &q);
        assert_partition_matches_oracle(&q, &p);
        assert_partition_matches_oracle(&p, &p);
    }
}

/// Polyadic terms over three channels, with restriction and match.
fn polyadic() -> GenCfg {
    GenCfg {
        max_arity: 2,
        ..GenCfg::finite_monadic(names(["a", "b", "c"]).to_vec())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(240))]

    // 240 random pairs × 6 variants: full-relation pointwise agreement
    // between the partition refiner, the adaptive dispatch, the weak
    // variants' branching pre-quotient and the naive oracle.
    #[test]
    fn partition_agrees_with_naive_refine(seed in 0u64..1_000_000) {
        let _g = lock();
        let cfg = GenCfg::finite_monadic(names(["a", "b", "c"]).to_vec());
        let mut gen = Gen::new(cfg, seed);
        let (p, q) = gen.related_pair();
        let (g1, g2) = build_pair(&p, &q);
        prop_assert!(partition_safe(&g1, &g2), "monadic corpus must be safe");
        assert_partition_matches_oracle(&p, &q);
    }

    // The same differential over polyadic pairs: parallel listeners at
    // two arities on one channel make silent blockers next to states
    // that discard the channel, and mixed arities across the pair make
    // products that are not partition-safe.
    #[test]
    fn partition_agrees_with_naive_refine_polyadic(seed in 0u64..1_000_000) {
        let _g = lock();
        let (p, q) = Gen::new(polyadic(), seed).related_pair();
        assert_partition_matches_oracle(&p, &q);
    }
}

/// Runs `f` and returns the deterministic-counter delta it produced.
fn det_delta(f: impl FnOnce()) -> CounterDelta {
    let before = bpi_obs::snapshot();
    f();
    bpi_obs::snapshot().deterministic_delta(&before)
}

/// Runs the budgeted partition engine under `fuel`, resuming once
/// through the serialised checkpoint if interrupted. The codec
/// round-trip is deliberate: it proves the resume would also work in a
/// fresh process.
fn run_and_resume(v: Variant, g1: &Graph, g2: &Graph, fuel: usize) -> (Partition, bool) {
    let budget = Budget::unlimited();
    match refine_partition_budgeted(v, g1, g2, &budget, &CheckpointCfg::fuelled(fuel)) {
        Ok(part) => (part, false),
        Err(i) => {
            assert_eq!(i.error, EngineError::Cancelled, "fuel stops are Cancelled");
            let ck = PartitionCheckpoint::from_text(&i.checkpoint.to_text())
                .unwrap_or_else(|e| panic!("partition checkpoint codec round-trip failed: {e}"));
            let part = refine_partition_resume(v, g1, g2, &budget, &CheckpointCfg::default(), ck)
                .unwrap_or_else(|i| panic!("unlimited resume interrupted: {}", i.error));
            (part, true)
        }
    }
}

/// Structurally distinct pairs covering output, input, sum, parallel,
/// restriction and τ-stuttering (shared shape with the resume suite).
fn structured_pairs() -> Vec<(P, P)> {
    let [a, b, c, x] = names(["a", "b", "c", "x"]);
    vec![
        (out(a, [b], nil()), out(a, [c], nil())),
        (
            sum(inp(a, [x], out_(x, [])), tau(out_(b, []))),
            tau(out_(b, [])),
        ),
        (
            par(out_(a, [b]), inp(a, [x], out_(x, []))),
            out(a, [b], out_(b, [])),
        ),
        (new(x, out(a, [x], out_(x, []))), out_(a, [])),
        (tau(tau(out_(a, []))), tau(out_(a, []))),
    ]
}

/// Interrupting at **every** feasible round boundary (fuel = 1, 2, …
/// until the run completes) and resuming from the serialised checkpoint
/// yields the bit-for-bit identical partition — same blocks, same
/// canonical numbering — and the same deterministic counter deltas
/// (`equiv.partition.blocks`/`.splits`/`.rounds` are result-derived, so
/// a resumed run must reproduce them exactly).
#[test]
fn interrupt_at_every_boundary_and_resume_is_bit_for_bit() {
    let _g = lock();
    for (p, q) in structured_pairs() {
        let (g1, g2) = build_pair(&p, &q);
        assert!(partition_safe(&g1, &g2));
        for v in ALL {
            let mut reference = None;
            let ref_delta = det_delta(|| reference = Some(refine_partition(v, &g1, &g2)));
            let reference = reference.unwrap();
            let mut completed = false;
            for fuel in 1..FUEL_CAP {
                let mut outcome = None;
                let delta = det_delta(|| outcome = Some(run_and_resume(v, &g1, &g2, fuel)));
                let (got, interrupted) = outcome.unwrap();
                assert_eq!(
                    got, reference,
                    "fuel={fuel} {v:?}: resumed partition diverged on {p} vs {q}"
                );
                assert_eq!(
                    delta, ref_delta,
                    "fuel={fuel} {v:?}: deterministic counters diverged on {p} vs {q}"
                );
                if !interrupted {
                    completed = true;
                    break;
                }
            }
            assert!(
                completed,
                "{v:?} on {p} vs {q} never completed within {FUEL_CAP} fuel"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The resume differential as a property over seeded random pairs:
    /// every feasible interruption point, bit-for-bit partitions and
    /// deterministic counter deltas.
    #[test]
    fn prop_partition_resume_is_invisible(seed in 0u64..1_000_000) {
        let _g = lock();
        let cfg = GenCfg::finite_monadic(names(["a", "b"]).to_vec());
        let (p, q) = Gen::new(cfg, seed).related_pair();
        let (g1, g2) = build_pair(&p, &q);
        prop_assert!(partition_safe(&g1, &g2));
        let v = ALL[(seed % 6) as usize];
        let mut reference = None;
        let ref_delta = det_delta(|| reference = Some(refine_partition(v, &g1, &g2)));
        let reference = reference.unwrap();
        let mut completed = false;
        for fuel in 1..FUEL_CAP {
            let mut outcome = None;
            let delta = det_delta(|| outcome = Some(run_and_resume(v, &g1, &g2, fuel)));
            let (got, interrupted) = outcome.unwrap();
            prop_assert_eq!(
                &got, &reference,
                "seed={} fuel={} {:?}: resumed partition diverged", seed, fuel, v
            );
            prop_assert_eq!(
                &delta, &ref_delta,
                "seed={} fuel={} {:?}: deterministic counters diverged", seed, fuel, v
            );
            if !interrupted {
                completed = true;
                break;
            }
        }
        prop_assert!(completed, "seed={} never completed within {} fuel", seed, FUEL_CAP);
    }
}
