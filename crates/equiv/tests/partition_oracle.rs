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
//!   canonical numbering, same deterministic counter deltas.
//!
//! The metrics registry is process-global and every test here records
//! deterministic counters, so every test serialises on [`LOCK`] — an
//! unserialised test would leak its counters into another's delta.

use bpi_core::builder::*;
use bpi_core::syntax::{Defs, P};
use bpi_equiv::arbitrary::{shuffle, Gen, GenCfg};
use bpi_equiv::{
    partition_safe, partition_to_relation, refine, refine_auto, refine_partition,
    refine_partition_budgeted, refine_partition_resume, shared_pool, Graph, Opts, Partition,
    PartitionCheckpoint, Variant,
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
    let safe = partition_safe(&g1, &g2);
    for v in ALL {
        let want = refine(v, &g1, &g2);
        if safe {
            let part = refine_partition(v, &g1, &g2);
            let got = partition_to_relation(&part);
            assert_eq!(
                got.rel, want.rel,
                "{v:?}: partition diverged from naive on {p} vs {q}"
            );
        }
        let auto = refine_auto(v, &g1, &g2, 1);
        assert_eq!(
            auto.rel, want.rel,
            "{v:?}: refine_auto diverged from naive on {p} vs {q} (safe={safe})"
        );
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(240))]

    // 240 random pairs × 6 variants: full-relation pointwise agreement
    // between the partition refiner, the adaptive dispatch and the
    // naive oracle (the ISSUE acceptance floor).
    #[test]
    fn partition_agrees_with_naive_refine(seed in 0u64..1_000_000) {
        let _g = lock();
        let cfg = GenCfg::finite_monadic(names(["a", "b", "c"]).to_vec());
        let mut gen = Gen::new(cfg, seed);
        let (p, q) = gen.related_pair();
        let (g1, g2) = build_pair(&p, &q);
        prop_assert!(partition_safe(&g1, &g2), "monadic corpus must be safe");
        for v in ALL {
            let naive = refine(v, &g1, &g2);
            let part = refine_partition(v, &g1, &g2);
            let got = partition_to_relation(&part);
            prop_assert_eq!(
                &naive.rel, &got.rel,
                "{:?} diverged on {} vs {}", v, p, q
            );
        }
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
