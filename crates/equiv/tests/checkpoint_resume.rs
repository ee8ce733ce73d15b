//! Differential tests for PR 5's checkpoint/resume + self-chaos layer.
//!
//! The contract locked down here, building on PR 4's deterministic-vs-
//! advisory metric split:
//!
//! * **Resume is invisible.** Interrupting a checkpointed pipeline at
//!   *any* feasible boundary (every committed state, every refinement
//!   round — driven by the cooperative fuel countdown) and resuming from
//!   the serialised checkpoint yields the same fixpoint relation and the
//!   same deterministic `bpi-obs` counter deltas as the uninterrupted
//!   run, across all six variants and threads 1/2/4, including for
//!   processes wrapped in the fault combinators — and above the
//!   naive cutover, where the refine phase parks inside the partition
//!   refiner or the pairwise round engine.
//! * **One dispatch.** A check sliced by [`Checker::run_slice`] refines
//!   on the engine [`refine_auto`] picks, so both leave the same
//!   relation and the same deterministic refinement counters.
//! * **Chaos is invisible too.** A seeded [`ChaosPlan`] perturbs
//!   scheduling and injects recoverable faults, but verdicts and
//!   deterministic counters match a quiet run, and the injection log
//!   replays bit-identically for the same seed on a single-threaded
//!   workload.
//!
//! The metrics registry and the chaos plan are process-global, so every
//! test serialises on [`LOCK`].

use bpi_core::builder::*;
use bpi_core::name::Name;
use bpi_core::syntax::{Defs, P};
use bpi_equiv::arbitrary::{Gen, GenCfg};
use bpi_equiv::{
    refine_auto, refine_worklist, shared_pool, Checker, Checkpoint, Graph, Opts, SliceOutcome,
    Variant,
};
use bpi_obs::CounterDelta;
use bpi_semantics::chaos::{self, ChaosPlan};
use bpi_semantics::{deafen, noise, Budget, CheckpointCfg, EngineError};
use proptest::prelude::*;
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

/// The thread counts the CI matrix exercises via `BPI_THREADS`.
const THREADS: [usize; 3] = [1, 2, 4];

/// Upper bound on the fuel sweep — generously above any boundary count
/// the small pairs can have, so a non-terminating sweep fails loudly.
const FUEL_CAP: usize = 512;

/// Six structurally distinct process pairs covering output, input, sum,
/// parallel, restriction and matching (shared with the metrics oracle).
fn variants() -> Vec<(P, P)> {
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
        (
            mat(a, b, out_(a, []), out_(b, [])),
            mat(a, c, out_(a, []), out_(c, [])),
        ),
        (tau(tau(out_(a, []))), tau(out_(a, []))),
    ]
}

/// A chain of `n` output prefixes: an `n + 1`-state deterministic graph.
/// Two of these give a product well above the naive cutover.
fn chain(n: usize, a: Name, b: Name) -> P {
    (0..n).fold(nil(), |p, _| out(a, [b], p))
}

/// `k` τ-prefixes in front of `end`.
fn ladder(k: usize, end: P) -> P {
    (0..k).fold(end, |p, _| tau(p))
}

/// Pairs whose products lie above the naive cutover, one per refining
/// engine: a 41-state τ-ladder against the same ladder ending in a
/// duplicated output (partition-safe, so the partition refiner runs),
/// and a τ-ladder beside a monadic listener against one beside a
/// dyadic listener on the same channel (mixed input arities, so the
/// pairwise round engine runs).
fn above_cutover_pairs() -> Vec<(P, P)> {
    let [a, b, c, x, y] = names(["a", "b", "c", "x", "y"]);
    vec![
        (
            ladder(39, out_(a, [])),
            ladder(39, sum(out_(a, []), out_(a, []))),
        ),
        (
            par(ladder(5, nil()), inp(a, [x], out_(b, [x]))),
            par(ladder(5, nil()), inp(a, [x, y], out_(c, [y]))),
        ),
    ]
}

/// The products of `p` and `q` over their shared pool, unmemoized.
fn build_pair(p: &P, q: &P, d: &Defs) -> (Graph, Graph) {
    let opts = Opts::default();
    let pool = shared_pool(p, q, opts.fresh_inputs);
    let g1 = Graph::build(p, d, &pool, opts).expect("finite");
    let g2 = Graph::build(q, d, &pool, opts).expect("finite");
    (g1, g2)
}

/// Runs `f` and returns the deterministic-counter delta it produced.
fn det_delta(f: impl FnOnce()) -> CounterDelta {
    let before = bpi_obs::snapshot();
    f();
    bpi_obs::snapshot().deterministic_delta(&before)
}

/// Runs the checkpointed pipeline under `cfg`, resuming once through the
/// serialised checkpoint if interrupted, and returns the final relation
/// plus the phase of the interruption, if one happened. The codec
/// round-trip is deliberate: it proves the resume would also work in a
/// fresh process.
fn run_and_resume(
    c: &Checker,
    v: Variant,
    p: &P,
    q: &P,
    cfg: &CheckpointCfg<Checkpoint>,
) -> (Vec<Vec<bool>>, Option<&'static str>) {
    match c.run_with_checkpoint(v, p, q, cfg) {
        Ok((_, _, rel)) => (rel.rel, None),
        Err(i) => {
            assert_eq!(i.error, EngineError::Cancelled, "fuel stops are Cancelled");
            let phase = i.checkpoint.phase();
            let ck = Checkpoint::from_text(&i.checkpoint.to_text())
                .unwrap_or_else(|e| panic!("checkpoint codec round-trip failed: {e}"));
            let (_, _, rel) = c
                .resume_from(v, ck, &CheckpointCfg::default())
                .unwrap_or_else(|i| panic!("unlimited resume interrupted: {}", i.error));
            (rel.rel, Some(phase))
        }
    }
}

/// Whether `BPI_ENGINE` forces the naive sweep, which refines in one
/// unbudgeted pass and so never parks inside the refine phase.
fn naive_forced() -> bool {
    std::env::var("BPI_ENGINE").is_ok_and(|e| e.trim().eq_ignore_ascii_case("naive"))
}

/// The tentpole differential, exhaustively on small structured pairs
/// and on pairs above the naive cutover: interrupting at **every**
/// feasible pipeline boundary (fuel = 1, 2, … until the run completes)
/// and resuming from the serialised checkpoint yields the same relation
/// and the same deterministic counter delta as the straight run, for
/// all six variants at threads 1/2/4. Above the cutover the refine phase
/// is budgeted too, and the sweep must land inside it: the
/// partition-safe pair parks inside the partition refiner, the
/// mixed-arity pair inside the pairwise round engine (its only coverage
/// past the cutover — no benchmark workload reaches that engine).
#[test]
fn interrupt_at_every_boundary_and_resume_matches_straight_run() {
    let _g = lock();
    let d = Defs::new();
    for (p, q) in variants().into_iter().chain(above_cutover_pairs()) {
        let (g1, g2) = build_pair(&p, &q, &d);
        let above_cutover = g1.len() * g2.len() > 1024;
        for v in ALL {
            let c = Checker::new(&d);
            let mut reference = None;
            let ref_delta = det_delta(|| {
                let (_, _, rel) = c
                    .run_with_checkpoint(v, &p, &q, &CheckpointCfg::default())
                    .unwrap_or_else(|i| panic!("inert cfg interrupted: {}", i.error));
                reference = Some(rel.rel);
            });
            let reference = reference.unwrap();
            assert_eq!(ref_delta.get("equiv.refine.runs"), Some(&1));
            for threads in THREADS {
                let ct = Checker::new(&d).with_threads(threads);
                let mut refine_parks = 0;
                let mut completed = false;
                for fuel in 1..FUEL_CAP {
                    let mut outcome = None;
                    let delta = det_delta(|| {
                        outcome = Some(run_and_resume(
                            &ct,
                            v,
                            &p,
                            &q,
                            &CheckpointCfg::fuelled(fuel),
                        ));
                    });
                    let (got, phase) = outcome.unwrap();
                    assert_eq!(
                        got, reference,
                        "fuel={fuel} threads={threads} {v:?} changed the fixpoint on {p} vs {q}"
                    );
                    assert_eq!(
                        delta, ref_delta,
                        "fuel={fuel} threads={threads} {v:?} perturbed deterministic \
                         counters on {p} vs {q}"
                    );
                    match phase {
                        Some("refine") => refine_parks += 1,
                        Some(_) => {}
                        None => {
                            completed = true;
                            break;
                        }
                    }
                }
                assert!(
                    completed,
                    "{v:?} on {p} vs {q} never completed within {FUEL_CAP} fuel"
                );
                assert!(
                    !above_cutover || refine_parks > 0 || naive_forced(),
                    "{v:?} on {p} vs {q} never parked inside refinement"
                );
            }
        }
    }
}

/// The deterministic refinement counters of a run: the keys every
/// refining engine and the partition refiner record on completion.
fn refinement_counters(delta: CounterDelta) -> CounterDelta {
    delta
        .into_iter()
        .filter(|(k, _)| k.starts_with("equiv.refine.") || k.starts_with("equiv.partition."))
        .collect()
}

/// One dispatch for in-process and served checks: a check chopped into
/// [`Checker::run_slice`] slices of small fuel, parked checkpoints
/// round-tripped through the text codec between slices as the daemon's
/// journal does, refines on the engine [`refine_auto`] picks — the
/// partition refiner on a partition-safe product above the cutover, the
/// pairwise round engine on a mixed-arity one, the naive sweep below
/// the cutover — so both leave the same relation, verdict and
/// deterministic `equiv.refine.*` / `equiv.partition.*` deltas.
#[test]
fn run_slice_refines_on_the_engine_refine_auto_picks() {
    let _g = lock();
    let d = Defs::new();
    let c = Checker::new(&d);
    let [a] = names(["a"]);
    let mut pairs = above_cutover_pairs();
    pairs.push((ladder(3, out_(a, [])), ladder(4, out_(a, []))));
    for (p, q) in pairs {
        let (g1, g2) = build_pair(&p, &q, &d);
        for v in ALL {
            let mut want = None;
            let want_delta = refinement_counters(det_delta(|| {
                want = Some(refine_auto(v, &g1, &g2, 1));
            }));
            let want = want.unwrap();
            assert!(
                want_delta.contains_key("equiv.refine.pairs"),
                "refine_auto left no trace on {p} vs {q}"
            );

            let mut holds = None;
            let mut slices = 0usize;
            let delta = refinement_counters(det_delta(|| {
                let mut parked: Option<Checkpoint> = None;
                holds = loop {
                    slices += 1;
                    match c
                        .run_slice(v, &p, &q, parked.take(), 7)
                        .expect("no budget set")
                    {
                        SliceOutcome::Done { holds, .. } => break Some(holds),
                        SliceOutcome::Parked(ck) => {
                            parked = Some(Checkpoint::from_text(&ck.to_text()).expect("codec"));
                        }
                    }
                };
            }));
            assert!(slices > 1, "fuel 7 must park {p} vs {q} at least once");
            assert_eq!(holds, Some(want.holds(0, 0)), "{v:?} verdict on {p} vs {q}");
            assert_eq!(
                delta, want_delta,
                "{v:?}: run_slice and refine_auto refined {p} vs {q} differently"
            );

            // The relation itself, through the same fuelled pipeline.
            let mut r = c.run_with_checkpoint(v, &p, &q, &CheckpointCfg::fuelled(7));
            let rel = loop {
                match r {
                    Ok((_, _, rel)) => break rel,
                    Err(i) => {
                        let ck = Checkpoint::from_text(&i.checkpoint.to_text()).expect("codec");
                        r = c.resume_from(v, ck, &CheckpointCfg::fuelled(7));
                    }
                }
            };
            assert_eq!(rel.rel, want.rel, "{v:?}: sliced relation on {p} vs {q}");
        }
    }
}

/// The acceptance-scale differential: 200 seeded random pairs × all six
/// variants × threads 1/2/4, each interrupted once at a varying boundary
/// and resumed through the text codec. Verdict and deterministic
/// counters must match the straight run in every case.
#[test]
fn random_pairs_resume_differential_200x6x3() {
    let _g = lock();
    let d = Defs::new();
    let cfg = GenCfg::finite_monadic(names(["a", "b"]).to_vec());
    let mut gen = Gen::new(cfg, 0x5EED_C0DE);
    for i in 0..200usize {
        let (p, q) = gen.related_pair();
        for (vi, v) in ALL.into_iter().enumerate() {
            let c = Checker::new(&d);
            let mut reference = None;
            let ref_delta = det_delta(|| {
                let (_, _, rel) = c
                    .run_with_checkpoint(v, &p, &q, &CheckpointCfg::default())
                    .unwrap_or_else(|e| panic!("inert cfg interrupted: {}", e.error));
                reference = Some(rel.rel);
            });
            let reference = reference.unwrap();
            // Vary the interruption point across cases so the suite as a
            // whole lands on build-left, build-right and refine
            // boundaries.
            let fuel = 1 + (i + vi) % 9;
            for threads in THREADS {
                let ct = Checker::new(&d).with_threads(threads);
                let mut got = None;
                let delta = det_delta(|| {
                    got = Some(run_and_resume(&ct, v, &p, &q, &CheckpointCfg::fuelled(fuel)).0);
                });
                assert_eq!(
                    got.as_ref(),
                    Some(&reference),
                    "pair #{i} {v:?} threads={threads} fuel={fuel}: resumed fixpoint \
                     diverged on {p} vs {q}"
                );
                assert_eq!(
                    delta, ref_delta,
                    "pair #{i} {v:?} threads={threads} fuel={fuel}: deterministic \
                     counters diverged on {p} vs {q}"
                );
            }
        }
    }
}

/// The resume differential holds for systems wrapped in PR 1's fault
/// combinators too: a noisy listener in parallel, and deafened inputs.
#[test]
fn resume_differential_under_fault_combinators() {
    let _g = lock();
    let d = Defs::new();
    let [a] = names(["a"]);
    let mut faulty: Vec<(P, P)> = Vec::new();
    for (p, q) in variants() {
        faulty.push((par(p.clone(), noise(a, 1)), par(q.clone(), noise(a, 1))));
        faulty.push((deafen(&p, a), deafen(&q, a)));
    }
    for (fi, (p, q)) in faulty.iter().enumerate() {
        for (vi, v) in ALL.into_iter().enumerate() {
            let c = Checker::new(&d);
            let mut reference = None;
            let ref_delta = det_delta(|| {
                let (_, _, rel) = c
                    .run_with_checkpoint(v, p, q, &CheckpointCfg::default())
                    .unwrap_or_else(|e| panic!("inert cfg interrupted: {}", e.error));
                reference = Some(rel.rel);
            });
            let reference = reference.unwrap();
            let fuel = 1 + (fi + vi) % 7;
            let threads = THREADS[(fi + vi) % THREADS.len()];
            let ct = Checker::new(&d).with_threads(threads);
            let mut got = None;
            let delta = det_delta(|| {
                got = Some(run_and_resume(&ct, v, p, q, &CheckpointCfg::fuelled(fuel)).0);
            });
            assert_eq!(
                got.as_ref(),
                Some(&reference),
                "faulty pair #{fi} {v:?}: resumed fixpoint diverged on {p} vs {q}"
            );
            assert_eq!(
                delta, ref_delta,
                "faulty pair #{fi} {v:?}: deterministic counters diverged on {p} vs {q}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Satellite 3 as a property: for seeded random pairs (optionally
    /// fault-instrumented with PR 1's combinators), interrupting at
    /// *every* feasible state/round boundary and resuming is invisible —
    /// same fixpoint, same deterministic counter deltas — at threads
    /// 1, 2 and 4.
    #[test]
    fn prop_interrupt_anywhere_resume_is_invisible(seed in 0u64..1_000_000) {
        let _g = lock();
        let d = Defs::new();
        let [a, b] = names(["a", "b"]);
        let cfg = GenCfg::finite_monadic(vec![a, b]);
        let (mut p, mut q) = Gen::new(cfg, seed).related_pair();
        // A third of the cases run fault-instrumented systems.
        match seed % 3 {
            1 => {
                p = par(p, noise(a, 1));
                q = par(q, noise(a, 1));
            }
            2 => {
                p = deafen(&p, a);
                q = deafen(&q, a);
            }
            _ => {}
        }
        let v = ALL[(seed % 6) as usize];
        let c = Checker::new(&d);
        let mut reference = None;
        let ref_delta = det_delta(|| {
            let (_, _, rel) = c
                .run_with_checkpoint(v, &p, &q, &CheckpointCfg::default())
                .unwrap_or_else(|e| panic!("inert cfg interrupted: {}", e.error));
            reference = Some(rel.rel);
        });
        let reference = reference.unwrap();
        for threads in THREADS {
            let ct = Checker::new(&d).with_threads(threads);
            let mut completed = false;
            for fuel in 1..FUEL_CAP {
                let mut outcome = None;
                let delta = det_delta(|| {
                    outcome = Some(run_and_resume(&ct, v, &p, &q, &CheckpointCfg::fuelled(fuel)));
                });
                let (got, phase) = outcome.unwrap();
                prop_assert_eq!(
                    &got, &reference,
                    "seed={} fuel={} threads={} {:?}: fixpoint diverged",
                    seed, fuel, threads, v
                );
                prop_assert_eq!(
                    &delta, &ref_delta,
                    "seed={} fuel={} threads={} {:?}: deterministic counters diverged",
                    seed, fuel, threads, v
                );
                if phase.is_none() {
                    completed = true;
                    break;
                }
            }
            prop_assert!(completed, "seed={} never completed within {} fuel", seed, FUEL_CAP);
        }
    }
}

/// The supervisor turns repeated injected faults into a verdict: with
/// chaos injecting budget pressure (bounded) into the builds and the
/// partition refiner of a product above the cutover,
/// `check_supervised` resumes from checkpoints until the injection
/// budget runs dry and still answers `Holds` — the analysis never
/// aborts and never answers wrongly. (Panic isolation itself is pinned
/// by `supervise`'s own `raw_panic_is_isolated_and_resumes_from_the_slot`.)
#[test]
fn supervised_check_absorbs_injected_budget_pressure() {
    let _g = lock();
    let d = Defs::new();
    let [a, b] = names(["a", "b"]);
    let p = chain(45, a, b);
    chaos::clear();
    chaos::install(
        ChaosPlan::new(7)
            .panic_prob(0.0)
            .delay_prob(0.0)
            .pressure_prob(1.0)
            .max_injections(6),
    );
    let c = Checker::new(&d).with_threads(4);
    let verdict = c.check_supervised(Variant::StrongBarbed, &p, &p, 8);
    let log = chaos::clear();
    assert!(log.pressures() >= 1, "chaos never fired: {log:?}");
    assert!(
        verdict.holds(),
        "a reflexive pair must still hold under injected pressure: {verdict:?}"
    );
}

/// The congruence sweep's fan-out recovers from poisoned workers on its
/// sequential path — same verdict as the single-threaded sweep, no
/// abort.
#[test]
fn congruence_sweep_recovers_from_poisoned_workers() {
    let _g = lock();
    let d = Defs::new();
    let [x, y, c] = names(["x", "y", "c"]);
    let p = mat_(x, y, out_(c, []));
    let q = nil();
    chaos::clear();
    let want = bpi_equiv::try_congruent_strong_threads(&p, &q, &d, Opts::default(), 1)
        .expect("sequential sweep");
    chaos::install(
        ChaosPlan::new(5)
            .panic_prob(1.0)
            .delay_prob(0.0)
            .pressure_prob(0.0)
            .max_injections(8),
    );
    let got = bpi_equiv::try_congruent_strong_threads(&p, &q, &d, Opts::default(), 4)
        .expect("the sweep must recover, not abort");
    let log = chaos::clear();
    assert!(log.panics() >= 1, "the sweep site never fired: {log:?}");
    assert_eq!(got, want, "recovered sweep verdict diverged");
}

/// A supervised `Fails` verdict carries distinguishing evidence pulled
/// from the fixpoint already in hand (no re-run).
#[test]
fn supervised_fails_verdict_carries_an_experiment() {
    let _g = lock();
    chaos::clear();
    let d = Defs::new();
    let [a, b] = names(["a", "b"]);
    let c = Checker::new(&d);
    let verdict = c.check_supervised(Variant::StrongLabelled, &out_(a, [b]), &out_(a, [a]), 1);
    match verdict {
        bpi_equiv::SupervisedVerdict::Fails(why) => {
            assert!(why.contains('⟨'), "no experiment in the verdict: {why}")
        }
        other => panic!("distinct outputs must fail: {other:?}"),
    }
}

/// Chaos invisibility: a workload that exercises the frontier workers,
/// the pairwise refinement and the checkpointed pipeline produces
/// identical verdicts and identical deterministic counter deltas with a
/// seeded chaos plan installed as it does on a quiet run.
#[test]
fn chaos_run_matches_quiet_run_bit_for_bit() {
    let _g = lock();
    let d = Defs::new();
    let [a, b] = names(["a", "b"]);
    let big = chain(45, a, b);
    let opts = Opts::default();
    let pool = shared_pool(&big, &big, opts.fresh_inputs);
    let workload = || {
        let mut verdicts: Vec<Vec<Vec<bool>>> = Vec::new();
        // Parallel build (frontier worker_tick sites) + pairwise
        // refinement on the big product.
        let g1 =
            Graph::build_parallel(&big, &d, &pool, opts, &Budget::unlimited(), 4).expect("finite");
        let g2 = Graph::build(&big, &d, &pool, opts).expect("finite");
        verdicts.push(refine_worklist(Variant::StrongBarbed, &g1, &g2).rel);
        // The checkpointed pipeline on the structured pairs.
        let c = Checker::new(&d).with_threads(2);
        for (p, q) in variants() {
            for v in [Variant::StrongLabelled, Variant::WeakLabelled] {
                let (_, _, rel) = c
                    .run_with_checkpoint(v, &p, &q, &CheckpointCfg::default())
                    .unwrap_or_else(|e| panic!("inert cfg interrupted: {}", e.error));
                verdicts.push(rel.rel);
            }
        }
        verdicts
    };

    chaos::clear();
    let mut quiet = None;
    let quiet_delta = det_delta(|| quiet = Some(workload()));
    chaos::install(ChaosPlan::new(2026).max_injections(16));
    let mut noisy = None;
    let noisy_delta = det_delta(|| noisy = Some(workload()));
    chaos::clear();
    assert_eq!(noisy, quiet, "chaos changed a verdict");
    assert_eq!(
        noisy_delta, quiet_delta,
        "chaos perturbed deterministic counters"
    );
}

/// Chaos replay: on a single-threaded supervised workload, the same seed
/// fires the same injections at the same per-site ordinals — the log is
/// bit-identical across runs — and the supervised verdict still matches
/// the quiet one despite injected budget pressure.
#[test]
fn chaos_log_replays_deterministically_for_the_same_seed() {
    let _g = lock();
    let d = Defs::new();
    let [a, b, x] = names(["a", "b", "x"]);
    let p = par(out_(a, [b]), inp(a, [x], out_(x, [])));
    let q = out(a, [b], out_(b, []));
    chaos::clear();
    let quiet = Checker::new(&d)
        .with_threads(1)
        .check_supervised(Variant::WeakLabelled, &p, &q, 8)
        .holds();
    let run = |seed: u64| {
        chaos::install(
            ChaosPlan::new(seed)
                .panic_prob(0.0)
                .delay_prob(0.0)
                .pressure_prob(0.6)
                .max_injections(4),
        );
        let verdict =
            Checker::new(&d)
                .with_threads(1)
                .check_supervised(Variant::WeakLabelled, &p, &q, 8);
        let log = chaos::clear();
        assert_eq!(
            verdict.holds(),
            quiet,
            "injected pressure changed the supervised verdict"
        );
        log
    };
    let first = run(0xC4A05);
    let second = run(0xC4A05);
    assert_eq!(
        first.events, second.events,
        "same seed, same workload, different injection log"
    );
    assert!(
        !first.events.is_empty(),
        "pressure at 60% over a supervised pipeline should fire at least once"
    );
}
