//! Property: for ANY mix of jobs and ANY kill boundary, a SIGKILL'd
//! daemon restarted on the same journal converges to the same verdict
//! vector as an uninterrupted run. The deterministic sibling
//! (`kill_restart.rs`) walks every boundary of one workload; this one
//! samples random workloads and a random boundary each.

mod common;

use common::{collect, count_done, run_baseline, submit_all_visible, tmpdir, Daemon, JobSpec};
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// The job vocabulary the sampler draws from. Everything is
/// deterministic given the journal (seeded sampling, canonical
/// exploration), which is what makes the property checkable at all.
fn vocabulary() -> Vec<JobSpec> {
    vec![
        JobSpec::Check {
            variant: "weak-labelled",
            left: "tau.a<>",
            right: "a<>",
        },
        JobSpec::Check {
            variant: "strong-labelled",
            left: "Fwd<a,b> | Fwd<b,c> | a<v>",
            right: "Fwd<a,b> | Fwd<b,c> | a<v>",
        },
        JobSpec::Check {
            variant: "strong-labelled",
            left: "a<>.b<>",
            right: "a<>.c<>",
        },
        JobSpec::Check {
            variant: "weak-labelled",
            left: "a<> + tau.a<>",
            right: "tau.a<>",
        },
        JobSpec::Reliability {
            src: "a<v> | a(x).b<> | a(y).c<>",
            watch: "v",
            loss: 0.3,
            seed: 7,
        },
        JobSpec::Explore {
            src: "Fwd<a,b> | a<v>",
            max_states: 800,
        },
    ]
}

/// splitmix64 — turns one proptest-drawn seed into a whole workload.
fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// One chaotic run: submit all jobs, kill -9 once `boundary` of them
/// have completed, restart, and return the fully-recovered verdicts.
fn run_with_kill(ids_specs: &[(String, JobSpec)], boundary: usize) -> Vec<String> {
    let ids: Vec<String> = ids_specs.iter().map(|(i, _)| i.clone()).collect();
    let dir = tmpdir("prop");
    let deadline = Instant::now() + Duration::from_secs(90);

    let d = Daemon::spawn(&dir);
    let addr = d.addr;
    let submitters = submit_all_visible(addr, ids_specs, deadline);
    let target = boundary.min(ids.len().saturating_sub(1));
    while count_done(addr, &ids) < target {
        assert!(Instant::now() < deadline, "never reached boundary {target}");
        std::thread::sleep(Duration::from_millis(2));
    }
    d.kill9();
    for t in submitters {
        let _ = t.join();
    }

    let d = Daemon::spawn(&dir);
    let got = collect(d.addr, &ids);
    d.graceful();
    let _ = std::fs::remove_dir_all(&dir);
    got
}

proptest! {
    // Each case spawns three daemon processes; keep the count small —
    // the deterministic sibling already sweeps every boundary of a
    // fixed workload.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn any_kill_boundary_preserves_any_workload(seed in 0u64..1_000_000) {
        let mut s = seed;
        let vocab = vocabulary();
        let len = 2 + (splitmix(&mut s) % 3) as usize; // 2..=4 jobs
        let ids_specs: Vec<(String, JobSpec)> = (0..len)
            .map(|i| {
                let pick = (splitmix(&mut s) as usize) % vocab.len();
                (format!("pj-{i}"), vocab[pick].clone())
            })
            .collect();
        let boundary = (splitmix(&mut s) as usize) % len;

        let (expected, _) = run_baseline(&ids_specs);
        let got = run_with_kill(&ids_specs, boundary);
        prop_assert_eq!(got, expected);
    }
}
