//! Crash recovery against the real binary: `kill -9` the daemon at
//! every job-completion boundary, restart it on the same journal
//! directory, and require the final verdict vector to be byte-identical
//! to an uninterrupted baseline run.
//!
//! This is the process-level lift of the engines' resume-invisibility
//! invariant: admitted work is journaled before it is queued, slices
//! persist checkpoints atomically, and recovery replays both — so no
//! kill point can change a verdict.

mod common;

use common::{collect, count_done, run_baseline, submit_all_visible, tmpdir, Daemon, JobSpec};
use std::time::{Duration, Instant};

/// A deterministic mixed workload: holds/fails checks across variants,
/// seeded reliability estimates, explorations. Everything here must be
/// reproducible from the journal alone.
fn workload() -> Vec<(String, JobSpec)> {
    let specs = vec![
        JobSpec::Check {
            variant: "weak-labelled",
            left: "tau.a<>",
            right: "a<>",
        },
        JobSpec::Check {
            variant: "strong-labelled",
            left: "a<>.b<> + a<>.b<>",
            right: "a<>.b<>",
        },
        JobSpec::Check {
            variant: "strong-labelled",
            left: "Fwd<a,b> | Fwd<b,c> | Fwd<c,d> | a<v>",
            right: "Fwd<a,b> | Fwd<b,c> | Fwd<c,d> | a<v>",
        },
        JobSpec::Check {
            variant: "weak-labelled",
            left: "Fwd<a,b> | Fwd<b,c> | a<v>",
            right: "Fwd<a,b> | Fwd<b,c> | a<v>",
        },
        JobSpec::Check {
            variant: "strong-labelled",
            left: "a<>.b<>",
            right: "a<>.c<>",
        },
        JobSpec::Reliability {
            src: "a<v> | a(x).b<> | a(y).c<>",
            watch: "v",
            loss: 0.25,
            seed: 11,
        },
        JobSpec::Explore {
            src: "Fwd<a,b> | Fwd<b,c> | a<v>",
            max_states: 2000,
        },
    ];
    specs
        .into_iter()
        .enumerate()
        .map(|(i, s)| (format!("job-{i}"), s))
        .collect()
}

#[test]
fn kill9_at_every_job_boundary_preserves_verdicts() {
    let ids_specs = workload();
    let ids: Vec<String> = ids_specs.iter().map(|(i, _)| i.clone()).collect();
    let expected = run_baseline(&ids_specs);

    let dir = tmpdir("chaos");
    let deadline = Instant::now() + Duration::from_secs(120);

    // Round 0: submit everything, then SIGKILL as soon as the first
    // verdict lands — the rest is in the journal, some of it mid-slice.
    let d = Daemon::spawn(&dir);
    let addr = d.addr;
    let submitters = submit_all_visible(addr, &ids_specs, deadline);
    let mut done = count_done(addr, &ids);
    while done == 0 {
        assert!(Instant::now() < deadline, "no job ever completed");
        std::thread::sleep(Duration::from_millis(2));
        done = count_done(addr, &ids);
    }
    d.kill9();
    for t in submitters {
        let _ = t.join();
    }

    // Now kill at every remaining completion boundary: restart on the
    // same journal, wait for strictly more verdicts, SIGKILL again.
    let mut kills = 1usize;
    while done < ids.len() {
        assert!(
            Instant::now() < deadline,
            "recovery stalled at {done}/{}",
            ids.len()
        );
        let d = Daemon::spawn(&dir);
        let mut now_done = count_done(d.addr, &ids);
        while now_done < ids.len() && now_done <= done {
            assert!(
                Instant::now() < deadline,
                "no progress after restart ({now_done})"
            );
            std::thread::sleep(Duration::from_millis(2));
            now_done = count_done(d.addr, &ids);
        }
        done = now_done;
        if done < ids.len() {
            d.kill9();
            kills += 1;
        } else {
            d.graceful();
        }
    }
    assert!(
        kills >= 2,
        "the schedule must actually exercise repeated kills"
    );

    // Final restart: every verdict must be re-served byte-identically.
    let d = Daemon::spawn(&dir);
    let got = collect(d.addr, &ids);
    assert_eq!(got, expected, "verdict vector changed across {kills} kills");

    // And the recovered daemon is a healthy daemon: fresh work still runs.
    let mut c = bpi_server::Client::connect(d.addr).expect("connect after recovery");
    let r = c
        .check(
            "post-chaos",
            "s",
            "weak-labelled",
            "tau.tau.a<>",
            "a<>",
            "high",
            None,
        )
        .expect("post-chaos check");
    assert_eq!(r.get("holds").and_then(|j| j.as_bool()), Some(true), "{r}");
    let s = c.stats().expect("stats");
    assert_eq!(s.str_field("status"), Some("ok"));
    d.graceful();
    let _ = std::fs::remove_dir_all(&dir);
}
