//! In-process daemon integration: protocol round trips, typed
//! rejections under overload, deadline enforcement, preemptive slicing
//! and the stats surface.

use bpi_equiv::MAX_REFINE_PAIRS;
use bpi_server::json::Json;
use bpi_server::{server, Client, SchedCfg, ServerCfg};
use std::path::PathBuf;
use std::time::Duration;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "bpi-daemon-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn small_cfg(dir: &PathBuf) -> ServerCfg {
    let mut cfg = ServerCfg::new(dir);
    cfg.sched = SchedCfg {
        workers: 2,
        queue_cap: 16,
        state_budget: 500_000,
        shed_fraction: 0.75,
        fuel: 8, // tiny quantum: even small checks park a few times
        default_max_states: 20_000,
        max_max_states: 100_000,
    };
    cfg
}

const FWD_DEFS: &str = "Fwd(a,b) = a(x).b<x>.Fwd<a,b>;";

#[test]
fn protocol_roundtrip_check_explore_reliability() {
    let dir = tmpdir("roundtrip");
    let h = server::start(small_cfg(&dir)).unwrap();
    let mut c = Client::connect(h.addr).unwrap();

    let d = c.defs("s1", FWD_DEFS).unwrap();
    assert_eq!(d.str_field("status"), Some("ok"), "{d}");
    assert_eq!(d.get("defined").unwrap().as_usize(), Some(1));

    // An equivalence that holds (weak: τ prefix is invisible)...
    let r = c
        .check(
            "c-holds",
            "s1",
            "weak-labelled",
            "tau.a<>",
            "a<>",
            "normal",
            None,
        )
        .unwrap();
    assert_eq!(r.str_field("status"), Some("ok"), "{r}");
    assert_eq!(r.get("holds").unwrap().as_bool(), Some(true));

    // ...one that fails, with a distinguishing explanation...
    let r = c
        .check(
            "c-fails",
            "s1",
            "strong-labelled",
            "a<>.b<>",
            "a<>.c<>",
            "normal",
            None,
        )
        .unwrap();
    assert_eq!(r.get("holds").unwrap().as_bool(), Some(false));
    assert!(r.str_field("explanation").is_some());

    // ...and one through the session's recursive definitions.
    let r = c
        .check(
            "c-rec",
            "s1",
            "strong-labelled",
            "Fwd<a,b> | a<v>",
            "Fwd<a,b> | a<v>",
            "high",
            None,
        )
        .unwrap();
    assert_eq!(r.get("holds").unwrap().as_bool(), Some(true), "{r}");

    let r = c.explore("e-1", "s1", "Fwd<a,b> | a<v>", 500).unwrap();
    assert_eq!(r.str_field("status"), Some("ok"), "{r}");
    assert!(r.get("states").unwrap().as_usize().unwrap() >= 2);
    assert_eq!(r.get("truncated").unwrap().as_bool(), Some(false));
    // An exploration that outgrows its `max_states` is served truncated,
    // with the typed reason in-band.
    let r = c
        .explore("e-2", "s1", "rec X(b){ tau.(X<b> | b<>) }<b>", 16)
        .unwrap();
    assert_eq!(r.get("truncated").unwrap().as_bool(), Some(true), "{r}");
    let reason = r.str_field("interrupted");
    assert_eq!(reason, Some("state budget of 16 states exhausted"), "{r}");

    // Reliability is seeded: the same request twice (distinct ids) must
    // produce byte-identical estimates.
    let r1 = c
        .reliability("m-1", "s1", "a<v> | a(x).x<>", "v", 0.3, 7, 8, 60)
        .unwrap();
    let r2 = c
        .reliability("m-2", "s1", "a<v> | a(x).x<>", "v", 0.3, 7, 8, 60)
        .unwrap();
    assert_eq!(r1.str_field("status"), Some("ok"), "{r1}");
    let strip = |j: &Json| j.to_string();
    assert_eq!(strip(&r1), strip(&r2));

    // `result` re-serves the journaled verdict byte-identically.
    let again = c.result_of("c-holds").unwrap();
    assert_eq!(again.get("holds").unwrap().as_bool(), Some(true));

    // Typed errors: bad variant, bad id, unknown op, duplicate id.
    let r = c
        .check("c-bad", "s1", "sorta-weak", "a<>", "a<>", "normal", None)
        .unwrap();
    assert_eq!(r.str_field("status"), Some("error"));
    let r = c
        .check(
            "no/slashes",
            "s1",
            "weak-step",
            "a<>",
            "a<>",
            "normal",
            None,
        )
        .unwrap();
    assert_eq!(r.str_field("error"), Some("bad-request"));
    let r = c
        .check(
            "c-holds",
            "s1",
            "weak-labelled",
            "tau.a<>",
            "a<>",
            "normal",
            None,
        )
        .unwrap();
    assert_eq!(r.str_field("status"), Some("rejected"), "{r}");
    assert_eq!(r.str_field("reason"), Some("duplicate-id"));
    let r = c
        .roundtrip(&Json::obj(vec![("op", Json::str("noop"))]))
        .unwrap();
    assert_eq!(r.str_field("status"), Some("error"));

    // Parse errors come back typed, not as daemon failures.
    let r = c
        .check(
            "c-parse",
            "s1",
            "weak-step",
            "a<v> |",
            "a<>",
            "normal",
            None,
        )
        .unwrap();
    assert_eq!(r.str_field("error"), Some("parse"));

    // Stats: the counters and gauges the PR promises are exported.
    let s = c.stats().unwrap();
    assert_eq!(s.str_field("status"), Some("ok"));
    assert!(s.get("queue_depth").unwrap().as_usize().is_some());
    let counters = s.get("counters").unwrap();
    assert!(counters.get("server.admitted").unwrap().as_usize().unwrap() >= 5);
    assert!(counters.get("server.completed").is_some());
    // fuel=8 on multi-state graphs: preemption must actually happen.
    assert!(
        counters
            .get("server.preempted")
            .unwrap()
            .as_usize()
            .unwrap()
            > 0,
        "tiny fuel must park at least one job: {s}"
    );
    assert!(s
        .get("histograms")
        .unwrap()
        .get("server.latency_ms")
        .is_some());

    h.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deadline_zero_is_a_typed_deadline_error() {
    let dir = tmpdir("deadline");
    let h = server::start(small_cfg(&dir)).unwrap();
    let mut c = Client::connect(h.addr).unwrap();
    let r = c
        .check(
            "d-0",
            "",
            "strong-labelled",
            "a<>.b<>",
            "a<>.b<>",
            "normal",
            Some(0),
        )
        .unwrap();
    assert_eq!(r.str_field("status"), Some("error"), "{r}");
    assert_eq!(r.str_field("error"), Some("deadline"));
    h.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overload_rejects_typed_and_bounded_never_hangs() {
    let dir = tmpdir("overload");
    let mut cfg = small_cfg(&dir);
    // A daemon sized to overload quickly: one worker, a 2-deep queue,
    // room for about three default-cost jobs in flight.
    cfg.sched.workers = 1;
    cfg.sched.queue_cap = 2;
    cfg.sched.state_budget = 60_000;
    cfg.sched.fuel = 4;
    let h = server::start(cfg).unwrap();

    let addr = h.addr;
    let threads: Vec<_> = (0..24)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let prio = ["low", "normal", "high"][i % 3];
                c.check(
                    &format!("ov-{i}"),
                    "",
                    "strong-labelled",
                    "a<v>.b<>.c<>.d<> + a<v>.b<>.c<>.d<>",
                    "a<v>.b<>.c<>.d<>",
                    prio,
                    None,
                )
                .unwrap()
            })
        })
        .collect();
    let mut ok = 0usize;
    let mut rejected = 0usize;
    for t in threads {
        let r = t.join().unwrap();
        match r.str_field("status") {
            Some("ok") => ok += 1,
            Some("rejected") => {
                rejected += 1;
                let reason = r.str_field("reason").unwrap();
                assert!(
                    ["queue-full", "budget-exhausted", "shed-low-priority"].contains(&reason),
                    "unexpected reason {reason:?}"
                );
            }
            other => panic!("unexpected status {other:?}: {r}"),
        }
    }
    assert!(ok > 0, "some jobs must get through");
    assert!(
        rejected > 0,
        "an overloaded daemon must shed typed rejections"
    );

    // The daemon is still healthy and the queue is bounded.
    let mut c = Client::connect(addr).unwrap();
    let s = c.stats().unwrap();
    assert!(s.get("queue_depth").unwrap().as_usize().unwrap() <= 8);
    assert!(
        s.get("counters")
            .unwrap()
            .get("server.rejected")
            .unwrap()
            .as_usize()
            .unwrap()
            > 0
    );
    let r = c
        .check(
            "after-storm",
            "",
            "weak-labelled",
            "tau.a<>",
            "a<>",
            "normal",
            None,
        )
        .unwrap();
    assert_eq!(r.get("holds").unwrap().as_bool(), Some(true));
    h.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn preemption_lets_short_jobs_overtake_long_ones() {
    let dir = tmpdir("preempt");
    let mut cfg = small_cfg(&dir);
    cfg.sched.workers = 1; // one worker: overtaking is *only* possible via parking
    cfg.sched.fuel = 4;
    let h = server::start(cfg).unwrap();
    let addr = h.addr;

    // A long-running check (bigger graph) at normal priority…
    let long = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.defs("s", FWD_DEFS).unwrap();
        c.check(
            "long-1",
            "s",
            "strong-labelled",
            "Fwd<a,b> | Fwd<b,c> | a<v>",
            "Fwd<a,b> | Fwd<b,c> | a<v>",
            "normal",
            None,
        )
        .unwrap()
    });
    std::thread::sleep(Duration::from_millis(30));
    // …must not block a short check submitted afterwards.
    let mut c = Client::connect(addr).unwrap();
    let t0 = std::time::Instant::now();
    let r = c
        .check(
            "short-1",
            "",
            "strong-labelled",
            "a<>",
            "a<>",
            "normal",
            None,
        )
        .unwrap();
    assert_eq!(r.get("holds").unwrap().as_bool(), Some(true));
    let short_latency = t0.elapsed();
    let r = long.join().unwrap();
    assert_eq!(r.str_field("status"), Some("ok"), "{r}");
    // Generous bound: the short job's wait is a few slices, not the
    // long job's whole runtime.
    assert!(
        short_latency < Duration::from_secs(10),
        "short job waited {short_latency:?}"
    );
    h.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Journals a weak-labelled `tau.a<>` vs `a<>` check as admitted with
/// `checkpoint` as its parked snapshot, starts a daemon on the journal,
/// and asserts that recovery serves the straight verdict.
fn recovers_to_the_straight_verdict(tag: &str, checkpoint: &str) {
    let dir = tmpdir(tag);
    {
        let j = bpi_server::Journal::open(&dir).unwrap();
        let req = Json::obj(vec![
            ("op", Json::str("check")),
            ("id", Json::str("s-1")),
            ("session", Json::str("")),
            ("variant", Json::str("weak-labelled")),
            ("left", Json::str("tau.a<>")),
            ("right", Json::str("a<>")),
            ("priority", Json::str("normal")),
        ]);
        j.record_admitted("s-1", &req).unwrap();
        j.save_checkpoint("s-1", checkpoint).unwrap();
    }
    let h = server::start(small_cfg(&dir)).unwrap();
    let mut c = Client::connect(h.addr).unwrap();
    let r = c.wait_result("s-1", Duration::from_secs(30)).unwrap();
    assert_eq!(r.str_field("status"), Some("ok"), "{r}");
    assert_eq!(r.get("holds").unwrap().as_bool(), Some(true), "{r}");
    h.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journaled checkpoint whose graph section has no `state` record is
/// corrupt, not a complete empty build: recovery must rerun the job
/// from scratch and serve the straight verdict, not a journaled panic.
#[test]
fn stateless_checkpoint_reruns_cleanly_on_recovery() {
    recovers_to_the_straight_verdict(
        "stateless",
        "bpi-equiv-checkpoint/v1\nphase\tbuild_left\nright_seed\ta<>\n\
         #section left\nbpi-graph-checkpoint/v1\npool\t\npending\t\n",
    );
}

/// A journaled checkpoint whose refine section declares 10¹² rows once
/// reserved 24 TB before reading a row, aborting the daemon on every
/// restart. The decoder sizes nothing from a declared count, so the
/// section is a typed decode error and recovery reruns the job.
#[test]
fn hostile_refine_dims_rerun_cleanly_on_recovery() {
    recovers_to_the_straight_verdict(
        "dims",
        "bpi-equiv-checkpoint/v1\nphase\trefine\n\
         #section left\nbpi-graph-checkpoint/v1\npool\t\npending\t\nstate\ttau.a<>\n\
         #section right\nbpi-graph-checkpoint/v1\npool\t\npending\t\nstate\ta<>\n\
         #section refine\nbpi-refine-checkpoint/v1\nrounds\t0\ndims\t1000000000000\t0\n",
    );
}

/// A check's `max_states` is the ceiling of its graph builds, up to the
/// daemon's `max_max_states`, even above `Opts::default()`'s 20,000,
/// while the product it refines stays under `MAX_REFINE_PAIRS` whatever
/// it asks for: `a0<> | … | a14<>` has 32,768 states, and 32,768 ×
/// 16,384 pairs is over the ceiling. Sent through `roundtrip` because
/// `Client::check` names no `max_states`; run at the default quantum,
/// since `small_cfg`'s 8 units would park it thousands of times.
#[test]
fn served_check_honours_max_states_and_bounds_its_pairs() {
    let dir = tmpdir("check-ceiling");
    let h = server::start(ServerCfg::new(&dir)).unwrap();
    let mut c = Client::connect(h.addr).unwrap();
    let outputs = |n: usize| {
        (0..n)
            .map(|i| format!("a{i}<>"))
            .collect::<Vec<_>>()
            .join(" | ")
    };
    let mut check = |id: &str, right: String| {
        c.roundtrip(&Json::obj(vec![
            ("op", Json::str("check")),
            ("id", Json::str(id)),
            ("variant", Json::str("strong-labelled")),
            ("left", Json::str(outputs(15))),
            ("right", Json::str(right)),
            ("max_states", Json::num(40_000.0)),
        ]))
        .unwrap()
    };
    let r = check("wide", "0".to_string());
    assert_eq!(r.str_field("status"), Some("ok"), "{r}");
    assert_eq!(r.get("holds").unwrap().as_bool(), Some(false), "{r}");
    let r = check("wide-squared", outputs(14));
    assert_eq!(r.str_field("error"), Some("state-budget"), "{r}");
    let detail = format!("pair ceiling of {MAX_REFINE_PAIRS} state pairs exceeded");
    assert_eq!(r.str_field("detail"), Some(detail.as_str()), "{r}");
    h.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A request line carrying a 4 MiB string is read and parsed in time
/// linear in its length: the connection loop once rescanned the whole
/// buffer per 4 KiB read, and the parser re-validated the rest of the
/// line per character (27.6 s for 1 MiB).
#[test]
fn four_mib_request_line_is_served_promptly() {
    let dir = tmpdir("big-line");
    let h = server::start(small_cfg(&dir)).unwrap();
    let mut c = Client::connect(h.addr).unwrap();
    let req = Json::obj(vec![
        ("op", Json::str("result")),
        ("id", Json::str("absent")),
        ("pad", Json::str("x".repeat(4 << 20))),
    ]);
    let t = std::time::Instant::now();
    let r = c.roundtrip(&req).unwrap();
    assert_eq!(r.str_field("error"), Some("unknown-id"), "{r}");
    assert!(
        t.elapsed() < Duration::from_secs(5),
        "took {:?}",
        t.elapsed()
    );
    h.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `check` whose left term is 100,000 levels tall (a τ-prefix chain,
/// or one restriction of 100,000 names) is refused with a typed `parse`
/// error before any pass recurses over it. Terms are parsed on the
/// connection thread (a 2 MiB stack), where an unbounded descent once
/// aborted the whole daemon; the same connection then goes on serving.
#[test]
fn deeply_nested_term_is_a_typed_parse_error() {
    let dir = tmpdir("deep-term");
    let h = server::start(small_cfg(&dir)).unwrap();
    let mut c = Client::connect(h.addr).unwrap();
    let tau_chain = format!("{}0", "tau.".repeat(100_000));
    let new_list = format!("new {}.0", vec!["a"; 100_000].join(","));
    for deep in [tau_chain, new_list] {
        let r = c
            .check("deep", "", "strong-labelled", &deep, "0", "normal", None)
            .unwrap();
        assert_eq!(r.str_field("status"), Some("error"), "{r}");
        assert_eq!(r.str_field("error"), Some("parse"), "{r}");
        let detail = r.str_field("detail").unwrap_or_default();
        assert!(detail.contains("nested deeper"), "{r}");
    }
    let (v, p) = ("strong-labelled", "tau.a<>");
    let r = c.check("after", "", v, p, p, "normal", None).unwrap();
    assert_eq!(r.get("holds").unwrap().as_bool(), Some(true), "{r}");
    h.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A panic inside an engine stays inside its job. The unguarded
/// `rec X(a){X<a>}<a>` trips the recursion-unfolding guard
/// (`bpi_semantics::discard::MAX_UNFOLD`) in a `check` and in an
/// `explore`; each answers a typed `panic` error, and the daemon goes on
/// serving. The scheduler's per-slice `catch_unwind` is the one panic
/// isolation in the workspace.
#[test]
fn engine_panic_is_a_typed_error_and_the_daemon_keeps_serving() {
    let dir = tmpdir("panic");
    let h = server::start(small_cfg(&dir)).unwrap();
    let mut c = Client::connect(h.addr).unwrap();
    let (v, unguarded) = ("strong-labelled", "rec X(a){X<a>}<a>");
    let r = c
        .check("p-check", "", v, unguarded, "0", "normal", None)
        .unwrap();
    assert_eq!(r.str_field("status"), Some("error"), "{r}");
    assert_eq!(r.str_field("error"), Some("panic"), "{r}");
    let r = c.explore("p-explore", "", unguarded, 100).unwrap();
    assert_eq!(r.str_field("status"), Some("error"), "{r}");
    assert_eq!(r.str_field("error"), Some("panic"), "{r}");
    let p = "tau.a<>";
    let r = c.check("after", "", v, p, p, "normal", None).unwrap();
    assert_eq!(r.get("holds").unwrap().as_bool(), Some(true), "{r}");
    h.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
