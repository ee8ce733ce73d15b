//! The checker as a service: start the `bpi-server` daemon in-process,
//! drive it over its newline-delimited JSON protocol, then restart it
//! on the same journal directory and watch every verdict come back
//! byte-identically without being recomputed.
//!
//! ```sh
//! cargo run --example serve
//! ```
//!
//! The standalone binary is the same daemon behind a CLI:
//!
//! ```sh
//! cargo run --release -p bpi-server --bin bpi-server -- --journal /tmp/bpi
//! ```

use bpi::server::{server, Client, SchedCfg, ServerCfg};

fn main() -> std::io::Result<()> {
    let dir = std::env::temp_dir().join(format!("bpi-serve-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // A deliberately small daemon so the fair-scheduling machinery is
    // visible: one worker, tiny fuel quanta — long checks run in
    // preemptible slices instead of hogging the worker.
    let mut cfg = ServerCfg::new(&dir);
    cfg.sched = SchedCfg {
        workers: 1,
        fuel: 16,
        ..SchedCfg::default()
    };
    let h = server::start(cfg.clone())?;
    println!("daemon listening on {}", h.addr);

    let mut c = Client::connect(h.addr)?;

    // Sessions carry definitions; every later term in the session may
    // call them.
    let r = c.defs("demo", "Fwd(a,b) = a(x).b<x>.Fwd<a,b>;")?;
    println!("defs         -> {r}");

    // A weak equivalence (τ is invisible), a failing strong one (the
    // explanation is a distinguishing formula), and a recursive system.
    let r = c.check(
        "eq-tau",
        "demo",
        "weak-labelled",
        "tau.a<>",
        "a<>",
        "normal",
        None,
    )?;
    println!("check holds  -> {r}");
    let r = c.check(
        "eq-no",
        "demo",
        "strong-labelled",
        "a<>.b<>",
        "a<>.c<>",
        "normal",
        None,
    )?;
    println!("check fails  -> {r}");
    let r = c.check(
        "eq-fwd",
        "demo",
        "strong-labelled",
        "Fwd<a,b> | a<v>",
        "Fwd<a,b> | a<v>",
        "high",
        None,
    )?;
    println!("check rec    -> {r}");

    // Exhaustive exploration and a seeded reliability estimate — the
    // same engines the CLI exposes, behind admission control.
    let r = c.explore("x-1", "demo", "Fwd<a,b> | a<v>", 500)?;
    println!("explore      -> {r}");
    let r = c.reliability("m-1", "demo", "a<v> | a(x).x<>", "v", 0.3, 7, 10, 200)?;
    println!("reliability  -> {r}");

    // The daemon's own health surface.
    let s = c.stats()?;
    println!(
        "stats        -> queue_depth={} admitted={}",
        s.get("queue_depth").unwrap(),
        s.get("counters")
            .and_then(|cs| cs.get("server.admitted"))
            .unwrap()
    );

    let before = c.result_of("eq-fwd")?.to_string();
    drop(c);
    h.shutdown();

    // Restart on the same journal: verdicts are re-served from the
    // write-ahead log, byte-identical, with zero recomputation. After a
    // crash (kill -9) the same restart also *resumes* half-finished
    // jobs from their persisted checkpoints — `crates/server/tests/
    // kill_restart.rs` kills the daemon at every job boundary to pin
    // exactly that.
    let h = server::start(cfg)?;
    let mut c = Client::connect(h.addr)?;
    let after = c.result_of("eq-fwd")?.to_string();
    println!("recovered    -> {after}");
    assert_eq!(
        before, after,
        "recovery must re-serve verdicts bit-identically"
    );
    println!("restart re-served the verdict byte-identically");

    h.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
