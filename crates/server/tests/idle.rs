//! An idle daemon wakes no worker. Its own test binary, because the
//! `bpi-obs` counters are process-global and the `daemon` suite runs its
//! daemons in parallel.

use bpi_server::json::Json;
use bpi_server::{server, Client, ServerCfg};
use std::time::Duration;

fn idle_wakeups(c: &mut Client) -> usize {
    let s = c.stats().unwrap();
    let counters = s.get("counters").unwrap();
    let n = counters.get("server.idle_wakeups").and_then(Json::as_usize);
    n.unwrap_or_else(|| panic!("stats has no server.idle_wakeups: {s}"))
}

/// Idle workers wait on the run queue's condvar with no timeout: over
/// 300 ms with nothing queued they wake at most for a spurious wake-up,
/// where a 1 ms poll would wake each of the two workers about 300 times.
#[test]
fn an_idle_daemon_wakes_no_worker() {
    let dir = std::env::temp_dir().join(format!("bpi-idle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let h = server::start(ServerCfg::new(&dir)).unwrap();
    let mut c = Client::connect(h.addr).unwrap();
    let before = idle_wakeups(&mut c);
    std::thread::sleep(Duration::from_millis(300));
    let woken = idle_wakeups(&mut c) - before;
    assert!(woken <= 2, "{woken} idle wake-ups in 300 ms");
    let s = c.stats().unwrap();
    assert!(
        s.get("histograms")
            .and_then(|hs| hs.get("server.queue_wait_us"))
            .is_some(),
        "stats has no server.queue_wait_us: {s}"
    );
    h.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
