//! `BPI_TRACE=json` installs the JSON-lines stderr sink on the first
//! tracing query. This binary holds a single test, so the variable is
//! set before anything in the process has asked whether tracing is on.

use std::sync::mpsc;
use std::time::Duration;

#[test]
fn bpi_trace_json_installs_the_stderr_sink_on_first_query() {
    std::env::set_var("BPI_TRACE", "json");
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(bpi_obs::tracing_enabled()).unwrap());
    let enabled = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the first tracing query returns (it once re-entered its own initializer)");
    assert!(enabled, "BPI_TRACE=json must install a sink");
    bpi_obs::emit("obs.test", "probe", Vec::new);
    bpi_obs::clear_sink();
    assert!(!bpi_obs::tracing_enabled());
}
