//! Write-ahead admission as a client sees it: `result` answers
//! `pending` only for a job whose `admitted` record is already in the
//! journal file, so a kill at any moment loses at most a job no client
//! has been told about.

use bpi_semantics::chaos::{self, ChaosPlan};
use bpi_server::{Journal, Json, SchedCfg, Scheduler, Store, Submit};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

#[test]
fn pending_is_reported_only_for_journaled_jobs() {
    let dir = std::env::temp_dir().join(format!("bpi-submit-order-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("journal.ndjson");
    // Every submission sleeps between reserving its id and journaling it.
    chaos::install(ChaosPlan::new(13).delay_prob(1.0));
    let journal = Arc::new(Journal::open(&dir).unwrap());
    let sched = Scheduler::new(SchedCfg::default(), Arc::new(Store::new()), journal);
    let sched = Arc::new(sched);
    let (current, stop) = (
        Arc::new(AtomicUsize::new(0)),
        Arc::new(AtomicBool::new(false)),
    );
    let poller = {
        let (sched, current, stop) = (sched.clone(), current.clone(), stop.clone());
        std::thread::spawn(move || {
            // Jobs below `checked` were already seen journaled.
            let mut checked = 0;
            while !stop.load(Ordering::SeqCst) {
                let k = current.load(Ordering::SeqCst);
                let id = format!("o-{k}");
                if k >= checked && sched.result_of(&id).str_field("status") == Some("pending") {
                    let text = std::fs::read_to_string(&path).unwrap_or_default();
                    let admitted = format!("{{\"rec\":\"admitted\",\"id\":\"{id}\"");
                    assert!(text.contains(&admitted), "{id} pending before journaled");
                    checked = k + 1;
                }
            }
            checked
        })
    };
    // A padded request takes a while to journal, which widens the window
    // a premature `pending` would show in.
    let pad = Json::str("x".repeat(64 << 10));
    for k in 0..40 {
        current.store(k, Ordering::SeqCst);
        let req = Json::obj(vec![
            ("op", Json::str("check")),
            ("id", Json::str(format!("o-{k}"))),
            ("variant", Json::str("strong-labelled")),
            ("left", Json::str("a<>.b<>")),
            ("right", Json::str("a<>.b<>")),
            ("pad", pad.clone()),
        ]);
        match sched.submit(&req) {
            Submit::Queued(rx) => assert_eq!(rx.recv().unwrap().str_field("status"), Some("ok")),
            Submit::Immediate(resp) => panic!("o-{k} not admitted: {resp}"),
        }
    }
    stop.store(true, Ordering::SeqCst);
    let checked = poller.join();
    chaos::clear();
    sched.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(checked.expect("a job was pending before journaled") > 0);
}
