//! Differential-engine replay of the Glomers ladder.
//!
//! Every verdict in [`bpi::encodings::glomers::verdicts`] — weak
//! equivalences, the HML certificate and the exhaustive reachability
//! sweeps — must be **bit-identical** under every engine selection: the
//! naive sweep, the predecessor-indexed worklist, the block/splitter
//! partition refiner, and both graph routes. The baseline runs the
//! default dispatch, which takes the minimize-then-compose path on the
//! ladder's open many-identical-node comparisons and the monolithic
//! build elsewhere; `BPI_COMPOSE=off` forces the monolithic oracle
//! everywhere. `BPI_ENGINE` / `BPI_COMPOSE` are re-read on every
//! dispatch precisely so a test can flip them mid-process; everything
//! lives in **one** `#[test]` because
//! the process environment is shared state — this file is its own test
//! binary, so no other suite races these variables.

use bpi::encodings::glomers;

fn verdicts_under(env: &[(&str, &str)]) -> Vec<(&'static str, bool)> {
    for (k, v) in env {
        std::env::set_var(k, v);
    }
    let out = glomers::verdicts();
    for (k, _) in env {
        std::env::remove_var(k);
    }
    out
}

#[test]
fn every_engine_agrees_on_every_verdict() {
    for k in ["BPI_ENGINE", "BPI_COMPOSE"] {
        std::env::remove_var(k);
    }
    let baseline = glomers::verdicts();
    for (label, ok) in &baseline {
        assert!(ok, "baseline verdict failed: {label}");
    }

    let configs: &[&[(&str, &str)]] = &[
        &[("BPI_ENGINE", "naive")],
        &[("BPI_ENGINE", "worklist")],
        &[("BPI_ENGINE", "partition")],
        &[("BPI_COMPOSE", "off")],
        &[("BPI_COMPOSE", "off"), ("BPI_ENGINE", "partition")],
    ];
    for env in configs {
        let got = verdicts_under(env);
        assert_eq!(
            baseline, got,
            "verdict vector diverged under {env:?} — engines disagree"
        );
    }
}
