//! The work ledger: the deterministic counters of `Checker::check` on a
//! fixed list of check-corpus shapes, pinned in
//! `fixtures/work_ledger.txt`.
//!
//! Each shape is the corpus's pair for one family and perturbation
//! (`ladder`, `relay`, `stations` and `mixed`; `eq`, `ne` and the
//! ladders' `sum`) at one size below and one above the naive cutover
//! (1,024 state pairs), plus `relay/3/ne/strong-labelled`, the corpus's
//! costliest entry. Each is checked strong- and weak-labelled (the relay
//! at n = 3 strong only) on names of its own, so no memo serves it.
//! Counters are deterministic by contract (`metrics_oracle.rs`), so the
//! ledger reads the same on any host, and a change that multiplies work
//! fails here. Structurally equal shapes pin zero builds, and so do the
//! strong checks settled on the fly, which pin the pairs and states the
//! search derived instead; a strong check the search hands back pins
//! both its search and the graph route's work.
//!
//! There is no switch to regenerate the fixture. On a mismatch the test
//! prints the whole new ledger; a change that means to move it replaces
//! the fixture and records the old and new values.
//!
//! `BPI_ENGINE` and `BPI_COMPOSE` are cleared, so the ledger pins the
//! default dispatch; the environment is process-global, so this file is
//! its own test binary with one test.

use bpi_core::parser::{parse_defs, parse_process};
use bpi_equiv::{Checker, Variant};
use std::fmt::Write;

const COUNTERS: [&str; 20] = [
    "equiv.graph.builds",
    "equiv.graph.states",
    "equiv.graph.edges",
    "equiv.compose.accepted",
    "equiv.compose.builds",
    "equiv.compose.states",
    "equiv.partition.rounds",
    "equiv.partition.splits",
    "equiv.partition.blocks",
    "equiv.refine.runs",
    "equiv.refine.pairs",
    "equiv.refine.survivors",
    "equiv.refine.kills",
    "equiv.branching.states",
    "equiv.branching.blocks",
    "equiv.check.structural",
    "equiv.check.onthefly",
    "equiv.onthefly.pairs",
    "equiv.onthefly.states",
    "equiv.onthefly.fallbacks",
];

/// The corpus families, as `perfbench/src/gen.rs` writes them, with `@`
/// for the fresh prefix.
fn pair(family: &str, n: usize, pert: &str) -> (String, String) {
    let ladder = |n: usize, end: &str| format!("{}{end}", "tau.".repeat(n));
    let relay = |value: &str, reversed: bool| {
        let mut parts: Vec<String> = (0..n).map(|i| format!("Fwd<@x{i},@x{}>", i + 1)).collect();
        if reversed {
            parts.reverse();
        }
        parts.push(format!("@x0<{value}>"));
        parts.join(" | ")
    };
    let station = "(@a<> + tau.@b<>.@a())";
    let stations = |last: &str| {
        let mut parts = vec![station.to_string(); n - 1];
        parts.push(last.to_string());
        parts.join(" | ")
    };
    let mixed =
        |unary: &str, binary: &str| format!("{} | {unary} | {binary}", ladder(n, "@a<@v,@w>"));
    match (family, pert) {
        ("ladder", "eq") => (ladder(n, "@a<>"), ladder(n + 2, "@a<>")),
        ("ladder", "ne") => (ladder(n, "@a<>"), ladder(n, "@b<>")),
        ("ladder", "sum") => (ladder(n, "@a<>"), ladder(n, "(@a<> + @a<>)")),
        ("relay", "eq") => (relay("@v", false), relay("@v", true)),
        ("relay", "ne") => (relay("@v", false), relay("@w", false)),
        ("stations", "eq") => (stations(station), stations(&format!("tau.{station}"))),
        ("stations", "ne") => (stations(station), stations("(@a<> + tau.@b<>.@c())")),
        ("mixed", "eq") => (
            mixed("@a(x).@b<x>", "@a(x,y).@c<y>"),
            mixed("@a(z).@b<z>", "@a(x,y).@c<y>"),
        ),
        ("mixed", "ne") => (
            mixed("@a(x).@b<x>", "@a(x,y).@c<y>"),
            mixed("@a(x).@b<x>", "@a(x,y).@c<x>"),
        ),
        _ => panic!("unknown shape {family}/{pert}"),
    }
}

fn shapes() -> Vec<(&'static str, usize, &'static str, &'static [Variant])> {
    const BOTH: &[Variant] = &[Variant::StrongLabelled, Variant::WeakLabelled];
    let mut out = Vec::new();
    for (family, sizes, perts) in [
        ("ladder", [6, 60], &["eq", "ne", "sum"][..]),
        ("relay", [1, 2], &["eq", "ne"][..]),
        ("stations", [2, 5], &["eq", "ne"][..]),
        ("mixed", [10, 60], &["eq", "ne"][..]),
    ] {
        for n in sizes {
            for &pert in perts {
                out.push((family, n, pert, BOTH));
            }
        }
    }
    out.push(("relay", 3, "ne", &[Variant::StrongLabelled]));
    out
}

fn variant_key(v: Variant) -> &'static str {
    match v {
        Variant::StrongLabelled => "strong-labelled",
        Variant::WeakLabelled => "weak-labelled",
        _ => unreachable!("the ledger checks labelled variants only"),
    }
}

#[test]
fn deterministic_work_matches_the_ledger() {
    std::env::remove_var("BPI_ENGINE");
    std::env::remove_var("BPI_COMPOSE");
    bpi_obs::set_metrics_enabled(true);
    let defs = parse_defs("Fwd(a,b) = a(x).b<x>.Fwd<a,b>;").expect("Fwd parses");
    let checker = Checker::new(&defs);
    let mut ledger = String::new();
    for (k, (family, n, pert, vs)) in shapes().into_iter().enumerate() {
        let (left, right) = pair(family, n, pert);
        let prefix = format!("wl{k}");
        let parse = |t: &str| parse_process(&t.replace('@', &prefix)).expect("shape parses");
        let (p, q) = (parse(&left), parse(&right));
        for &v in vs {
            let before = bpi_obs::snapshot();
            let verdict = checker.check(v, &p, &q);
            let delta = bpi_obs::snapshot().deterministic_delta(&before);
            assert!(
                !verdict.is_inconclusive(),
                "{family}/{n}/{pert}: {verdict:?}"
            );
            write!(
                ledger,
                "{family}/{n}/{pert}/{}\t{}",
                variant_key(v),
                verdict.holds()
            )
            .unwrap();
            for name in COUNTERS {
                let value = delta.get(name).copied().unwrap_or(0);
                write!(ledger, "\t{}={value}", name.trim_start_matches("equiv.")).unwrap();
            }
            ledger.push('\n');
        }
    }
    let fixture = include_str!("fixtures/work_ledger.txt");
    if ledger != fixture {
        panic!(
            "the work ledger moved; the new ledger, one line per check \
             (shape, verdict, then each counter's delta):\n{ledger}"
        );
    }
}
