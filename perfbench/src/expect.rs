//! Pinned outcomes (`perfbench/expected/*.txt`, one `key<TAB>value` per
//! line, keyed by catalogue shape) and the `pin` command that derives
//! them once from reference engines.
//!
//! * Corpus verdicts come from the pairwise reference refiners on
//!   unmemoized graphs: `refine` up to the naive cutover, `refine_worklist`
//!   above it, never from the default dispatch alone.
//! * Served responses come from [`crate::exec::Exec`], the daemon's own
//!   call sequence run in-process; check verdicts are cross-checked
//!   against the same reference. Explore state counts and seeded
//!   reliability estimates are pinned exactly.
//!
//! Pinned text writes the fresh name prefix as [`crate::gen::HOLE`].

use crate::exec::Exec;
use crate::gen::{self, fill, JobKind, Op, Shape, DEFS, DISTANCE_TOL, HOLE};
use bpi_core::parser::{parse_defs, parse_process};
use bpi_core::syntax::{Defs, P};
use bpi_equiv::{
    refine, refine_worklist, shared_pool, try_bisimulation_distance, Checker, Graph, Opts, Variant,
};
use std::collections::HashMap;

pub struct Expected(HashMap<String, String>);

impl Expected {
    pub fn parse(text: &str) -> Expected {
        Expected(
            text.lines()
                .filter_map(|l| l.split_once('\t'))
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        )
    }

    pub fn corpus() -> Expected {
        Expected::parse(include_str!("../expected/corpus.txt"))
    }

    pub fn jobs() -> Expected {
        Expected::parse(include_str!("../expected/jobs.txt"))
    }

    /// The pinned value of `key` with `prefix` filled in.
    pub fn filled(&self, key: &str, prefix: &str) -> Option<String> {
        self.0.get(key).map(|v| fill(v, prefix))
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Prefix used while pinning; replaced by the placeholder in the file.
const PIN_PREFIX: &str = "pinq0";

/// Pairs at or below which the default dispatch runs the naive sweep.
pub const NAIVE_MAX_PAIRS: usize = 1024;

/// Verdict of the pairwise reference engine on unmemoized graphs.
pub fn reference(v: Variant, p: &P, q: &P, defs: &Defs) -> bool {
    let opts = Opts::default();
    let pool = shared_pool(p, q, opts.fresh_inputs);
    let g1 = Graph::build(p, defs, &pool, opts).expect("reference build");
    let g2 = Graph::build(q, defs, &pool, opts).expect("reference build");
    let rel = if g1.len() * g2.len() <= NAIVE_MAX_PAIRS {
        refine(v, &g1, &g2)
    } else {
        refine_worklist(v, &g1, &g2)
    };
    rel.holds(0, 0)
}

fn sides(shape: &Shape) -> (P, P) {
    let p = parse_process(&fill(&shape.pair.left, PIN_PREFIX)).expect("template parses");
    let q = parse_process(&fill(&shape.pair.right, PIN_PREFIX)).expect("template parses");
    (p, q)
}

fn flags(bits: impl Iterator<Item = bool>) -> String {
    bits.map(|b| if b { 't' } else { 'f' }).collect()
}

/// Pinned value of one corpus shape.
pub fn pin_corpus_shape(shape: &Shape, defs: &Defs) -> String {
    match shape.op {
        Op::Check(v) => {
            let (p, q) = sides(shape);
            let want = reference(v, &p, &q, defs);
            if Checker::new(defs).check(v, &p, &q).holds() != want {
                eprintln!(
                    "pin: default dispatch disagrees with the reference on {}",
                    shape.key
                );
            }
            want.to_string()
        }
        Op::AllVariants => {
            let (p, q) = sides(shape);
            flags(gen::ALL.iter().map(|&v| reference(v, &p, &q, defs)))
        }
        Op::Distance(v) => {
            let (p, q) = sides(shape);
            let d = try_bisimulation_distance(v, &p, &q, defs, DISTANCE_TOL).expect("distance");
            format!("{d:?}")
        }
        Op::Rung(_) => "true".to_string(),
    }
}

pub fn pin_corpus() -> String {
    let defs = parse_defs(DEFS).expect("definitions parse");
    let mut out = String::new();
    for shape in gen::corpus_catalogue() {
        let v = pin_corpus_shape(&shape, &defs);
        eprintln!("pin {} {}", shape.key, v);
        out.push_str(&format!("{}\t{}\n", shape.key, v));
    }
    out
}

pub fn pin_jobs() -> String {
    let defs = parse_defs(DEFS).expect("definitions parse");
    let mut exec = Exec::new(false, None);
    let mut out = String::new();
    for (i, shape) in gen::job_catalogue().iter().enumerate() {
        let id = format!("pin{i}");
        let req = gen::request(shape, &id, PIN_PREFIX);
        let resp = exec.run_job(shape, &id, &req, PIN_PREFIX, None);
        if let JobKind::Check(v, pair) = &shape.kind {
            let p = parse_process(&fill(&pair.left, PIN_PREFIX)).expect("template parses");
            let q = parse_process(&fill(&pair.right, PIN_PREFIX)).expect("template parses");
            let want = reference(*v, &p, &q, &defs);
            assert_eq!(
                resp.get("holds").and_then(|h| h.as_bool()),
                Some(want),
                "served verdict disagrees with the reference on {}",
                shape.key
            );
        }
        let text = resp.to_string().replace(PIN_PREFIX, HOLE);
        eprintln!("pin {} {}", shape.key, text);
        out.push_str(&format!("{}\t{}\n", shape.key, text));
    }
    out
}
