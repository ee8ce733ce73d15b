//! Checkpoint-decode hardening: truncated or corrupted checkpoint
//! documents — any codec, cut or flipped anywhere — must come back as a
//! typed `Err`, never a panic, and never an absurd allocation. A served
//! daemon replays persisted checkpoints on restart, so the decode path
//! is attacker-adjacent: whatever is on disk after a crash gets parsed.
//! The graph sections' node table is pinned here too: its text is a
//! function of the checkpoint's value and grows linearly on a ladder.

use bpi_core::builder::*;
use bpi_core::dist::Dist;
use bpi_core::parser::{parse_process, MAX_DEPTH};
use bpi_core::record::MAX_TREE_NODES;
use bpi_core::syntax::{Defs, P};
use bpi_equiv::checkpoint::{
    Checkpoint, GraphCheckpoint, PartitionCheckpoint, RefineCheckpoint, RefineSnapshot,
};
use bpi_equiv::graph::{shared_pool, Graph, Opts};
use bpi_equiv::{refine_budgeted, Checker, SliceOutcome, Variant, Verdict};
use bpi_semantics::prob::McCheckpoint;
use bpi_semantics::{Budget, CheckpointCfg, FaultLog};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn sample_graph_ckpt() -> GraphCheckpoint {
    let d = Defs::new();
    let [a, b, x] = names(["a", "b", "x"]);
    let p = par(out_(a, [b]), inp(a, [x], out_(x, [])));
    let pool = shared_pool(&p, &nil(), 1);
    let g = Graph::build(&p, &d, &pool, Opts::default()).unwrap();
    GraphCheckpoint::of_graph(&g)
}

/// One small document per text format and umbrella phase, written by
/// the codecs before they moved onto the shared `bpi_core::record`
/// codec (engine snapshots parked mid-run, every fault event kind). The
/// graph sections were rewritten as `bpi-graph-checkpoint/v2` node
/// tables from the same states when v1 was retired.
const FIXTURES: [(&str, &str); 10] = [
    ("graph", include_str!("fixtures/graph.txt")),
    ("refine", include_str!("fixtures/refine.txt")),
    ("partition", include_str!("fixtures/partition.txt")),
    ("equiv", include_str!("fixtures/equiv-build-left.txt")),
    ("equiv", include_str!("fixtures/equiv-build-right.txt")),
    ("equiv", include_str!("fixtures/equiv-refine-pairwise.txt")),
    ("equiv", include_str!("fixtures/equiv-refine-partition.txt")),
    ("mc", include_str!("fixtures/mc.txt")),
    ("faultlog", include_str!("fixtures/fault-log.txt")),
    ("dist", include_str!("fixtures/dist.txt")),
];

/// Decodes `doc` with the codec of `kind` and encodes it again.
fn reencode(kind: &str, doc: &str) -> Result<String, String> {
    Ok(match kind {
        "graph" => GraphCheckpoint::from_text(doc)?.to_text(),
        "refine" => RefineCheckpoint::from_text(doc)?.to_text(),
        "partition" => PartitionCheckpoint::from_text(doc)?.to_text(),
        "equiv" => Checkpoint::from_text(doc)?.to_text(),
        "mc" => doc.parse::<McCheckpoint>()?.to_string(),
        "faultlog" => doc
            .parse::<FaultLog>()
            .map_err(|e| e.to_string())?
            .to_string(),
        "dist" => doc
            .parse::<Dist<String>>()
            .map_err(|e| e.to_string())?
            .to_string(),
        other => panic!("no codec {other}"),
    })
}

/// Byte identity with the old codecs, and round trips of every umbrella
/// phase with either engine's refine section.
#[test]
fn fixtures_round_trip_byte_for_byte() {
    for (kind, doc) in FIXTURES {
        assert_eq!(reencode(kind, doc).as_deref(), Ok(doc), "{kind}");
    }
}

fn sample_docs() -> Vec<(&'static str, String)> {
    let left = sample_graph_ckpt();
    let n = left.states.len();
    let refine = RefineCheckpoint {
        rel: vec![vec![true; n]; n],
        rounds: 2,
    };
    let umbrella = Checkpoint::Refine {
        left: left.clone(),
        right: left.clone(),
        refine: RefineSnapshot::Pairwise(refine.clone()),
    };
    let mc = McCheckpoint {
        done: 40,
        successes: 17,
    };
    let mut docs = vec![
        ("graph", left.to_text()),
        ("refine", refine.to_text()),
        ("equiv", umbrella.to_text()),
        ("mc", mc.to_string()),
        ("faultlog", FaultLog::default().to_string()),
    ];
    docs.extend(FIXTURES.map(|(kind, doc)| (kind, doc.to_string())));
    docs
}

/// Decoding `s` through every codec must return (not panic); we don't
/// care which codec accepts what, only that nothing unwinds or hangs.
/// An umbrella document that decodes must also resume without a panic —
/// the daemon resumes whatever its journal decodes.
fn decode_all_typed(s: &str) {
    let owned = s.to_string();
    let r = catch_unwind(AssertUnwindSafe(|| {
        let _ = GraphCheckpoint::from_text(&owned);
        let _ = RefineCheckpoint::from_text(&owned);
        let _ = PartitionCheckpoint::from_text(&owned);
        let _ = owned.parse::<McCheckpoint>();
        let _ = owned.parse::<FaultLog>();
        let _ = owned.parse::<Dist<String>>();
        if let Ok(ck) = Checkpoint::from_text(&owned) {
            let d = Defs::new();
            let _ = Checker::new(&d)
                .with_budget(Budget::states(64))
                .resume_from(Variant::WeakLabelled, ck, &CheckpointCfg::default());
        }
    }));
    assert!(r.is_ok(), "decoder or resume panicked on {s:?}");
}

#[test]
fn every_truncation_of_every_codec_is_a_typed_error_or_valid() {
    for (name, doc) in sample_docs() {
        // Cut at every byte boundary (checkpoint files die mid-write on
        // a crash, so mid-line cuts are the common case).
        for cut in 0..doc.len() {
            if !doc.is_char_boundary(cut) {
                continue;
            }
            decode_all_typed(&doc[..cut]);
        }
        assert!(
            reencode(name, &doc).is_ok(),
            "{name}: pristine document must round-trip"
        );
    }
}

#[test]
fn corrupted_bytes_are_typed_errors_never_panics() {
    for (_, doc) in sample_docs() {
        for (i, repl) in [(doc.len() / 3, "\u{7f}"), (doc.len() / 2, "99999999999")] {
            let i = (0..=i)
                .rev()
                .find(|&k| doc.is_char_boundary(k))
                .unwrap_or(0);
            let mut bad = String::new();
            bad.push_str(&doc[..i]);
            bad.push_str(repl);
            bad.push_str(&doc[i..]);
            decode_all_typed(&bad);
        }
        // Swapped tabs and a spliced-in junk record.
        decode_all_typed(&doc.replace('\t', " "));
        decode_all_typed(&format!("{doc}\nunknown\trecord\t1"));
    }
}

#[test]
fn partition_block_ids_are_bounded() {
    // A block id beyond the union size once made the refiner's restore
    // path allocate `max_id + 1` buckets — on a corrupt document that
    // is a multi-gigabyte allocation. It must be a typed decode error.
    let bad = "bpi-partition-checkpoint/v1\n\
               dims\t2\t1\n\
               rounds\t0\n\
               splits\t0\n\
               blocks\t0,4000000000,1\n\
               worklist\t\n";
    let err = PartitionCheckpoint::from_text(bad).unwrap_err();
    assert!(err.contains("out of range"), "got {err:?}");
}

/// A declared count never sizes an allocation: a refine section
/// declaring 10¹² rows once reserved 24 TB before reading one (an
/// abort, not an error), and `n1 + n2` on partition dims overflowed.
#[test]
fn hostile_dims_are_typed_errors() {
    let rows = "bpi-refine-checkpoint/v1\nrounds\t0\ndims\t1000000000000\t0\n";
    let err = RefineCheckpoint::from_text(rows).unwrap_err();
    assert!(err.contains("rows"), "got {err:?}");
    let overflow = "bpi-partition-checkpoint/v1\ndims\t18446744073709551615\t1\n\
                    rounds\t0\nsplits\t0\nblocks\t\nworklist\t\n";
    let err = PartitionCheckpoint::from_text(overflow).unwrap_err();
    assert!(err.contains("overflow"), "got {err:?}");
    // The same sections inside a parked umbrella, as the daemon decodes
    // them from its journal on restart.
    let pairwise = include_str!("fixtures/equiv-refine-pairwise.txt");
    let partition = include_str!("fixtures/equiv-refine-partition.txt");
    for doc in [
        pairwise.replace("dims\t16\t12", "dims\t1000000000000\t0"),
        partition.replace("dims\t16\t12", "dims\t18446744073709551615\t1"),
    ] {
        assert!(Checkpoint::from_text(&doc).is_err(), "accepted {doc}");
    }
}

#[test]
fn umbrella_cross_section_invariants_are_checked() {
    let complete = sample_graph_ckpt();
    let mut incomplete = complete.clone();
    incomplete.pending.push_back(0);

    // build_right with an incomplete left graph: resuming would feed
    // `Graph::from_complete_checkpoint` a pending queue — a panic
    // before hardening, a typed error now.
    let spliced = Checkpoint::BuildRight {
        left: complete.clone(),
        right: complete.clone(),
    }
    .to_text()
    .replace("pending\t", "pending\t0");
    // (Both sections got a pending entry; left completeness is checked
    // first either way.)
    let err = Checkpoint::from_text(&spliced).unwrap_err();
    assert!(err.contains("incomplete"), "got {err:?}");

    // refine whose relation dimensions disagree with the graphs: the
    // resume path's `refine_resume` asserts on this, so the codec must
    // reject it first.
    let n = complete.states.len();
    let refine_doc = Checkpoint::Refine {
        left: complete.clone(),
        right: complete.clone(),
        refine: RefineSnapshot::Pairwise(RefineCheckpoint {
            rel: vec![vec![true; n]; n],
            rounds: 0,
        }),
    }
    .to_text()
    .replace(&format!("dims\t{n}\t{n}"), &format!("dims\t{n}\t{}", n + 1));
    // The refine section's own row-width check fires — still a typed
    // error, never a panic.
    assert!(Checkpoint::from_text(&refine_doc).is_err());

    // Dimension mismatch with *consistent* refine section: build a
    // refine checkpoint over the wrong-size relation entirely.
    let small = RefineCheckpoint {
        rel: vec![vec![true; n]; 1],
        rounds: 0,
    };
    let doc = Checkpoint::Refine {
        left: complete.clone(),
        right: complete.clone(),
        refine: RefineSnapshot::Pairwise(small),
    }
    .to_text();
    let err = Checkpoint::from_text(&doc).unwrap_err();
    assert!(err.contains("over"), "got {err:?}");

    // A partition section over the wrong union: `Refiner::restore`
    // asserts on its dims, so the codec must reject it first.
    for (n1, n2) in [(n, n + 1), (n + 1, n), (1, 2 * n - 1)] {
        let doc = Checkpoint::Refine {
            left: complete.clone(),
            right: complete.clone(),
            refine: RefineSnapshot::Partition(PartitionCheckpoint {
                n1,
                n2,
                blocks: vec![0; n1 + n2],
                worklist: std::collections::VecDeque::new(),
                rounds: 0,
                splits: 0,
            }),
        }
        .to_text();
        let err = Checkpoint::from_text(&doc).unwrap_err();
        assert!(err.contains("over"), "{n1}+{n2}: got {err:?}");
    }
}

/// `k` τ-prefixes in front of `end`.
fn ladder(k: usize, end: P) -> P {
    (0..k).fold(end, |p, _| tau(p))
}

/// Journals written before the refine phase could park in the partition
/// refiner hold pairwise `bpi-refine-checkpoint/v1` sections, even for
/// partition-safe products. Such a document still decodes and resumes —
/// on the pairwise engine that wrote it — to the straight verdict.
#[test]
fn pairwise_refine_sections_on_partition_safe_products_still_resume() {
    let d = Defs::new();
    let [a] = names(["a"]);
    let p = ladder(39, out_(a, []));
    let q = ladder(39, sum(out_(a, []), out_(a, [])));
    let opts = Opts::default();
    let pool = shared_pool(&p, &q, opts.fresh_inputs);
    let g1 = Graph::build(&p, &d, &pool, opts).unwrap();
    let g2 = Graph::build(&q, &d, &pool, opts).unwrap();
    assert!(bpi_equiv::partition_safe(&g1, &g2));
    for v in [Variant::StrongLabelled, Variant::WeakLabelled] {
        // A mid-run pairwise snapshot, spliced into the umbrella format
        // exactly as the pairwise-only pipeline wrote it.
        let rck = refine_budgeted(
            v,
            &g1,
            &g2,
            &Budget::unlimited(),
            &CheckpointCfg::fuelled(3),
        )
        .err()
        .expect("fuel 3 interrupts the pairwise engine")
        .checkpoint;
        let text = format!(
            "bpi-equiv-checkpoint/v1\nphase\trefine\n#section left\n{}#section right\n{}\
             #section refine\n{}",
            GraphCheckpoint::of_graph(&g1),
            GraphCheckpoint::of_graph(&g2),
            rck
        );
        let ck = Checkpoint::from_text(&text).expect("a pairwise section decodes");
        let c = Checker::new(&d);
        let holds = match c
            .run_slice(v, &p, &q, Some(ck), usize::MAX)
            .expect("no budget")
        {
            SliceOutcome::Done { holds, .. } => holds,
            SliceOutcome::Parked(_) => panic!("unbounded fuel cannot park"),
        };
        assert_eq!(holds, c.check(v, &p, &q) == Verdict::Holds, "{v:?}");
    }
}

/// The park/unpark primitive: a check chopped into fuel slices reaches
/// the same verdict as the straight run, through checkpoints that
/// survive serialisation between every slice — the invariant the
/// daemon's preemptive scheduler and crash recovery both lean on. The
/// last pair is partition-safe and above the naive cutover, so at the
/// default dispatch its refine phase parks inside the partition
/// refiner: a block array, with no n₁×n₂ relation in the text.
#[test]
fn run_slice_parks_resumes_and_agrees_with_straight_check() {
    let d = Defs::new();
    let [a, b] = names(["a", "b"]);
    let pairs = [
        (out(a, [b], tau(out_(b, []))), out(a, [b], out_(b, []))),
        (
            out(a, [b], tau(out_(b, []))),
            out(a, [b], tau(tau(out_(b, [])))),
        ),
        (out_(a, [b]), out_(b, [a])),
        (
            ladder(39, out_(a, [])),
            ladder(39, sum(out_(a, []), out_(a, []))),
        ),
    ];
    let default_dispatch = std::env::var("BPI_ENGINE").is_err();
    let mut refine_parks = 0;
    for (p, q) in pairs {
        for v in [Variant::StrongLabelled, Variant::WeakLabelled] {
            let c = Checker::new(&d);
            let straight = c.check(v, &p, &q) == Verdict::Holds;
            for fuel in [1usize, 2, 3, 7] {
                let mut parked: Option<Checkpoint> = None;
                let mut slices = 0usize;
                let holds = loop {
                    slices += 1;
                    assert!(slices < 10_000, "slice loop diverged at fuel {fuel}");
                    match c
                        .run_slice(v, &p, &q, parked.take(), fuel)
                        .expect("no budget set")
                    {
                        SliceOutcome::Done { holds, .. } => break holds,
                        SliceOutcome::Parked(ck) => {
                            // Round-trip through the wire format, as the
                            // daemon's journal does between slices.
                            let text = ck.to_text();
                            if ck.phase() == "refine" && default_dispatch {
                                refine_parks += 1;
                                assert!(text.contains("bpi-partition-checkpoint/v1"), "{text}");
                                assert!(!text.contains("\nrow\t"), "{text}");
                            }
                            parked = Some(Checkpoint::from_text(&text).expect("own output parses"));
                        }
                    }
                };
                assert_eq!(
                    holds, straight,
                    "sliced verdict diverged at fuel {fuel} for {v:?}"
                );
                if fuel == 1 {
                    assert!(slices > 1, "fuel 1 must park at least once");
                }
            }
        }
    }
    assert!(
        refine_parks > 0 || !default_dispatch,
        "no slice parked inside the partition refiner"
    );
}

/// A retired `bpi-graph-checkpoint/v1` section, as a journal written
/// before the node table holds it, is a typed decode error: the daemon
/// reruns such a job from scratch.
#[test]
fn v1_graph_sections_are_a_typed_error() {
    let v1 = include_str!("fixtures/equiv-build-left-v1.txt");
    let err = Checkpoint::from_text(v1).unwrap_err();
    assert!(err.contains("bpi-graph-checkpoint/v2"), "got {err:?}");
}

/// A graph section of `body` records after its header, pool and pending
/// queue.
fn graph_doc(body: &str) -> String {
    format!("bpi-graph-checkpoint/v2\npool\t\npending\t\n{body}")
}

/// `nil` and then `n` τ-nodes, each over the one before it.
fn tau_nodes(n: usize) -> String {
    let taus: String = (0..n).map(|i| format!("node\ttau\t{i}\n")).collect();
    format!("node\tnil\n{taus}")
}

/// `nil`, `a<>` over it, then 22 `par` nodes each naming the node
/// before it twice: 24 records whose last node is a tree of
/// 3 × 2²² − 1 = 12,582,911 nodes.
fn doubling_nodes() -> String {
    let pars: String = (1..=22).map(|i| format!("node\tpar\t{i}\t{i}\n")).collect();
    format!("node\tnil\nnode\tout\ta\t\t0\n{pars}state\t23\n")
}

/// The node table keeps the parser's guarantees: a node names only
/// earlier nodes, a state names a node, nothing stands taller than
/// `MAX_DEPTH` or holds more than `MAX_TREE_NODES` nodes as a tree, and
/// a recursion variable stays inside its `rec`.
#[test]
fn node_table_defects_are_typed_errors() {
    const { assert!(3 * (1 << 22) - 1 > MAX_TREE_NODES) };
    for (body, defect) in [
        ("node\ttau\t1\nnode\tnil\nstate\t1\n", "not an earlier node"),
        ("node\tnil\nnode\ttau\t1\nstate\t1\n", "not an earlier node"),
        ("node\tnil\nstate\t1\n", "out of range"),
        ("node\tnil\nnode\tbang\t0\nstate\t1\n", "unknown node kind"),
        (
            "node\tnil\nstate\t0\nnode\ttau\t0\n",
            "after the node table",
        ),
        ("node\tnil\tjunk\nstate\t0\n", "no fields"),
        ("node\tvar\tX\t\nstate\t0\n", "free recursion variable"),
        (
            &format!("{}state\t{}\n", tau_nodes(MAX_DEPTH + 1), MAX_DEPTH + 1),
            "nested deeper",
        ),
        (&doubling_nodes(), "process tree of more than"),
    ] {
        let err = GraphCheckpoint::from_text(&graph_doc(body)).unwrap_err();
        assert!(err.contains(defect), "{defect}: got {err:?}");
    }
    // Heights count as `parse_process` counts them: the same chain one
    // node shorter decodes, to the term the parser reads.
    let at_cap = format!("{}state\t{MAX_DEPTH}\n", tau_nodes(MAX_DEPTH));
    let ck = GraphCheckpoint::from_text(&graph_doc(&at_cap)).expect("a MAX_DEPTH chain decodes");
    let parsed = parse_process(&format!("{}0", "tau.".repeat(MAX_DEPTH))).unwrap();
    assert_eq!(ck.states, vec![parsed]);
    // A bound recursion variable is no defect.
    let rec = "node\tvar\tX\ta\nnode\tout\ta\t\t0\nnode\trec\tX\ta\tb\t1\nstate\t2\n";
    let ck = GraphCheckpoint::from_text(&graph_doc(rec)).expect("a closed rec decodes");
    assert_eq!(
        ck.states,
        vec![parse_process("rec X(a){ a<>.X<a> }<b>").unwrap()]
    );
}

/// The parked checkpoint of a ladder check: `k` τ-prefixes in front of
/// `a<>` against the same ladder ending in `a<> + a<>`, sliced at `fuel`
/// until a slice parks in `phase`.
fn parked_ladder(k: usize, fuel: usize, phase: &str) -> Checkpoint {
    let d = Defs::new();
    let [a] = names(["a"]);
    let p = ladder(k, out_(a, []));
    let q = ladder(k, sum(out_(a, []), out_(a, [])));
    let c = Checker::new(&d);
    let mut from = None;
    loop {
        match c
            .run_slice(Variant::StrongLabelled, &p, &q, from, fuel)
            .unwrap()
        {
            SliceOutcome::Parked(ck) if ck.phase() == phase => return *ck,
            SliceOutcome::Parked(ck) => from = Some(*ck),
            SliceOutcome::Done { .. } => panic!("the check finished before parking in {phase}"),
        }
    }
}

/// A build resumed from decoded text holds decoded states beside newly
/// built ones, equal in value but not in allocation. Its next park must
/// still encode byte for byte like the same park of a run that never
/// left memory: nodes are keyed by structure, not by address.
#[test]
fn a_resumed_park_encodes_like_the_straight_one() {
    let d = Defs::new();
    let [a] = names(["a"]);
    let (p, q) = (ladder(60, out_(a, [])), out_(a, []));
    let c = Checker::new(&d);
    let v = Variant::StrongLabelled;
    let park = |from: Option<Checkpoint>| match c.run_slice(v, &p, &q, from, 25).unwrap() {
        SliceOutcome::Parked(ck) => *ck,
        SliceOutcome::Done { .. } => panic!("fuel 25 parks a 61-state build"),
    };
    let first = park(None);
    assert_eq!(first.phase(), "build_left");
    let straight = park(Some(first.clone()));
    assert_eq!(straight.phase(), "build_left");
    let decoded = Checkpoint::from_text(&first.to_text()).unwrap();
    assert_eq!(decoded, first);
    assert_eq!(park(Some(decoded)).to_text(), straight.to_text());
}

/// A τ-ladder's states nest, each inside the one before: the node table
/// writes each once, so doubling the ladder about doubles the parked
/// text (v1's concrete syntax quadrupled it). The park falls in the
/// right build, so both sections are graphs whatever engine refines.
#[test]
fn ladder_checkpoints_grow_linearly() {
    let size = |k: usize| parked_ladder(k, k + k / 2, "build_right").to_text().len();
    let (small, big) = (size(900), size(1800));
    assert!(
        big as f64 <= 2.2 * small as f64,
        "1,800-ladder {big} bytes against 900-ladder {small} bytes"
    );
}
