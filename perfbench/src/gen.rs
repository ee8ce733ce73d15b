//! Seeded inputs of the three workloads.
//!
//! Every workload draws from a fixed *catalogue* of name-independent
//! shapes, written as templates whose channel names start with [`HOLE`].
//! A pass instantiates each catalogue entry once with a fresh name
//! prefix, in a seeded order. The seed therefore changes the order, the
//! names, the job ids and which light jobs `serve-mixed` repeats, never
//! the rest of the work in a pass, and the pinned outcome of a shape
//! (`expected/*.txt`, keyed by shape) holds under every seed once the
//! prefix is substituted back.

use crate::rng::Rng;
use bpi_equiv::Variant;
use bpi_server::protocol::variant_to_str;
use bpi_server::Json;

/// Session the served workloads run in, and its definitions.
pub const SESSION: &str = "bench";
pub const DEFS: &str = "Fwd(a,b) = a(x).b<x>.Fwd<a,b>;";

/// Placeholder for the fresh name prefix in templates and pinned text.
pub const HOLE: &str = "@";

/// The six variants in `bpi_equiv::all_variants` order.
pub const ALL: [Variant; 6] = [
    Variant::StrongBarbed,
    Variant::WeakBarbed,
    Variant::StrongStep,
    Variant::WeakStep,
    Variant::StrongLabelled,
    Variant::WeakLabelled,
];

/// The daemon's slice size, `SchedCfg::default().fuel`.
pub fn daemon_fuel() -> usize {
    bpi_server::SchedCfg::default().fuel
}

/// Both sides of a check as templates.
#[derive(Clone, Debug, Default)]
pub struct Pair {
    pub left: String,
    pub right: String,
}

fn ladder(n: usize, end: &str) -> String {
    format!("{}{end}", "tau.".repeat(n))
}

fn relay(k: usize, value: &str, reversed: bool) -> String {
    let mut parts: Vec<String> = (0..k).map(|i| format!("Fwd<@x{i},@x{}>", i + 1)).collect();
    if reversed {
        parts.reverse();
    }
    parts.push(format!("@x0<{value}>"));
    parts.join(" | ")
}

const STATION: &str = "(@a<> + tau.@b<>.@a())";

fn stations(n: usize, last: &str) -> String {
    let mut parts = vec![STATION.to_string(); n - 1];
    parts.push(last.to_string());
    parts.join(" | ")
}

fn mixed(n: usize, unary: &str, binary: &str) -> String {
    format!("{} | {unary} | {binary}", ladder(n, "@a<@v,@w>"))
}

/// The four families of the corpus. `pert` is `eq` (an equivalent-looking
/// rewrite), `ne` (a perturbation meant to break equivalence) or, for
/// ladders, `sum` (an idempotent choice at the end). Which variants really
/// hold is pinned by a reference engine, not assumed.
pub fn pair(fam: &str, n: usize, pert: &str) -> Pair {
    let (left, right) = match (fam, pert) {
        ("ladder", "eq") => (ladder(n, "@a<>"), ladder(n + 2, "@a<>")),
        ("ladder", "ne") => (ladder(n, "@a<>"), ladder(n, "@b<>")),
        ("ladder", "sum") => (ladder(n, "@a<>"), ladder(n, "(@a<> + @a<>)")),
        ("relay", "eq") => (relay(n, "@v", false), relay(n, "@v", true)),
        ("relay", "ne") => (relay(n, "@v", false), relay(n, "@w", false)),
        ("stations", "eq") => (stations(n, STATION), stations(n, &format!("tau.{STATION}"))),
        ("stations", "ne") => (stations(n, STATION), stations(n, "(@a<> + tau.@b<>.@c())")),
        ("mixed", "eq") => (
            mixed(n, "@a(x).@b<x>", "@a(x,y).@c<y>"),
            mixed(n, "@a(z).@b<z>", "@a(x,y).@c<y>"),
        ),
        ("mixed", "ne") => (
            mixed(n, "@a(x).@b<x>", "@a(x,y).@c<y>"),
            mixed(n, "@a(x).@b<x>", "@a(x,y).@c<x>"),
        ),
        _ => panic!("unknown family {fam}/{pert}"),
    };
    Pair { left, right }
}

/// Replaces the placeholder with a concrete prefix.
pub fn fill(template: &str, prefix: &str) -> String {
    template.replace(HOLE, prefix)
}

/// What a corpus item asks of the library.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// `Checker::check` for one variant.
    Check(Variant),
    /// `all_variants`.
    AllVariants,
    /// `try_bisimulation_distance` at [`DISTANCE_TOL`].
    Distance(Variant),
    /// Glomers rung by index into `bpi_encodings::glomers::ladder()`.
    Rung(usize),
}

pub const DISTANCE_TOL: f64 = 1e-3;

#[derive(Clone, Debug)]
pub struct Shape {
    pub key: String,
    pub op: Op,
    pub pair: Pair,
}

fn checks(out: &mut Vec<Shape>, fam: &str, sizes: &[usize], perts: &[&str], vs: &[Variant]) {
    for &n in sizes {
        for &pert in perts {
            for &v in vs {
                out.push(Shape {
                    key: format!("{fam}/{n}/{pert}/{}", variant_to_str(v)),
                    op: Op::Check(v),
                    pair: pair(fam, n, pert),
                });
            }
        }
    }
}

/// The `check-corpus` catalogue: fresh-named pairs of the four families
/// across all six variants, plus `all_variants` and distance items and
/// the 20 Glomers rungs (which run in the first pass only).
pub fn corpus_catalogue() -> Vec<Shape> {
    use Variant::*;
    let mut out = Vec::new();
    // τ-ladders: below the naive cutover (≤ 1024 pairs), then up to
    // ~1000 states where graph build dominates.
    checks(
        &mut out,
        "ladder",
        &[6, 14, 22, 28],
        &["eq", "ne", "sum"],
        &ALL,
    );
    checks(
        &mut out,
        "ladder",
        &[60, 150, 300],
        &["eq", "ne", "sum"],
        &ALL,
    );
    checks(
        &mut out,
        "ladder",
        &[600],
        &["eq", "ne"],
        &[StrongLabelled, WeakBarbed, StrongStep, WeakLabelled],
    );
    checks(&mut out, "ladder", &[1000], &["eq", "ne"], &[StrongBarbed]);
    // `Fwd` relay chains: saturation and refinement dominate.
    checks(&mut out, "relay", &[1, 2], &["eq", "ne"], &ALL);
    // At 1024 × 1024 pairs the weak variants outrun the pairwise
    // reference that pins their verdicts; keep the strong ones.
    checks(
        &mut out,
        "relay",
        &[3],
        &["eq", "ne"],
        &[StrongLabelled, StrongBarbed, StrongStep],
    );
    // Identical stations on shared channels.
    checks(&mut out, "stations", &[2, 3, 4, 5], &["eq", "ne"], &ALL);
    // Mixed arity on one channel: the pairwise-worklist fallback.
    checks(&mut out, "mixed", &[10, 60, 250], &["eq", "ne"], &ALL);
    for (fam, n, pert) in [
        ("ladder", 60, "eq"),
        ("stations", 4, "eq"),
        ("relay", 2, "ne"),
        ("mixed", 60, "ne"),
    ] {
        out.push(Shape {
            key: format!("all/{fam}/{n}/{pert}"),
            op: Op::AllVariants,
            pair: pair(fam, n, pert),
        });
    }
    for (fam, n, pert, v) in [
        ("ladder", 14, "ne", StrongLabelled),
        ("stations", 3, "eq", WeakLabelled),
        ("relay", 2, "ne", StrongBarbed),
    ] {
        out.push(Shape {
            key: format!("dist/{fam}/{n}/{pert}/{}", variant_to_str(v)),
            op: Op::Distance(v),
            pair: pair(fam, n, pert),
        });
    }
    for (i, (label, _)) in bpi_encodings::glomers::ladder().into_iter().enumerate() {
        out.push(Shape {
            key: format!("glomers/{label}"),
            op: Op::Rung(i),
            pair: Pair::default(),
        });
    }
    out
}

/// One instantiated input: catalogue entry `shape` under `prefix`.
#[derive(Clone, Debug)]
pub struct Item {
    pub id: String,
    pub shape: usize,
    pub prefix: String,
    pub left: String,
    pub right: String,
}

fn pass_rng(seed: u64, stream: u64, pass: usize) -> Rng {
    Rng::new(
        seed.wrapping_mul(0x1000_0000_01B3)
            .wrapping_add(stream << 32)
            .wrapping_add(pass as u64),
    )
}

fn prefix(rng: &mut Rng, pass: usize, i: usize) -> String {
    format!("{}{pass}n{i}", rng.word(2))
}

/// Pass `pass` of `check-corpus`: every catalogue entry once (rungs only
/// in pass 0, so they run once each and cold), shuffled, fresh names.
pub fn corpus_pass(shapes: &[Shape], seed: u64, pass: usize) -> Vec<Item> {
    let mut rng = pass_rng(seed, 1, pass);
    let mut order: Vec<usize> = (0..shapes.len())
        .filter(|&i| pass == 0 || !matches!(shapes[i].op, Op::Rung(_)))
        .collect();
    rng.shuffle(&mut order);
    order
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            let prefix = prefix(&mut rng, pass, i);
            Item {
                id: format!("p{pass}i{i}"),
                shape: s,
                left: fill(&shapes[s].pair.left, &prefix),
                right: fill(&shapes[s].pair.right, &prefix),
                prefix,
            }
        })
        .collect()
}

/// Payload of a served job.
#[derive(Clone, Debug)]
pub enum JobKind {
    Check(Variant, Pair),
    Explore {
        src: String,
        max_states: usize,
    },
    Reliability {
        src: String,
        watch: String,
        loss: f64,
        seed: u64,
        max_steps: usize,
        samples: usize,
    },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Small,
    Explore,
    Reliability,
    Heavy,
    /// Parked in-flight checks of the `serve-recover` template.
    Parked,
}

#[derive(Clone, Debug)]
pub struct JobShape {
    pub key: String,
    pub class: Class,
    pub kind: JobKind,
}

fn check_jobs(
    out: &mut Vec<JobShape>,
    class: Class,
    fam: &str,
    sizes: &[usize],
    perts: &[&str],
    vs: &[Variant],
) {
    for &n in sizes {
        for &pert in perts {
            for &v in vs {
                out.push(JobShape {
                    key: format!("{fam}/{n}/{pert}/{}", variant_to_str(v)),
                    class,
                    kind: JobKind::Check(v, pair(fam, n, pert)),
                });
            }
        }
    }
}

/// Explore jobs appear this many times per pass, each with fresh names.
pub const EXPLORE_COPIES: usize = 4;
pub const EXPLORE_MAX_STATES: usize = 2000;

/// The job catalogue shared by `serve-mixed` (classes other than
/// `Parked`) and the `serve-recover` template (`Parked`).
pub fn job_catalogue() -> Vec<JobShape> {
    use Variant::*;
    let mut out = Vec::new();
    // Tiny checks: latency is protocol, admission, journal and scheduling.
    check_jobs(
        &mut out,
        Class::Small,
        "ladder",
        &[4, 8, 12, 16],
        &["eq", "ne", "sum"],
        &ALL,
    );
    check_jobs(
        &mut out,
        Class::Small,
        "stations",
        &[2, 3],
        &["eq", "ne"],
        &ALL,
    );
    check_jobs(&mut out, Class::Small, "relay", &[1], &["eq", "ne"], &ALL);
    check_jobs(&mut out, Class::Small, "mixed", &[10], &["eq", "ne"], &ALL);
    for (name, src) in [
        ("stations3", pair("stations", 3, "eq").left),
        ("stations4", pair("stations", 4, "eq").left),
        ("relay1", pair("relay", 1, "eq").left),
        ("relay2", pair("relay", 2, "eq").left),
        ("ladder50", pair("ladder", 50, "eq").left),
        ("mixed10", pair("mixed", 10, "eq").left),
    ] {
        out.push(JobShape {
            key: format!("explore/{name}"),
            class: Class::Explore,
            kind: JobKind::Explore {
                src,
                max_states: EXPLORE_MAX_STATES,
            },
        });
    }
    for (name, src, watch) in [
        ("pingv", "@a<@v> | @a(x).x<>".to_string(), "@v"),
        ("relay2", pair("relay", 2, "eq").left, "@x2"),
        ("stations2", pair("stations", 2, "eq").left, "@b"),
    ] {
        for loss in [0.1, 0.3, 0.5] {
            for seed in [7u64, 11] {
                out.push(JobShape {
                    key: format!("reliability/{name}/{loss}/{seed}"),
                    class: Class::Reliability,
                    kind: JobKind::Reliability {
                        src: src.clone(),
                        watch: watch.to_string(),
                        loss,
                        seed,
                        max_steps: 16,
                        samples: 200,
                    },
                });
            }
        }
    }
    // Heavy checks on the pairwise round engine; the 700-state ladders
    // exceed one slice of fuel, park and resume; `ne` takes the
    // explanation path. The five largest cost about the same, so the
    // pass's p99 falls inside that group rather than on an edge.
    check_jobs(
        &mut out,
        Class::Heavy,
        "ladder",
        &[300],
        &["sum"],
        &[StrongLabelled],
    );
    check_jobs(
        &mut out,
        Class::Heavy,
        "ladder",
        &[500],
        &["sum"],
        &[StrongBarbed],
    );
    check_jobs(
        &mut out,
        Class::Heavy,
        "ladder",
        &[700],
        &["sum"],
        &[StrongStep, StrongBarbed, StrongLabelled],
    );
    check_jobs(
        &mut out,
        Class::Heavy,
        "ladder",
        &[700],
        &["ne"],
        &[StrongLabelled],
    );
    check_jobs(
        &mut out,
        Class::Heavy,
        "ladder",
        &[60, 80],
        &["eq"],
        &[WeakLabelled],
    );
    check_jobs(
        &mut out,
        Class::Heavy,
        "relay",
        &[2],
        &["ne"],
        &[WeakLabelled],
    );
    check_jobs(
        &mut out,
        Class::Heavy,
        "relay",
        &[2],
        &["eq"],
        &[WeakBarbed],
    );
    // Template checks large enough to park in refinement at the daemon's
    // fuel, so their checkpoints carry the pair relation.
    for (n, v) in [
        (700, StrongLabelled),
        (750, StrongBarbed),
        (800, StrongStep),
        (850, StrongLabelled),
        (900, StrongBarbed),
        (950, StrongStep),
    ] {
        out.push(JobShape {
            key: format!("parked/ladder/{n}/sum/{}", variant_to_str(v)),
            class: Class::Parked,
            kind: JobKind::Check(v, pair("ladder", n, "sum")),
        });
    }
    out
}

/// Exact repeats per pass, by class: about a quarter of a pass. Heavy
/// jobs are not repeated, so every pass has the same heavy tail.
const REPEATS: [(Class, usize); 3] = [
    (Class::Small, 44),
    (Class::Explore, 6),
    (Class::Reliability, 6),
];

/// One served request and the catalogue entry it instantiates.
#[derive(Clone, Debug)]
pub struct Job {
    pub id: String,
    pub shape: usize,
    pub prefix: String,
    pub repeat: bool,
    pub req: Json,
}

/// The request document of `shape` under `prefix`.
pub fn request(shape: &JobShape, id: &str, prefix: &str) -> Json {
    let mut f: Vec<(&str, Json)> = vec![
        ("op", Json::str("")),
        ("id", Json::str(id)),
        ("session", Json::str(SESSION)),
    ];
    match &shape.kind {
        JobKind::Check(v, p) => {
            f[0].1 = Json::str("check");
            f.push(("variant", Json::str(variant_to_str(*v))));
            f.push(("left", Json::str(fill(&p.left, prefix))));
            f.push(("right", Json::str(fill(&p.right, prefix))));
        }
        JobKind::Explore { src, max_states } => {
            f[0].1 = Json::str("explore");
            f.push(("src", Json::str(fill(src, prefix))));
            f.push(("max_states", Json::num(*max_states as f64)));
        }
        JobKind::Reliability {
            src,
            watch,
            loss,
            seed,
            max_steps,
            samples,
        } => {
            f[0].1 = Json::str("reliability");
            f.push(("src", Json::str(fill(src, prefix))));
            f.push(("watch", Json::str(fill(watch, prefix))));
            f.push(("loss", Json::num(*loss)));
            f.push(("seed", Json::num(*seed as f64)));
            f.push(("max_steps", Json::num(*max_steps as f64)));
            f.push(("samples", Json::num(*samples as f64)));
        }
    }
    Json::obj(f)
}

/// Pass `pass` of `serve-mixed`: every non-parked catalogue entry once
/// (explores [`EXPLORE_COPIES`] times), shuffled and freshly named, plus a
/// fixed number of exact repeats per class, each placed after its source
/// under a new id.
pub fn job_pass(shapes: &[JobShape], seed: u64, pass: usize) -> Vec<Job> {
    let mut rng = pass_rng(seed, 2, pass);
    let mut order: Vec<usize> = Vec::new();
    for (i, s) in shapes.iter().enumerate() {
        match s.class {
            Class::Parked => {}
            Class::Explore => order.extend(std::iter::repeat_n(i, EXPLORE_COPIES)),
            _ => order.push(i),
        }
    }
    rng.shuffle(&mut order);
    let mut jobs: Vec<Job> = order
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            let prefix = prefix(&mut rng, pass, i);
            Job {
                id: String::new(),
                req: Json::Null,
                shape: s,
                prefix,
                repeat: false,
            }
        })
        .collect();
    for (class, count) in REPEATS {
        for _ in 0..count {
            let sources: Vec<usize> = (0..jobs.len())
                .filter(|&j| !jobs[j].repeat && shapes[jobs[j].shape].class == class)
                .collect();
            let src = sources[rng.below(sources.len())];
            let at = src + 1 + rng.below(jobs.len() - src);
            let copy = Job {
                repeat: true,
                ..jobs[src].clone()
            };
            jobs.insert(at, copy);
        }
    }
    for (i, j) in jobs.iter_mut().enumerate() {
        j.id = format!("p{pass}j{i}");
        j.req = request(&shapes[j.shape], &j.id, &j.prefix);
    }
    jobs
}

/// The parked in-flight checks of the `serve-recover` template.
pub fn parked_jobs(shapes: &[JobShape], seed: u64) -> Vec<Job> {
    let mut rng = pass_rng(seed, 3, 0);
    shapes
        .iter()
        .enumerate()
        .filter(|(_, s)| s.class == Class::Parked)
        .enumerate()
        .map(|(k, (i, s))| {
            let prefix = format!("{}k{k}", rng.word(2));
            let id = format!("parked{k}");
            Job {
                req: request(s, &id, &prefix),
                id,
                shape: i,
                prefix,
                repeat: false,
            }
        })
        .collect()
}

/// Text of a pass's inputs, for the determinism tests.
pub fn corpus_text(items: &[Item]) -> String {
    items
        .iter()
        .map(|it| format!("{}\t{}\t{}\t{}\n", it.id, it.shape, it.left, it.right))
        .collect()
}

pub fn jobs_text(jobs: &[Job]) -> String {
    jobs.iter().map(|j| format!("{}\n", j.req)).collect()
}
