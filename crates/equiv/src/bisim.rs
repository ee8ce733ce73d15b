//! The three behavioural equivalences of Section 3, strong and weak:
//!
//! * **barbed bisimilarity** (Definition 3) — τ-bisimulation preserving
//!   output barbs;
//! * **step bisimilarity** (Definition 5) — bisimulation over
//!   label-abstracted *step moves* (τ or any output) preserving
//!   step-barbs; the natural notion here, because in a broadcast calculus
//!   the real "reduction" is `—α̂→`, not `—τ→`;
//! * **labelled bisimilarity** (Definitions 7–8) — full label matching,
//!   with inputs matched by *input-or-discard* (`a(b)?`) and bound
//!   outputs matched up to the canonical fresh representatives chosen by
//!   [`crate::graph`].
//!
//! All six relations are decided by the same greatest-fixpoint pair
//! refinement over the two finite [`Graph`]s: start from the full
//! relation and delete pairs violating the transfer conditions until
//! stable. Each variant's transfer property is written once, as one
//! walk over its obligations: [`direction`] scores it exactly (the
//! first unmatched obligation fails the pair), and
//! [`crate::epsilon::defect`] scores it by counting. Three engines
//! compute that fixpoint — all chaotic iterations of the same monotone
//! transfer operator, hence the same greatest fixpoint:
//!
//! * the naive global sweep [`refine`] (the reference oracle, and the
//!   fastest choice on small products — no index construction);
//! * the pairwise round engine [`refine_budgeted`] (Jacobi /
//!   Kanellakis–Smolka-signature style: each round re-checks only the
//!   pairs with an edge into last round's kills; [`refine_worklist`] is
//!   its unbudgeted entry above the naive cutover);
//! * the block/splitter partition refiner of [`crate::partition`], which
//!   abandons the pair table entirely and refines a partition of the
//!   disjoint union of the two graphs.
//!
//! The naive sweep and the round engine take the kill predicate and the
//! start relation as parameters, so ε-refinement ([`crate::epsilon`])
//! runs on the same two loops.
//!
//! One dispatch picks between them by pair count and partition safety,
//! for [`refine_auto`] and for the checkpointed pipeline behind
//! [`Checker::run_slice`] (and so every served check) alike; the
//! `BPI_ENGINE` env var overrides the choice. [`Checker::check`] runs
//! it over the composed products of [`crate::compose`] when that
//! module's gate accepts, and over the memoized monolithic build
//! ([`Graph::build_cached`]) otherwise; served checks always refine
//! monolithic graphs.

use crate::checkpoint::RefineCheckpoint;
use crate::compose::Decline;
use crate::graph::{shared_pool, Graph, Opts};
use crate::partition::Partition;
use bpi_core::action::Action;
use bpi_core::name::{Name, NameSet};
use bpi_core::syntax::{Defs, P};
use bpi_obs::{counter, Counter, Det, Value};
use bpi_semantics::budget::{Budget, EngineError};
use bpi_semantics::checkpoint::{record_snapshot, CheckpointCfg, Interrupted};
use std::collections::BTreeSet;
use std::ops::ControlFlow::{self, Break, Continue};
use std::sync::{Arc, LazyLock};

// Refinement metrics. The deterministic set is *result-derived*: all
// three engines converge to the same greatest fixpoint over the same
// graphs, so the initial pair count and the surviving/killed split are
// engine-independent. How the engines get there — sweeps,
// rounds — is process-derived and advisory by contract
// (metrics_oracle.rs enforces the split).
static REFINE_RUNS: LazyLock<&Counter> =
    LazyLock::new(|| counter("equiv.refine.runs", Det::Deterministic));
static REFINE_PAIRS: LazyLock<&Counter> =
    LazyLock::new(|| counter("equiv.refine.pairs", Det::Deterministic));
static REFINE_SURVIVORS: LazyLock<&Counter> =
    LazyLock::new(|| counter("equiv.refine.survivors", Det::Deterministic));
static REFINE_KILLS: LazyLock<&Counter> =
    LazyLock::new(|| counter("equiv.refine.kills", Det::Deterministic));
static NAIVE_SWEEPS: LazyLock<&Counter> =
    LazyLock::new(|| counter("equiv.refine.naive.sweeps", Det::Advisory));
static BUDGETED_ROUNDS: LazyLock<&Counter> =
    LazyLock::new(|| counter("equiv.refine.budgeted.rounds", Det::Advisory));

/// Exit bookkeeping shared by the three engines: exactly one call per
/// public engine invocation (the small-product cutovers delegate before
/// recording, so nothing double-counts).
fn record_refine(engine: &'static str, pr: &PairRelation, n1: usize, n2: usize) {
    if !bpi_obs::metrics_enabled() && !bpi_obs::tracing_enabled() {
        return;
    }
    let pairs = n1 * n2;
    let survivors: usize = pr
        .rel
        .iter()
        .map(|row| row.iter().filter(|&&b| b).count())
        .sum();
    if bpi_obs::metrics_enabled() {
        REFINE_RUNS.inc();
        REFINE_PAIRS.add(pairs as u64);
        REFINE_SURVIVORS.add(survivors as u64);
        REFINE_KILLS.add((pairs - survivors) as u64);
    }
    bpi_obs::emit("equiv.refine", "done", || {
        vec![
            ("engine", Value::from(engine)),
            ("pairs", Value::from(pairs)),
            ("survivors", Value::from(survivors)),
            ("kills", Value::from(pairs - survivors)),
        ]
    });
}

/// Which bisimulation to check.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Variant {
    StrongBarbed,
    WeakBarbed,
    StrongStep,
    WeakStep,
    StrongLabelled,
    WeakLabelled,
}

impl Variant {
    pub fn is_weak(self) -> bool {
        matches!(
            self,
            Variant::WeakBarbed | Variant::WeakStep | Variant::WeakLabelled
        )
    }
}

/// Three-valued answer of a bisimilarity check: the graphs may be too
/// large (or the deadline too tight) to decide either way, and that is an
/// answer, not a crash.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The relation holds at the roots.
    Holds,
    /// The relation fails; the string names the variant and roots for
    /// diagnostics (use [`crate::distinguish`] for a formula witness).
    Fails(String),
    /// The engine ran out of resources before reaching a fixpoint over
    /// complete graphs.
    Inconclusive(EngineError),
}

impl Verdict {
    /// `true` only for [`Verdict::Holds`] — an inconclusive check does
    /// *not* count as holding.
    pub fn holds(&self) -> bool {
        matches!(self, Verdict::Holds)
    }

    pub fn is_inconclusive(&self) -> bool {
        matches!(self, Verdict::Inconclusive(_))
    }
}

/// Which graphs [`Checker::check`] refined over, and why: the `graphs`
/// and `reason` fields of its `verdict` event.
#[derive(Clone, Copy)]
enum Route {
    /// The gate accepted: the composed products.
    Composed,
    /// The gate declined: the monolithic graphs.
    Declined(Decline),
    /// `BPI_COMPOSE=off` forced the monolithic graphs.
    Forced,
}

impl Route {
    fn graphs(self) -> &'static str {
        match self {
            Route::Composed => "composed",
            Route::Declined(_) | Route::Forced => "monolithic",
        }
    }

    fn reason(self) -> &'static str {
        match self {
            Route::Composed => "accepted",
            Route::Declined(d) => d.as_str(),
            Route::Forced => "off",
        }
    }
}

/// Both graphs of a check and the greatest bisimulation between them.
type Fixpoint = (Arc<Graph>, Arc<Graph>, PairRelation);

/// Bisimilarity checker over a definition environment.
pub struct Checker<'d> {
    pub defs: &'d Defs,
    pub opts: Opts,
    /// Resource envelope for graph construction (deadline/cancellation
    /// are polled during the build; the state ceiling composes with
    /// `opts.max_states` by taking the minimum).
    pub budget: Budget,
}

/// A computed candidate relation between two graphs, exposed so that the
/// congruence layer (Definition 11) can re-run one-step conditions
/// against the fixpoint.
pub struct PairRelation {
    pub rel: Vec<Vec<bool>>,
}

impl PairRelation {
    pub(crate) fn full(n1: usize, n2: usize) -> PairRelation {
        PairRelation {
            rel: vec![vec![true; n2]; n1],
        }
    }

    pub fn holds(&self, i: usize, j: usize) -> bool {
        self.rel[i][j]
    }
}

/// A caller-supplied "are these residuals related" oracle, possibly
/// transposed (for the symmetric direction of the transfer property).
#[derive(Clone, Copy)]
pub struct RelView<'a> {
    rel: &'a [Vec<bool>],
    transposed: bool,
}

impl<'a> RelView<'a> {
    pub fn new(rel: &'a [Vec<bool>], transposed: bool) -> RelView<'a> {
        RelView { rel, transposed }
    }

    pub fn holds(&self, i: usize, j: usize) -> bool {
        if self.transposed {
            self.rel[j][i]
        } else {
            self.rel[i][j]
        }
    }
}

impl<'d> Checker<'d> {
    pub fn new(defs: &'d Defs) -> Checker<'d> {
        Checker {
            defs,
            opts: Opts::default(),
            budget: Budget::unlimited(),
        }
    }

    pub fn with_opts(defs: &'d Defs, opts: Opts) -> Checker<'d> {
        Checker {
            defs,
            opts,
            budget: Budget::unlimited(),
        }
    }

    /// Replaces the checker's resource envelope.
    pub fn with_budget(mut self, budget: Budget) -> Checker<'d> {
        self.budget = budget;
        self
    }

    /// Returns the checker unchanged: every check runs on the calling
    /// thread. Kept only because the benchmark harness (`perfbench/`)
    /// calls `with_threads(1)`; drop it with the next benchmark change.
    pub fn with_threads(self, threads: usize) -> Checker<'d> {
        let _ = threads;
        self
    }

    /// Decides `p ~ᵥ q` for the chosen variant as a plain bool.
    ///
    /// An [`Verdict::Inconclusive`] outcome (graphs exceeded the state
    /// budget, deadline passed, cancelled) maps to `false`: the checker
    /// could not certify the equivalence. Use [`Checker::check`] when the
    /// distinction matters.
    pub fn bisimilar(&self, v: Variant, p: &P, q: &P) -> bool {
        self.check(v, p, q).holds()
    }

    /// Decides `p ~ᵥ q` with a three-valued [`Verdict`]: resource
    /// exhaustion is reported as [`Verdict::Inconclusive`] instead of a
    /// panic or a silent `false`. The state budget applies to the graphs
    /// the dispatch of [`Checker::try_fixpoint`] refines over, so a
    /// composed product can get a definite verdict where its monolithic
    /// graph is over the cap.
    ///
    /// The `equiv.check` `verdict` event names those graphs (`graphs`:
    /// `composed` or `monolithic`) and why (`reason`: `accepted`, the
    /// gate's [`crate::compose::Decline`] reason, or `off` under the
    /// `BPI_COMPOSE=off` override). A budget error inside the compose
    /// path reports `composed`/`accepted`: the gate never declined and
    /// no monolithic graph was built.
    pub fn check(&self, v: Variant, p: &P, q: &P) -> Verdict {
        let _span = bpi_obs::span("equiv.check", "check");
        let (route, fixpoint) = self.fixpoint(v, p, q);
        let verdict = match fixpoint {
            Ok((_, _, rel)) => {
                if rel.holds(0, 0) {
                    Verdict::Holds
                } else {
                    Verdict::Fails(format!("{v:?} fails at the root pair"))
                }
            }
            Err(e) => Verdict::Inconclusive(e),
        };
        bpi_obs::emit("equiv.check", "verdict", || {
            vec![
                ("variant", Value::from(format!("{v:?}"))),
                (
                    "verdict",
                    Value::from(match &verdict {
                        Verdict::Holds => "holds".to_string(),
                        Verdict::Fails(_) => "fails".to_string(),
                        Verdict::Inconclusive(e) => format!("inconclusive: {e}"),
                    }),
                ),
                ("graphs", Value::from(route.graphs())),
                ("reason", Value::from(route.reason())),
            ]
        });
        verdict
    }

    /// Computes the greatest bisimulation between the graphs of `p` and
    /// `q` for the chosen variant, with the engine [`refine_auto`] picks
    /// for the product. The graph side is a dispatch too: when
    /// [`crate::compose::try_compose_pair`]'s gate accepts, the
    /// symmetry-reduced products of the minimised components, which are
    /// strongly labelled-bisimilar to the monolithic graphs; otherwise
    /// the monolithic graphs. Both come from global memos, so the six
    /// variants of [`all_variants`] and the congruence/diagnostic layers
    /// share one build per *(process, pool)*.
    ///
    /// `Err` when a graph the dispatch builds exceeds the state budget
    /// (`opts.max_states` ∧ `budget`) or the budget's
    /// deadline/cancellation fires. Under compose the cap applies to
    /// each component graph and each composed product, not to the
    /// monolithic graph, which is never built.
    pub fn try_fixpoint(
        &self,
        v: Variant,
        p: &P,
        q: &P,
    ) -> Result<(Arc<Graph>, Arc<Graph>, PairRelation), EngineError> {
        self.fixpoint(v, p, q).1
    }

    /// [`Checker::try_fixpoint`], with the route its graph side took:
    /// the composed pair when the gate accepts, the monolithic pair
    /// otherwise.
    fn fixpoint(&self, v: Variant, p: &P, q: &P) -> (Route, Result<Fixpoint, EngineError>) {
        let pool = shared_pool(p, q, self.opts.fresh_inputs);
        let (route, composed) = if crate::compose::forced_off() {
            (Route::Forced, None)
        } else {
            match crate::compose::try_compose_pair(p, q, self.defs, &pool, self.opts, &self.budget)
            {
                Ok(Ok(pair)) => (Route::Composed, Some(Ok(pair))),
                Ok(Err(d)) => (Route::Declined(d), None),
                Err(e) => (Route::Composed, Some(Err(e))),
            }
        };
        let graphs = composed.unwrap_or_else(|| {
            let build = |t: &P| Graph::build_cached(t, self.defs, &pool, self.opts, &self.budget);
            build(p).and_then(|g1| Ok((g1, build(q)?)))
        });
        let fixpoint = graphs.map(|(g1, g2)| {
            let rel = refine_auto(v, &g1, &g2, 1);
            (g1, g2, rel)
        });
        (route, fixpoint)
    }

    /// Convenience: strong labelled bisimilarity `p ~ q`.
    ///
    /// ```
    /// use bpi_core::{parse_process, syntax::Defs};
    /// use bpi_equiv::Checker;
    /// let defs = Defs::new();
    /// let c = Checker::new(&defs);
    /// let p = parse_process("new a. (a<v> | a(x).x<>)").unwrap();
    /// let q = parse_process("tau.v<>").unwrap();
    /// assert!(c.strong(&p, &q));
    /// ```
    pub fn strong(&self, p: &P, q: &P) -> bool {
        self.bisimilar(Variant::StrongLabelled, p, q)
    }

    /// Convenience: weak labelled bisimilarity `p ≈ q`.
    pub fn weak(&self, p: &P, q: &P) -> bool {
        self.bisimilar(Variant::WeakLabelled, p, q)
    }
}

/// Runs the naive pair-refinement fixpoint: sweep the full relation,
/// deleting violating pairs, until a sweep deletes nothing.
///
/// Kept as the reference oracle for [`refine_worklist`] (both converge
/// to the same greatest fixpoint of the monotone transfer operator; the
/// proptests in this crate check the agreement on random pairs).
pub fn refine(v: Variant, g1: &Graph, g2: &Graph) -> PairRelation {
    let (n1, n2) = (g1.len(), g2.len());
    let mut pr = PairRelation::full(n1, n2);
    NAIVE_SWEEPS.add(sweep(&mut pr, |i, j, rel| violates(v, g1, i, g2, j, rel)));
    record_refine("naive", &pr, n1, n2);
    pr
}

/// The exact kill predicate: whether `(i, j)` fails the transfer
/// property against `rel` in either [`direction`]. The backward
/// direction is only computed when the forward one holds.
fn violates(v: Variant, g1: &Graph, i: usize, g2: &Graph, j: usize, rel: &[Vec<bool>]) -> bool {
    !(direction(v, g1, i, g2, j, RelView::new(rel, false))
        && direction(v, g2, j, g1, i, RelView::new(rel, true)))
}

/// The naive sweep behind [`refine`] and the ε refiners: deletes every
/// pair `kill` flags against the relation as the sweep found it (kills
/// apply at the end of the sweep), until a sweep deletes nothing.
/// Returns the number of sweeps.
///
/// `kill` must be monotone: a pair it flags against a relation stays
/// flagged against every smaller one. Then every start relation that
/// contains the greatest fixpoint ends on that fixpoint, which is what
/// lets the ε bisection start from the relation of a larger ε.
pub(crate) fn sweep(
    pr: &mut PairRelation,
    mut kill: impl FnMut(usize, usize, &[Vec<bool>]) -> bool,
) -> u64 {
    let mut sweeps = 0;
    loop {
        sweeps += 1;
        let mut kills = Vec::new();
        for (i, row) in pr.rel.iter().enumerate() {
            for (j, &related) in row.iter().enumerate() {
                if related && kill(i, j, &pr.rel) {
                    kills.push((i, j));
                }
            }
        }
        if kills.is_empty() {
            return sweeps;
        }
        for (i, j) in kills {
            pr.rel[i][j] = false;
        }
    }
}

/// Pair-count threshold at or below which the dispatch runs the naive
/// sweep: on small products, building the dependency index and the
/// queued bitmap costs more than it saves (the BENCH_2 `scaled-sums`
/// family sits at ~289 pairs and regressed to 0.72× under the worklist
/// before this cutover). The crossover is recorded in `DESIGN.md` §8.
pub(crate) const NAIVE_MAX_PAIRS: usize = 1024;

/// The pairwise refinement with no budget: the same greatest fixpoint
/// as [`refine`], but killing a pair `(x, y)` re-examines only the pairs
/// in `deps₁(x) × deps₂(y)` whose checks could have referenced it,
/// instead of re-sweeping all `n₁·n₂` pairs.
///
/// At or below `NAIVE_MAX_PAIRS` pairs this runs [`refine`]: the
/// fixpoints are identical, and the naive sweep wins once the index
/// can't amortise. Above it, this is the round engine of
/// [`refine_budgeted`] under an unlimited budget.
pub fn refine_worklist(v: Variant, g1: &Graph, g2: &Graph) -> PairRelation {
    if g1.len() * g2.len() <= NAIVE_MAX_PAIRS {
        refine(v, g1, g2)
    } else {
        refine_pairwise(v, g1, g2)
    }
}

/// The pairwise round engine with no small-product cutover and nothing
/// to interrupt it.
fn refine_pairwise(v: Variant, g1: &Graph, g2: &Graph) -> PairRelation {
    refine_budgeted(v, g1, g2, &Budget::unlimited(), &CheckpointCfg::default())
        .expect("inert config and unlimited budget cannot interrupt")
}

/// The engine [`engine_for`] resolves to for one product.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Engine {
    Naive,
    Worklist,
    Partition,
}

/// The pure dispatch decision, factored out so the regression tests can
/// pin it: the naive sweep at or below [`NAIVE_MAX_PAIRS`] pairs, the
/// partition refiner above it whenever the product is partition-safe
/// (uniform input arities — see [`crate::partition::partition_safe`]),
/// the pairwise round engine otherwise.
pub(crate) fn auto_engine(pairs: usize, partition_safe: bool) -> Engine {
    if pairs <= NAIVE_MAX_PAIRS {
        Engine::Naive
    } else if partition_safe {
        Engine::Partition
    } else {
        Engine::Worklist
    }
}

/// The `BPI_ENGINE` override, re-read on every dispatch (tests flip it
/// mid-process): `partition`, `worklist` or `naive` force that engine;
/// empty, unset or `auto` defer to [`auto_engine`]; anything else warns
/// once and falls back to the automatic choice, like `BPI_COMPOSE`.
pub(crate) fn engine_override() -> Option<Engine> {
    let raw = std::env::var("BPI_ENGINE").ok()?;
    match raw.trim().to_ascii_lowercase().as_str() {
        "" | "auto" => None,
        "naive" => Some(Engine::Naive),
        "worklist" => Some(Engine::Worklist),
        "partition" => Some(Engine::Partition),
        other => {
            bpi_obs::warn_once(
                "equiv.engine",
                &format!(
                    "ignoring unrecognised BPI_ENGINE value {other:?} \
                     (expected partition, worklist, naive or auto)"
                ),
            );
            None
        }
    }
}

/// The one refinement dispatch, shared by [`refine_auto`] and the
/// checkpointed pipeline ([`Checker::run_slice`], hence every served
/// check): the `BPI_ENGINE` override when set, [`auto_engine`]
/// otherwise. A forced partition on a product mixing input arities on a
/// channel (where no partition agrees with the pairwise relation — see
/// `partition_safe`) falls back to the pairwise engine.
pub(crate) fn engine_for(g1: &Graph, g2: &Graph) -> Engine {
    let safe = crate::partition::partition_safe(g1, g2);
    match engine_override().unwrap_or_else(|| auto_engine(g1.len() * g2.len(), safe)) {
        Engine::Partition if !safe => Engine::Worklist,
        e => e,
    }
}

/// The cross-pair relation of a finished partition, recorded like every
/// other engine's exit.
pub(crate) fn partition_relation(part: &Partition) -> PairRelation {
    let pr = crate::partition::partition_to_relation(part);
    record_refine("partition", &pr, part.n1, part.n2);
    pr
}

/// Engine dispatch used by the [`Checker`] and every relation-producing
/// caller: the naive sweep at or below `NAIVE_MAX_PAIRS` pairs, the
/// block/splitter partition refiner ([`crate::partition`]) above it, the
/// pairwise round engine when the product mixes input arities on a
/// channel. All engines return the same relation, so the choice is
/// invisible to callers; `BPI_ENGINE` overrides it. The checkpointed
/// pipeline behind [`Checker::run_slice`] dispatches the same way.
///
/// `threads` is ignored: every engine is sequential. The argument stays
/// only so the benchmark harness, which calls `refine_auto(v, g1, g2,
/// 1)`, keeps compiling.
pub fn refine_auto(v: Variant, g1: &Graph, g2: &Graph, threads: usize) -> PairRelation {
    let _ = threads;
    match engine_for(g1, g2) {
        Engine::Naive => refine(v, g1, g2),
        Engine::Partition => partition_relation(&crate::partition::refine_partition(v, g1, g2)),
        Engine::Worklist => refine_pairwise(v, g1, g2),
    }
}

/// The pairwise round engine (Jacobi iteration in the
/// Kanellakis–Smolka signature style) under a [`Budget`] and a
/// [`CheckpointCfg`]: each round re-checks the current dirty pairs
/// against the relation as the previous round left it, kills the
/// violators, and seeds the next dirty set from the dependency sets of
/// the kills (built lazily — bisimilar graphs never pay for them). The
/// engine polls the budget and the fuel at every round boundary, and
/// any interruption — deadline, cancellation, fuel exhaustion — returns
/// [`Interrupted`] carrying a [`RefineCheckpoint`] instead of discarding
/// the rounds already run.
///
/// **Why a checkpoint is just the relation.** All engines here are
/// chaotic iterations of the same monotone transfer operator, so every
/// intermediate relation is a superset of the greatest fixpoint.
/// [`refine_resume`] therefore only needs the relation snapshot: it
/// re-seeds the dirty set with *all* surviving pairs and iterates on.
///
/// Deterministic refinement metrics (`equiv.refine.*`) are recorded
/// exactly once, on completion — an interrupted run records nothing, so
/// an interrupted-and-resumed run leaves the same deterministic counter
/// trail as an uninterrupted one.
pub fn refine_budgeted(
    v: Variant,
    g1: &Graph,
    g2: &Graph,
    budget: &Budget,
    cfg: &CheckpointCfg<RefineCheckpoint>,
) -> Result<PairRelation, Interrupted<RefineCheckpoint>> {
    let start = RefineCheckpoint {
        rel: PairRelation::full(g1.len(), g2.len()).rel,
        rounds: 0,
    };
    refine_rounds(v, g1, g2, budget, cfg, start)
}

/// Continues [`refine_budgeted`] from a snapshot taken at a round
/// boundary (see there for why the relation alone suffices). The
/// snapshot's dimensions must match the graphs.
pub fn refine_resume(
    v: Variant,
    g1: &Graph,
    g2: &Graph,
    budget: &Budget,
    cfg: &CheckpointCfg<RefineCheckpoint>,
    ckpt: RefineCheckpoint,
) -> Result<PairRelation, Interrupted<RefineCheckpoint>> {
    assert_eq!(ckpt.rel.len(), g1.len(), "checkpoint/graph row mismatch");
    assert!(
        ckpt.rel.iter().all(|row| row.len() == g2.len()),
        "checkpoint/graph column mismatch"
    );
    bpi_semantics::checkpoint::record_resume("refine");
    refine_rounds(v, g1, g2, budget, cfg, ckpt)
}

/// The exact transfer property on [`run_rounds`], recorded as the
/// `budgeted` engine.
fn refine_rounds(
    v: Variant,
    g1: &Graph,
    g2: &Graph,
    budget: &Budget,
    cfg: &CheckpointCfg<RefineCheckpoint>,
    start: RefineCheckpoint,
) -> Result<PairRelation, Interrupted<RefineCheckpoint>> {
    let (pr, rounds) = run_rounds(v, g1, g2, budget, cfg, start, |i, j, rel| {
        violates(v, g1, i, g2, j, rel)
    })?;
    BUDGETED_ROUNDS.add(rounds);
    record_refine("budgeted", &pr, g1.len(), g2.len());
    Ok(pr)
}

/// The round engine behind [`refine_budgeted`] and the ε refiner, for
/// any monotone `kill` predicate (see [`sweep`]). It runs on from
/// `start`'s round count, and its first round re-checks every pair
/// `start` relates, so `start` may be any superset of the fixpoint. The
/// dependency sets are `v`'s. Returns the fixpoint and the round count
/// it ended on, and records nothing: each caller records its own engine.
pub(crate) fn run_rounds(
    v: Variant,
    g1: &Graph,
    g2: &Graph,
    budget: &Budget,
    cfg: &CheckpointCfg<RefineCheckpoint>,
    start: RefineCheckpoint,
    mut kill: impl FnMut(usize, usize, &[Vec<bool>]) -> bool,
) -> Result<(PairRelation, u64), Interrupted<RefineCheckpoint>> {
    let (n1, n2) = (g1.len(), g2.len());
    let RefineCheckpoint { rel, mut rounds } = start;
    let mut pr = PairRelation { rel };
    // Seed the dirty set with every surviving pair (for a fresh run, all
    // of them): a superset of the pairs any engine would re-examine, so
    // the chaotic iteration still converges to the same fixpoint.
    let mut dirty: Vec<(u32, u32)> = (0..n1 as u32)
        .flat_map(|i| (0..n2 as u32).map(move |j| (i, j)))
        .filter(|&(i, j)| pr.rel[i as usize][j as usize])
        .collect();
    let mut deps = None;
    let mut queued = vec![false; n1 * n2];
    while !dirty.is_empty() {
        if let Err(error) = cfg.poll(budget, 0) {
            record_snapshot("interrupt");
            return Err(Interrupted {
                error,
                checkpoint: RefineCheckpoint {
                    rel: pr.rel,
                    rounds,
                },
            });
        }
        // The round's kill set: the dirty pairs still related that now
        // violate the transfer property against this round's relation.
        let kills: Vec<(u32, u32)> = dirty
            .iter()
            .copied()
            .filter(|&(i, j)| {
                let (i, j) = (i as usize, j as usize);
                pr.rel[i][j] && kill(i, j, &pr.rel)
            })
            .collect();
        rounds += 1;
        if kills.is_empty() {
            break;
        }
        for &(i, j) in &kills {
            pr.rel[i as usize][j as usize] = false;
        }
        let (dep1, dep2) =
            deps.get_or_insert_with(|| (g1.dependents(v.is_weak()), g2.dependents(v.is_weak())));
        let mut next: Vec<(u32, u32)> = Vec::new();
        for &(i, j) in &kills {
            for &pi in &dep1[i as usize] {
                for &pj in &dep2[j as usize] {
                    if pr.rel[pi][pj] && !queued[pi * n2 + pj] {
                        queued[pi * n2 + pj] = true;
                        next.push((pi as u32, pj as u32));
                    }
                }
            }
        }
        for &(i, j) in &next {
            queued[i as usize * n2 + j as usize] = false;
        }
        next.sort_unstable();
        dirty = next;
    }
    Ok((pr, rounds))
}

/// One direction of the transfer property: every move of `(ga, i)` is
/// matched by `(gb, j)` with `rel`-related residuals. Exposed for the
/// congruence layer (`~₊` of Definition 11 is exactly "one `direction`
/// step each way into the bisimilarity fixpoint").
///
/// This is the transfer walk (`transfer`) scored exactly: the first
/// unmatched obligation ends the walk.
pub fn direction(v: Variant, ga: &Graph, i: usize, gb: &Graph, j: usize, rel: RelView<'_>) -> bool {
    transfer(v, ga, i, gb, j, rel, &mut |matched| {
        if matched {
            Continue(())
        } else {
            Break(())
        }
    })
    .is_continue()
}

/// Walks one direction of `v`'s transfer property, the one definition
/// of Definitions 3, 5 and 7–8 that [`direction`] and
/// [`crate::epsilon::defect`] score in their own ways. Each obligation
/// of `(ga, i)` (a move to match, a discard to mirror) is answered by
/// `(gb, j)` into `rel` or not, and `note` scores the answer; `Break`
/// from `note` ends the walk. A barb `i` exposes and `j` lacks ends it
/// outright with `Break`: a missing observable is not an obligation
/// that a match could answer.
pub(crate) fn transfer(
    v: Variant,
    ga: &Graph,
    i: usize,
    gb: &Graph,
    j: usize,
    rel: RelView<'_>,
    note: &mut impl FnMut(bool) -> ControlFlow<()>,
) -> ControlFlow<()> {
    match v {
        Variant::StrongBarbed => {
            // Barbs: p ↓a ⇒ q ↓a.
            barbs_within(&ga.strong_barbs(i), &gb.strong_barbs(j))?;
            // τ moves matched by single τ moves.
            for i2 in ga.tau_succs(i) {
                note(gb.tau_succs(j).any(|j2| rel.holds(i2, j2)))?;
            }
        }
        Variant::WeakBarbed => {
            barbs_within(&ga.weak_barbs(i), &gb.weak_barbs(j))?;
            for i2 in ga.tau_succs(i) {
                note(gb.tau_closure(j).iter().any(|&j2| rel.holds(i2, j2)))?;
            }
        }
        Variant::StrongStep => {
            // ↓ₐ^φ = immediate output subject.
            barbs_within(&ga.strong_barbs(i), &gb.strong_barbs(j))?;
            // Any step move matched by any single step move (labels are
            // abstracted away — the essence of Definition 5).
            for (_, i2) in ga.step_edges(i) {
                note(gb.step_edges(j).any(|(_, j2)| rel.holds(i2, j2)))?;
            }
        }
        Variant::WeakStep => {
            barbs_within(&ga.weak_step_barbs(i), &gb.weak_step_barbs(j))?;
            for (_, i2) in ga.step_edges(i) {
                note(gb.step_closure(j).iter().any(|&j2| rel.holds(i2, j2)))?;
            }
        }
        Variant::StrongLabelled => strong_labelled(ga, i, gb, j, rel, note)?,
        Variant::WeakLabelled => weak_labelled(ga, i, gb, j, rel, note)?,
    }
    Continue(())
}

/// `Break` when `ba` holds a barb `bb` lacks.
fn barbs_within(ba: &NameSet, bb: &NameSet) -> ControlFlow<()> {
    if ba.iter().all(|a| bb.contains(a)) {
        Continue(())
    } else {
        Break(())
    }
}

fn strong_labelled(
    ga: &Graph,
    i: usize,
    gb: &Graph,
    j: usize,
    rel: RelView<'_>,
    note: &mut impl FnMut(bool) -> ControlFlow<()>,
) -> ControlFlow<()> {
    // 1–3: explicit moves of i. Labels are interned per graph, so
    // cross-graph matching translates i's label into j's id space once
    // and then compares dense ids instead of structural `Action`s.
    for (lid, i2) in ga.edge_ids(i) {
        let act = ga.label(lid);
        let blid = gb.csr().label_id(act);
        let matched = match act {
            Action::Tau => gb.tau_succs(j).any(|j2| rel.holds(i2, j2)),
            Action::Output { .. } => match blid {
                Some(bl) => gb.edge_ids(j).any(|(l, j2)| l == bl && rel.holds(i2, j2)),
                None => false,
            },
            Action::Input { chan, .. } => {
                // a(b)? moves of j: real inputs with this label, or j
                // itself when j discards the channel.
                let real = match blid {
                    Some(bl) => gb.edge_ids(j).any(|(l, j2)| l == bl && rel.holds(i2, j2)),
                    None => false,
                };
                real || (gb.state_discards(j, *chan) && rel.holds(i2, j))
            }
            Action::Discard { .. } => true, // not stored as edges
        };
        note(matched)?;
    }
    // 4: discard self-loops of i: i —a(b)?→ i for every a it discards.
    for a in &ga.discarding[i] {
        if gb.state_discards(j, a) {
            // j self-loops too; (i, j) is the current pair.
            note(true)?;
            continue;
        }
        // j is listening on a: each of its concrete a(b̃) inputs is an
        // a(b̃)?-move candidate; for every tuple (all pool tuples appear
        // as labels) some receipt of j must stay related to i.
        let mut labels: BTreeSet<u32> = BTreeSet::new();
        for (lid, _) in gb.edge_ids(j) {
            let act = gb.label(lid);
            if act.is_input() && act.subject() == Some(a) {
                labels.insert(lid);
            }
        }
        if labels.is_empty() {
            // j neither discards nor receives on a within the pool
            // (arity anomaly): cannot match i's discard move.
            note(false)?;
        }
        for lab in labels {
            note(gb.edge_ids(j).any(|(l, j2)| l == lab && rel.holds(i, j2)))?;
        }
    }
    Continue(())
}

fn weak_labelled(
    ga: &Graph,
    i: usize,
    gb: &Graph,
    j: usize,
    rel: RelView<'_>,
    note: &mut impl FnMut(bool) -> ControlFlow<()>,
) -> ControlFlow<()> {
    for (lid, i2) in ga.edge_ids(i) {
        let act = ga.label(lid);
        let matched = match act {
            Action::Tau => gb.tau_closure(j).iter().any(|&j2| rel.holds(i2, j2)),
            Action::Output { .. } => gb.weak_label(j, act).iter().any(|&j2| rel.holds(i2, j2)),
            Action::Input { chan, .. } => {
                // Candidates are the weak same-label moves plus the weak
                // discards; checked in sequence so the cached sets stay
                // shared instead of being merged into a scratch set.
                gb.weak_label(j, act).iter().any(|&j2| rel.holds(i2, j2))
                    || gb
                        .weak_discard(j, *chan)
                        .iter()
                        .any(|&j2| rel.holds(i2, j2))
            }
            Action::Discard { .. } => true,
        };
        note(matched)?;
    }
    for a in &ga.discarding[i] {
        // i —a(b̃)?→ i for every tuple b̃; j must weakly match each.
        let labels = gb.weak_input_labels(j, a);
        let wdisc = gb.weak_discard(j, a);
        let wdisc_related = wdisc.iter().any(|&j2| rel.holds(i, j2));
        for lab in labels.iter() {
            note(wdisc_related || gb.weak_label(j, lab).iter().any(|&j2| rel.holds(i, j2)))?;
        }
        // Tuples at arities nobody receives at are matched only through a
        // weak discard.
        let ar_cov: BTreeSet<usize> = labels.iter().map(|l| l.objects().len()).collect();
        let ar_a = ga.arities_on(a);
        let ar_b = gb.arities_on(a);
        let uncovered = (ar_a.is_empty() && ar_b.is_empty())
            || ar_a.iter().chain(ar_b.iter()).any(|n| !ar_cov.contains(n));
        if uncovered {
            note(wdisc_related)?;
        }
    }
    Continue(())
}

/// Convenience free functions mirroring the paper's notation.
pub fn strong_bisimilar(p: &P, q: &P, defs: &Defs) -> bool {
    Checker::new(defs).strong(p, q)
}

pub fn weak_bisimilar(p: &P, q: &P, defs: &Defs) -> bool {
    Checker::new(defs).weak(p, q)
}

pub fn strong_barbed_bisimilar(p: &P, q: &P, defs: &Defs) -> bool {
    Checker::new(defs).bisimilar(Variant::StrongBarbed, p, q)
}

pub fn weak_barbed_bisimilar(p: &P, q: &P, defs: &Defs) -> bool {
    Checker::new(defs).bisimilar(Variant::WeakBarbed, p, q)
}

pub fn strong_step_bisimilar(p: &P, q: &P, defs: &Defs) -> bool {
    Checker::new(defs).bisimilar(Variant::StrongStep, p, q)
}

pub fn weak_step_bisimilar(p: &P, q: &P, defs: &Defs) -> bool {
    Checker::new(defs).bisimilar(Variant::WeakStep, p, q)
}

/// Checks all six variants at once (used by the Theorem 1 agreement
/// experiment).
pub fn all_variants(p: &P, q: &P, defs: &Defs) -> [(Variant, bool); 6] {
    let c = Checker::new(defs);
    [
        Variant::StrongBarbed,
        Variant::WeakBarbed,
        Variant::StrongStep,
        Variant::WeakStep,
        Variant::StrongLabelled,
        Variant::WeakLabelled,
    ]
    .map(|v| (v, c.bisimilar(v, p, q)))
}

/// The subset of the pool a state graph mentions; useful in diagnostics.
pub fn graph_channels(g: &Graph) -> Vec<Name> {
    let mut s = bpi_core::name::NameSet::new();
    for act in g.csr().labels() {
        if let Some(a) = act.subject() {
            s.insert(a);
        }
    }
    s.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpi_core::builder::*;

    fn defs() -> Defs {
        Defs::new()
    }

    #[test]
    fn identical_processes_are_bisimilar_everywhere() {
        let d = defs();
        let [a, b, x] = names(["a", "b", "x"]);
        let p = sum(out(a, [b], inp_(a, [x])), tau(out_(b, [])));
        for (v, r) in all_variants(&p, &p.clone(), &d) {
            assert!(r, "{v:?} failed on identical processes");
        }
    }

    #[test]
    fn output_objects_matter_for_labelled_not_step() {
        // Remark 2.3's p₂ = b̄a.ā and q₂ = b̄c.ā: step-bisimilar (labels
        // are abstracted) but NOT labelled bisimilar.
        let d = defs();
        let [a, b, c] = names(["a", "b", "c"]);
        let p2 = out(b, [a], out_(a, []));
        let q2 = out(b, [c], out_(a, []));
        assert!(strong_step_bisimilar(&p2, &q2, &d));
        assert!(!strong_bisimilar(&p2, &q2, &d));
    }

    #[test]
    fn remark1_restriction_breaks_barbed() {
        // p₁ = āb ~b q₁ = āb.c̄d, but νa p₁ and νa q₁ are not barbed
        // bisimilar (Remark 1).
        let d = defs();
        let [a, b, c, dd] = names(["a", "b", "c", "d"]);
        let p1 = out_(a, [b]);
        let q1 = out(a, [b], out_(c, [dd]));
        assert!(strong_barbed_bisimilar(&p1, &q1, &d));
        let np = new(a, p1);
        let nq = new(a, q1);
        assert!(!strong_barbed_bisimilar(&np, &nq, &d));
        assert!(!weak_barbed_bisimilar(&np, &nq, &d));
    }

    #[test]
    fn restricted_outputs_differ_in_step_but_not_barbed() {
        // Remark 2.2: p₂ = b̄a.ā ~φ q₂ = b̄c.ā but νa p₂ ≁φ νa q₂:
        // after the restriction, p₂'s second output is still a barb for
        // step-observation while q₂'s is not.
        let d = defs();
        let [a, b, c] = names(["a", "b", "c"]);
        let p2 = new(a, out(b, [a], out_(a, [])));
        let q2 = new(a, out(b, [c], out_(a, [])));
        assert!(!strong_step_bisimilar(&p2, &q2, &d));
    }

    #[test]
    fn tau_prefix_ignored_weakly() {
        let d = defs();
        let a = bpi_core::Name::new("a");
        let p = tau(out_(a, []));
        let q = out_(a, []);
        assert!(!strong_bisimilar(&p, &q, &d));
        assert!(weak_bisimilar(&p, &q, &d));
        assert!(weak_barbed_bisimilar(&p, &q, &d));
        assert!(weak_step_bisimilar(&p, &q, &d));
    }

    #[test]
    fn inputs_matched_by_discard() {
        // a(x).nil ~ nil : the input is invisible — receiving leaves nil's
        // equivalent behind, and nil matches by discarding (a(b)? moves).
        let d = defs();
        let [a, x] = names(["a", "x"]);
        let p = inp_(a, [x]);
        let q = nil();
        assert!(strong_bisimilar(&p, &q, &d), "a(x).nil ~ nil must hold");
        assert!(weak_bisimilar(&p, &q, &d));
    }

    #[test]
    fn inputs_with_consequences_are_observable() {
        // a(x).x̄ is NOT bisimilar to nil: after receiving b it can
        // broadcast on b, which nil cannot.
        let d = defs();
        let [a, x] = names(["a", "x"]);
        let p = inp(a, [x], out_(x, []));
        assert!(!strong_bisimilar(&p, &nil(), &d));
        assert!(!weak_bisimilar(&p, &nil(), &d));
    }

    #[test]
    fn choice_over_outputs_is_strict() {
        // Section 6: ā.(b̄+c̄) and ā.b̄ + ā.c̄ are distinguished by the
        // labelled and step bisimilarities (bisimulation is finer than
        // any broadcast testing scenario). Plain barbed *bisimilarity*
        // cannot tell them apart (no τ moves, same barb {a}); it takes a
        // static context with a restricted listener to manufacture a τ.
        let d = defs();
        let [a, b, c] = names(["a", "b", "c"]);
        let p = out(a, [], sum(out_(b, []), out_(c, [])));
        let q = sum(out(a, [], out_(b, [])), out(a, [], out_(c, [])));
        assert!(!strong_bisimilar(&p, &q, &d));
        assert!(!weak_bisimilar(&p, &q, &d));
        assert!(!strong_step_bisimilar(&p, &q, &d));
        assert!(
            strong_barbed_bisimilar(&p, &q, &d),
            "barbed bisim is blind here"
        );
        // The distinguishing static context: νa ([·] ‖ a()) — a 0-ary
        // listener matching the 0-ary broadcast.
        let cp = new(a, par(p, inp_(a, [])));
        let cq = new(a, par(q, inp_(a, [])));
        assert!(
            !strong_barbed_bisimilar(&cp, &cq, &d),
            "…but barbed equivalence is not"
        );
        assert!(!weak_barbed_bisimilar(&cp, &cq, &d));
    }

    #[test]
    fn bound_vs_free_output_distinguished() {
        let d = defs();
        let [a, b, x] = names(["a", "b", "x"]);
        let p = new(x, out_(a, [x])); // ā(x) bound output
        let q = out_(a, [b]); // free output
        assert!(!strong_bisimilar(&p, &q, &d));
        // But two bound outputs of fresh names coincide regardless of the
        // binder's spelling.
        let r = new(b, out_(a, [b]));
        assert!(strong_bisimilar(&p, &r, &d));
    }

    #[test]
    fn step_vs_barbed_incomparable() {
        // Remark 2.3, both halves, using the paper's witnesses.
        let d = defs();
        let [a, b, c, e] = names(["a", "b", "c", "e"]);
        // p₁ = b̄ + τ.ē, q₁ = b̄ + b̄.ē : p₁ ~φ q₁ (each step reaches a
        // state with matching step-barbs) but p₁ ≁b q₁ (p₁ has a τ to ē
        // while q₁ has no τ at all).
        let p1 = sum(out_(b, []), tau(out_(e, [])));
        let q1 = sum(out_(b, []), out(b, [], out_(e, [])));
        assert!(strong_step_bisimilar(&p1, &q1, &d), "p1 ~φ q1");
        assert!(!strong_barbed_bisimilar(&p1, &q1, &d), "p1 !~b q1");
        // p₂ = b̄a.ā ~b q₂ = b̄c.ā (no τ moves, same strong barb {b})
        // but they are not step bisimilar after restriction (see other
        // test); here they ARE step bisimilar unrestricted.
        let p2 = out(b, [a], out_(a, []));
        let q2 = out(b, [c], out_(a, []));
        assert!(strong_barbed_bisimilar(&p2, &q2, &d));
        let np2 = new(a, p2);
        let nq2 = new(a, q2);
        assert!(strong_barbed_bisimilar(&np2, &nq2, &d), "νa p2 ~b νa q2");
        assert!(!strong_step_bisimilar(&np2, &nq2, &d), "νa p2 !~φ νa q2");
    }

    #[test]
    fn exhaustion_is_inconclusive_not_a_panic() {
        // BPump(a) = τ.(ā ‖ BPump⟨a⟩) has an unbounded state graph; a
        // tiny state budget must yield Inconclusive, never abort.
        let d = defs();
        let [a] = names(["a"]);
        let x = bpi_core::syntax::Ident::new("BPump");
        let p = rec(x, [a], tau(par(out_(a, []), var(x, [a]))), [a]);
        let c = Checker::with_opts(
            &d,
            Opts {
                max_states: 8,
                fresh_inputs: 1,
            },
        );
        let v = c.check(Variant::StrongLabelled, &p, &nil());
        assert_eq!(
            v,
            Verdict::Inconclusive(EngineError::StateBudgetExceeded { limit: 8 })
        );
        assert!(!v.holds());
        // The bool API degrades to false rather than panicking.
        assert!(!c.bisimilar(Variant::StrongLabelled, &p, &nil()));
        // A Budget ceiling composes with opts by minimum.
        let c2 = Checker::new(&d).with_budget(Budget::states(4));
        assert_eq!(
            c2.check(Variant::WeakLabelled, &p, &nil()),
            Verdict::Inconclusive(EngineError::StateBudgetExceeded { limit: 4 })
        );
        // A pre-raised cancellation flag surfaces as Cancelled.
        let flag = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        let c3 = Checker::new(&d).with_budget(Budget::unlimited().with_cancel_flag(flag));
        assert_eq!(
            c3.check(Variant::StrongLabelled, &p, &nil()),
            Verdict::Inconclusive(EngineError::Cancelled)
        );
        // Conclusive answers on small systems are unaffected by a budget.
        let c4 = Checker::new(&d).with_budget(Budget::states(1000));
        assert!(c4.check(Variant::StrongLabelled, &nil(), &nil()).holds());
    }

    #[test]
    fn direction_short_circuits_on_the_failing_side_only() {
        // Asymmetric counterexample: p = τ.nil, q = nil. The forward
        // transfer fails (p's τ has no answer) while the backward
        // transfer holds (nil has no moves; its discards are matched by
        // p's own discards) — so the `&&` in the engines must really
        // evaluate both directions, and a symmetric-looking shortcut
        // that checked only one direction would wrongly accept the pair.
        let d = defs();
        let p = tau(nil());
        let q = nil();
        let pool = shared_pool(&p, &q, 1);
        let g1 = Graph::build(&p, &d, &pool, Opts::default()).unwrap();
        let g2 = Graph::build(&q, &d, &pool, Opts::default()).unwrap();
        let pr = PairRelation::full(g1.len(), g2.len());
        let fwd = RelView::new(&pr.rel, false);
        let bwd = RelView::new(&pr.rel, true);
        assert!(
            !direction(Variant::StrongLabelled, &g1, 0, &g2, 0, fwd),
            "forward direction must fail: τ.nil moves, nil cannot answer"
        );
        assert!(
            direction(Variant::StrongLabelled, &g2, 0, &g1, 0, bwd),
            "backward direction alone holds: nil has no moves to match"
        );
        assert!(!refine(Variant::StrongLabelled, &g1, &g2).holds(0, 0));
        assert!(!refine_worklist(Variant::StrongLabelled, &g1, &g2).holds(0, 0));
    }

    #[test]
    fn pairwise_engine_agrees_with_naive_refine_on_paper_witnesses() {
        // Full-relation agreement (not just the root pair) on the
        // paper's distinguishing witnesses and one pair that needs the
        // weak dependency sets, across all six variants — the round
        // engine with no cutover, so it really runs on these small
        // products.
        let d = defs();
        let [a, b, c, e, x] = names(["a", "b", "c", "e", "x"]);
        // Weakly, `ā.c̄.c̄` is answered by both `ā`-successors of the right
        // side, `τ.c̄.ē + b̄` and the `c̄.ē` below its τ. The second dies a
        // round after the first, and only the weak dependency sets (all
        // ancestors, not just predecessors) bring the root pair back for
        // the re-check that kills it in the weak labelled variant.
        let wit = sum(tau(out(c, [], out_(e, []))), out_(b, []));
        let pairs: Vec<(bpi_core::syntax::P, bpi_core::syntax::P)> = vec![
            (out(b, [a], out_(a, [])), out(b, [c], out_(a, []))),
            (tau(out_(a, [])), out_(a, [])),
            (inp_(a, [x]), nil()),
            (
                out(a, [], sum(out_(b, []), out_(c, []))),
                sum(out(a, [], out_(b, [])), out(a, [], out_(c, []))),
            ),
            (sum(inp_(a, [x]), tau_()), new(a, out(b, [a], out_(a, [])))),
            (
                sum(out(a, [], out(c, [], out_(c, []))), out(a, [], wit.clone())),
                out(a, [], wit),
            ),
        ];
        for (p, q) in &pairs {
            let pool = shared_pool(p, q, 1);
            let g1 = Graph::build(p, &d, &pool, Opts::default()).unwrap();
            let g2 = Graph::build(q, &d, &pool, Opts::default()).unwrap();
            for v in [
                Variant::StrongBarbed,
                Variant::WeakBarbed,
                Variant::StrongStep,
                Variant::WeakStep,
                Variant::StrongLabelled,
                Variant::WeakLabelled,
            ] {
                let naive = refine(v, &g1, &g2);
                let rounds = refine_pairwise(v, &g1, &g2);
                assert_eq!(naive.rel, rounds.rel, "{v:?} diverged on {p} vs {q}");
            }
        }
    }

    #[test]
    fn recursive_processes_compare() {
        let d = defs();
        let [a] = names(["a"]);
        let x1 = bpi_core::syntax::Ident::new("BLoop1");
        let x2 = bpi_core::syntax::Ident::new("BLoop2");
        // ā-forever vs ā.ā-forever: bisimilar.
        let p = rec(x1, [a], out(a, [], var(x1, [a])), [a]);
        let q = rec(x2, [a], out(a, [], out(a, [], var(x2, [a]))), [a]);
        assert!(strong_bisimilar(&p, &q, &d));
    }

    #[test]
    fn dispatch_table_is_pinned() {
        // The 49-state tau-ladder (2401 pairs) lands on the partition
        // refiner when safe and the pairwise engine when not; the naive
        // cutover is unchanged.
        assert_eq!(auto_engine(NAIVE_MAX_PAIRS, true), Engine::Naive);
        assert_eq!(auto_engine(NAIVE_MAX_PAIRS, false), Engine::Naive);
        assert_eq!(auto_engine(2401, true), Engine::Partition);
        assert_eq!(auto_engine(2401, false), Engine::Worklist);
        assert_eq!(auto_engine(1_000_000, true), Engine::Partition);
    }
}
