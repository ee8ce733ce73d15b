//! In-process execution of a served job through the same public calls
//! the daemon's scheduler makes (`Store::parse`, `Checker::run_slice` at
//! the daemon's fuel, `Checkpoint::to_text`, `Journal` appends,
//! `explore_budgeted`, `convergence_mc_resume`), producing the response
//! document the daemon would send. Used to pin expected responses and,
//! with timing spans, to split served work into layers.

use crate::gen::{daemon_fuel, fill, JobKind, JobShape, SESSION};
use crate::trace::{obs_span_ms, Tracer};
use bpi_core::syntax::{Defs, P};
use bpi_core::Name;
use bpi_equiv::checkpoint::Checkpoint;
use bpi_equiv::{explain_fixpoint, Checker, SliceOutcome, Variant};
use bpi_semantics::{
    convergence_mc_resume, explore_budgeted, Budget, CheckpointCfg, EngineError, ExploreOpts,
    FaultPlan, McCheckpoint,
};
use bpi_server::protocol::{error, ok, variant_to_str};
use bpi_server::{Journal, Json, SchedCfg, Store};
use std::collections::HashMap;
use std::sync::Arc;

/// Replays jobs in-process, optionally journaling and timing them.
pub struct Exec {
    pub tr: Tracer,
    /// When set, every layer call gets a span and failing checks are
    /// explained a second time to time the distinguish layer alone.
    pub traced: bool,
    pub journal: Option<Journal>,
    store: Store,
    defs: Defs,
    last_parse: HashMap<String, P>,
    pub parses: usize,
    pub parse_hits: usize,
    pub parse_bytes: usize,
    pub request_bytes: usize,
    pub appends: usize,
    pub append_bytes: usize,
    pub saves: usize,
    pub checkpoint_bytes: usize,
    pub slices: usize,
    /// Time spent journaling admissions and completions, which the
    /// daemon does outside its slices.
    pub admit_ms: f64,
    pub done_ms: f64,
}

impl Exec {
    pub fn new(traced: bool, journal: Option<Journal>) -> Exec {
        let store = Store::new();
        store
            .set_defs(SESSION, crate::gen::DEFS)
            .expect("benchmark definitions parse");
        Exec {
            tr: Tracer::new(),
            traced,
            journal,
            defs: store.defs(SESSION),
            store,
            last_parse: HashMap::new(),
            parses: 0,
            parse_hits: 0,
            parse_bytes: 0,
            request_bytes: 0,
            appends: 0,
            append_bytes: 0,
            saves: 0,
            checkpoint_bytes: 0,
            slices: 0,
            admit_ms: 0.0,
            done_ms: 0.0,
        }
    }

    fn span<T>(
        &mut self,
        unit: &str,
        layer: &'static str,
        parent: Option<usize>,
        f: impl FnOnce(&mut Exec) -> T,
    ) -> T {
        if !self.traced {
            return f(self);
        }
        let id = self.tr.open(unit, layer, parent);
        let out = f(self);
        self.tr.close(id);
        out
    }

    /// Appends one journal record; returns the time it took in ms.
    fn append(&mut self, unit: &str, parent: Option<usize>, rec: Json) -> f64 {
        let bytes = rec.to_string().len() + 1;
        let t = std::time::Instant::now();
        self.span(unit, "server.journal.append_ms", parent, |x| {
            if let Some(j) = &x.journal {
                j.append(&rec).expect("journal append");
            }
        });
        self.appends += 1;
        self.append_bytes += bytes;
        t.elapsed().as_secs_f64() * 1e3
    }

    fn parse(&mut self, unit: &str, parent: Option<usize>, src: &str) -> Result<P, Json> {
        let p = self.span(unit, "core.parser.ms", parent, |x| {
            x.store.parse(SESSION, src)
        });
        let p = p.map_err(|e| error("parse", &e))?;
        self.parses += 1;
        self.parse_bytes += src.len();
        // The store answers a cache hit with the very term it parsed
        // before, so a hit shows as pointer equality.
        if self.last_parse.get(src).is_some_and(|q| Arc::ptr_eq(q, &p)) {
            self.parse_hits += 1;
        }
        self.last_parse.insert(src.to_string(), p.clone());
        Ok(p)
    }

    /// Runs one job as the daemon would and returns its response.
    /// `parent` is the root span the layer spans hang under.
    pub fn run_job(
        &mut self,
        shape: &JobShape,
        id: &str,
        req: &Json,
        prefix: &str,
        parent: Option<usize>,
    ) -> Json {
        self.request_bytes += req.to_string().len() + 1;
        self.admit_ms += self.append(
            id,
            parent,
            Json::obj(vec![
                ("rec", Json::str("admitted")),
                ("id", Json::str(id)),
                ("req", req.clone()),
            ]),
        );
        let resp = match self.execute(shape, id, prefix, parent) {
            Ok(r) | Err(r) => r,
        };
        self.done_ms += self.append(
            id,
            parent,
            Json::obj(vec![
                ("rec", Json::str("done")),
                ("id", Json::str(id)),
                ("resp", resp.clone()),
            ]),
        );
        resp
    }

    fn execute(
        &mut self,
        shape: &JobShape,
        id: &str,
        prefix: &str,
        parent: Option<usize>,
    ) -> Result<Json, Json> {
        let fuel = daemon_fuel();
        match &shape.kind {
            JobKind::Check(v, pair) => {
                let p = self.parse(id, parent, &fill(&pair.left, prefix))?;
                let q = self.parse(id, parent, &fill(&pair.right, prefix))?;
                let (holds, explanation) = self.check_slices(id, parent, (*v, &p, &q), None)?;
                Ok(check_response(*v, holds, explanation))
            }
            JobKind::Explore { src, max_states } => {
                let p = self.parse(id, parent, &fill(src, prefix))?;
                let defs = self.defs.clone();
                let g = self.span(id, "semantics.explore.ms", parent, |_| {
                    let opts = ExploreOpts {
                        max_states: *max_states,
                        ..ExploreOpts::default()
                    };
                    explore_budgeted(&p, &defs, opts, &Budget::states(*max_states))
                });
                let edges: usize = g.edges.iter().map(Vec::len).sum();
                Ok(ok(vec![
                    ("op", Json::str("explore")),
                    ("states", Json::num(g.states.len() as f64)),
                    ("edges", Json::num(edges as f64)),
                    ("truncated", Json::Bool(g.truncated)),
                    (
                        "interrupted",
                        g.interrupted
                            .as_ref()
                            .map(|e| Json::str(e.to_string()))
                            .unwrap_or(Json::Null),
                    ),
                ]))
            }
            JobKind::Reliability {
                src,
                watch,
                loss,
                seed,
                max_steps,
                samples,
            } => {
                let p = self.parse(id, parent, &fill(src, prefix))?;
                let plan = FaultPlan::new(*seed)
                    .with_default_loss(*loss)
                    .map_err(|e| error("bad-request", &e.to_string()))?;
                let watch = Name::new(&fill(watch, prefix));
                let defs = self.defs.clone();
                let mut from = McCheckpoint::default();
                loop {
                    let cfg: CheckpointCfg<McCheckpoint> = CheckpointCfg::fuelled(fuel);
                    let tank = cfg.fuel.clone().expect("fuelled cfg has a tank");
                    let r = self.span(id, "semantics.prob.ms", parent, |_| {
                        convergence_mc_resume(
                            &p,
                            &defs,
                            &plan,
                            watch,
                            *max_steps,
                            *samples,
                            &Budget::unlimited(),
                            &cfg,
                            from.clone(),
                        )
                    });
                    match r {
                        Ok(est) => {
                            return Ok(ok(vec![
                                ("op", Json::str("reliability")),
                                ("probability", Json::num(est.probability)),
                                ("ci_lo", Json::num(est.ci.0)),
                                ("ci_hi", Json::num(est.ci.1)),
                                ("samples", Json::num(est.samples as f64)),
                                ("successes", Json::num(est.successes as f64)),
                            ]))
                        }
                        Err(i)
                            if i.error == EngineError::Cancelled
                                && tank.load(std::sync::atomic::Ordering::SeqCst) == 0 =>
                        {
                            let text = i.checkpoint.to_string();
                            self.save(id, parent, &text);
                            from = i.checkpoint;
                        }
                        Err(i) => return Err(error("engine", &i.error.to_string())),
                    }
                }
            }
        }
    }

    fn save(&mut self, id: &str, parent: Option<usize>, text: &str) {
        self.span(id, "server.journal.append_ms", parent, |x| {
            if let Some(j) = &x.journal {
                j.save_checkpoint(id, text).expect("checkpoint save");
            }
        });
        self.saves += 1;
        self.checkpoint_bytes += text.len();
    }

    /// `run_slice` at the daemon's fuel and state ceiling until done,
    /// encoding and saving every parked checkpoint like the scheduler does.
    pub fn check_slices(
        &mut self,
        id: &str,
        parent: Option<usize>,
        (v, p, q): (Variant, &P, &P),
        mut from: Option<Checkpoint>,
    ) -> Result<(bool, Option<String>), Json> {
        let defs = self.defs.clone();
        let fuel = daemon_fuel();
        let checker = Checker::new(&defs)
            .with_budget(Budget::states(SchedCfg::default().default_max_states))
            .with_threads(1);
        loop {
            self.slices += 1;
            let build0 = obs_span_ms("equiv.graph.build_checkpointed.us");
            let csr0 = obs_span_ms("equiv.graph.csr_freeze.us");
            let slice = self
                .traced
                .then(|| self.tr.open(id, "equiv.checkpoint.slice_ms", parent));
            let r = checker.run_slice(v, p, q, from.take(), fuel);
            if let Some(s) = slice {
                self.tr.close(s);
                // Graph phases inside the slice, from the engine's own
                // `bpi-obs` spans.
                let build = obs_span_ms("equiv.graph.build_checkpointed.us") - build0;
                let csr = obs_span_ms("equiv.graph.csr_freeze.us") - csr0;
                if build > 0.0 {
                    let start = self.tr.spans[s].start_us;
                    let b = self
                        .tr
                        .add(id, "equiv.graph.build_ms", Some(s), start, build * 1e3);
                    self.tr
                        .add(id, "equiv.graph.csr_freeze_ms", Some(b), start, csr * 1e3);
                }
            }
            match r {
                Ok(SliceOutcome::Done { holds, explanation }) => {
                    if !holds {
                        if let Some(s) = slice {
                            self.time_explanation(id, s, &checker, v, p, q);
                        }
                    }
                    return Ok((holds, explanation));
                }
                Ok(SliceOutcome::Parked(ck)) => {
                    let text =
                        self.span(id, "equiv.checkpoint.encode_ms", parent, |_| ck.to_text());
                    self.save(id, parent, &text);
                    from = Some(*ck);
                }
                Err(i) => return Err(error("engine", &i.error.to_string())),
            }
        }
    }

    /// The final slice of a failing check includes `explain_fixpoint`;
    /// time that call alone on the same fixpoint and book it as a child
    /// of the slice span.
    fn time_explanation(
        &mut self,
        id: &str,
        slice: usize,
        checker: &Checker<'_>,
        v: Variant,
        p: &P,
        q: &P,
    ) {
        let Ok((g1, g2, rel)) = checker.try_fixpoint(v, p, q) else {
            return;
        };
        let t = std::time::Instant::now();
        std::hint::black_box(explain_fixpoint(v, &g1, &g2, &rel.rel));
        let dur = t.elapsed().as_secs_f64() * 1e6;
        let start = self.tr.spans[slice].start_us;
        self.tr
            .add(id, "equiv.distinguish.ms", Some(slice), start, dur);
    }
}

pub fn check_response(v: Variant, holds: bool, explanation: Option<String>) -> Json {
    ok(vec![
        ("op", Json::str("check")),
        ("variant", Json::str(variant_to_str(v))),
        ("holds", Json::Bool(holds)),
        (
            "explanation",
            explanation.map(Json::Str).unwrap_or(Json::Null),
        ),
    ])
}
