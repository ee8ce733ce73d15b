//! In-memory spans recorded by the benchmark around its own calls into
//! each layer. One root span per unit of end-to-end work (a corpus item,
//! a served job, a restart); its self time is the unattributed remainder.
//! Spans stay in memory and are written out when the run ends.

use crate::report;
use bpi_server::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Layer name of root spans.
pub const ROOT: &str = "unattributed_ms";

#[derive(Clone, Debug)]
pub struct Span {
    pub unit: String,
    pub layer: &'static str,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub dur_us: f64,
}

impl Span {
    /// The span as JSON, with its index `id` in its tracer; `parent` is
    /// an index into the same list.
    pub fn to_json(&self, id: usize) -> Json {
        Json::obj(vec![
            ("id", Json::num(id as f64)),
            (
                "parent",
                self.parent
                    .map(|p| Json::num(p as f64))
                    .unwrap_or(Json::Null),
            ),
            ("unit", Json::str(self.unit.as_str())),
            ("layer", Json::str(self.layer)),
            ("start_us", Json::num(self.start_us)),
            ("dur_us", Json::num(self.dur_us)),
        ])
    }

    pub fn from_json(doc: &Json) -> Result<Span, String> {
        let num = |k: &str| doc.get(k).and_then(Json::as_f64);
        let layer = doc.str_field("layer").unwrap_or_default();
        Ok(Span {
            unit: doc.str_field("unit").unwrap_or_default().to_string(),
            layer: report::layer_name(layer).ok_or_else(|| format!("unknown layer {layer:?}"))?,
            parent: num("parent").map(|p| p as usize),
            start_us: num("start_us").ok_or("span without a start")?,
            dur_us: num("dur_us").ok_or("span without a duration")?,
        })
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, unit: &str, layer: &'static str, parent: Option<usize>) -> usize {
        let start_us = self.now_us();
        self.add(unit, layer, parent, start_us, 0.0)
    }

    pub fn close(&mut self, id: usize) {
        let now = self.now_us();
        let s = &mut self.spans[id];
        s.dur_us = now - s.start_us;
    }

    /// Records a span measured elsewhere (a daemon phase, a replayed call).
    pub fn add(
        &mut self,
        unit: &str,
        layer: &'static str,
        parent: Option<usize>,
        start_us: f64,
        dur_us: f64,
    ) -> usize {
        self.spans.push(Span {
            unit: unit.to_string(),
            layer,
            parent,
            start_us,
            dur_us,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a child span of `parent`.
    pub fn time<T>(
        &mut self,
        unit: &str,
        layer: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(unit, layer, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Self time per layer in ms: each span's duration minus its
    /// children's durations.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_us;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *out.entry(s.layer).or_insert(0.0) += (s.dur_us - child[i]) / 1e3;
        }
        out
    }

    /// Sum of root durations in ms: the traced end-to-end total.
    pub fn total_ms(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.dur_us / 1e3)
            .sum()
    }

    /// Appends spans another process recorded, whose clock started at
    /// `start_us` on this tracer's; their parent ids are re-based.
    pub fn absorb(&mut self, spans: Vec<Span>, start_us: f64) {
        let base = self.spans.len();
        self.spans.extend(spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            start_us: s.start_us + start_us,
            ..s
        }));
    }

    /// One JSON object per span.
    pub fn jsonl(&self) -> String {
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| format!("{}\n", s.to_json(i)))
            .collect()
    }
}

/// Sum, in ms, of the `bpi-obs` span histogram `name` (recorded in µs).
pub fn obs_span_ms(name: &str) -> f64 {
    bpi_obs::histogram(name).sum() as f64 / 1e3
}
