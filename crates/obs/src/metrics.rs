//! Global metric registry: atomic counters, gauges and histograms.
//!
//! Counters are registered once per name (the returned reference is
//! `'static`, so call sites can cache it in a `LazyLock` and pay only a
//! relaxed `fetch_add` per hit). Registration records whether the
//! counter is [`Det::Deterministic`] — a *result-derived* quantity that
//! must be bit-identical across engines and checkpoint/resume — or
//! [`Det::Advisory`] — a schedule- or cache-derived quantity that may
//! legitimately vary run to run. Gauges and histograms are always
//! advisory: anything carrying a magnitude sampled mid-run (queue
//! depths, span timings) is schedule-dependent by nature.

use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::LazyLock;

/// Determinism class of a counter — the core contract of the metrics
/// layer (see DESIGN.md §9).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Det {
    /// Must be bit-identical across the naive/worklist/partition engines,
    /// checkpoint/resume and chaos. Only increment these from values that
    /// are functions of a deterministic *result* (a frozen graph, a
    /// fixpoint relation, a typed replayable error) — never from
    /// engine-internal progress.
    Deterministic,
    /// May vary with scheduling, cache state, or wall clock.
    Advisory,
}

/// A named monotone counter. `add` is a relaxed atomic when metrics are
/// enabled and a single load-and-branch when they are not.
pub struct Counter {
    name: &'static str,
    det: Det,
    value: AtomicU64,
}

impl Counter {
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    pub fn det(&self) -> Det {
        self.det
    }
}

/// A named signed gauge (always advisory).
pub struct Gauge {
    name: &'static str,
    value: AtomicI64,
}

impl Gauge {
    #[inline]
    pub fn set(&self, v: i64) {
        if enabled() {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    #[inline]
    pub fn add(&self, d: i64) {
        if enabled() {
            self.value.fetch_add(d, Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    pub fn name(&self) -> &'static str {
        self.name
    }
}

const BUCKETS: usize = 64;

/// A log₂-bucketed histogram of `u64` samples (always advisory): sample
/// `v` lands in bucket `⌊log₂ v⌋ + 1` (bucket 0 holds `v == 0`), so
/// bucket `i` covers `[2^(i-1), 2^i)`.
pub struct Histogram {
    name: &'static str,
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    #[inline]
    pub fn record(&self, v: u64) {
        if !enabled() {
            return;
        }
        let b = if v == 0 {
            0
        } else {
            (64 - v.leading_zeros() as usize).min(BUCKETS - 1)
        };
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    pub fn mean(&self) -> f64 {
        let c = self.count();
        if c == 0 {
            0.0
        } else {
            self.sum() as f64 / c as f64
        }
    }
}

#[derive(Default)]
struct Registry {
    counters: HashMap<&'static str, &'static Counter>,
    gauges: HashMap<&'static str, &'static Gauge>,
    histograms: HashMap<&'static str, &'static Histogram>,
}

static REGISTRY: LazyLock<RwLock<Registry>> = LazyLock::new(|| RwLock::new(Registry::default()));

/// Metrics default to **on**: the per-site cost is one relaxed atomic
/// add, negligible next to any engine step. Turning them off (for the
/// overhead experiments, B11) reduces every site to a load-and-branch.
static ENABLED: AtomicBool = AtomicBool::new(true);

#[inline]
fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Globally enable or disable metric recording (sinks are controlled
/// separately — see [`crate::trace`]).
pub fn set_metrics_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn metrics_enabled() -> bool {
    enabled()
}

/// Returns the counter registered under `name`, creating it on first
/// use. The first registration fixes the determinism class; later
/// callers must agree (checked in debug builds).
pub fn counter(name: &'static str, det: Det) -> &'static Counter {
    if let Some(c) = REGISTRY.read().counters.get(name) {
        debug_assert_eq!(
            c.det, det,
            "counter {name} re-registered with a different class"
        );
        return c;
    }
    let mut reg = REGISTRY.write();
    reg.counters.entry(name).or_insert_with(|| {
        Box::leak(Box::new(Counter {
            name,
            det,
            value: AtomicU64::new(0),
        }))
    })
}

/// Returns the gauge registered under `name`, creating it on first use.
pub fn gauge(name: &'static str) -> &'static Gauge {
    if let Some(g) = REGISTRY.read().gauges.get(name) {
        return g;
    }
    let mut reg = REGISTRY.write();
    reg.gauges.entry(name).or_insert_with(|| {
        Box::leak(Box::new(Gauge {
            name,
            value: AtomicI64::new(0),
        }))
    })
}

/// Returns the histogram registered under `name`, creating it on first
/// use. `name` may be dynamic (span timers build `target.name.us`); it
/// is leaked once at registration.
pub fn histogram(name: &str) -> &'static Histogram {
    if let Some(h) = REGISTRY.read().histograms.get(name) {
        return h;
    }
    let mut reg = REGISTRY.write();
    if let Some(h) = reg.histograms.get(name) {
        return h;
    }
    let name: &'static str = Box::leak(name.to_string().into_boxed_str());
    let h: &'static Histogram = Box::leak(Box::new(Histogram {
        name,
        buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        count: AtomicU64::new(0),
        sum: AtomicU64::new(0),
    }));
    reg.histograms.insert(name, h);
    h
}

/// Point-in-time reading of one histogram.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    /// Non-empty buckets as `(bucket_index, count)`.
    pub buckets: Vec<(usize, u64)>,
}

/// Point-in-time reading of the whole registry. `BTreeMap` keys give a
/// stable, name-sorted order for diffing and JSON emission.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<&'static str, (Det, u64)>,
    pub gauges: BTreeMap<&'static str, i64>,
    pub histograms: BTreeMap<&'static str, HistogramSnapshot>,
}

/// Per-counter change between two snapshots of the deterministic set.
pub type CounterDelta = BTreeMap<&'static str, u64>;

impl MetricsSnapshot {
    /// Deterministic counters only, as `name -> value`.
    pub fn deterministic(&self) -> CounterDelta {
        self.counters
            .iter()
            .filter(|(_, (det, _))| *det == Det::Deterministic)
            .map(|(n, (_, v))| (*n, *v))
            .collect()
    }

    /// The deterministic counters' increase since `earlier`, dropping
    /// zero entries (counters are monotone, so this is well defined; a
    /// counter absent from `earlier` counts from zero).
    pub fn deterministic_delta(&self, earlier: &MetricsSnapshot) -> CounterDelta {
        let before = earlier.deterministic();
        self.deterministic()
            .into_iter()
            .filter_map(|(n, v)| {
                let d = v - before.get(n).copied().unwrap_or(0);
                (d != 0).then_some((n, d))
            })
            .collect()
    }
}

/// Reads every registered metric.
pub fn snapshot() -> MetricsSnapshot {
    let reg = REGISTRY.read();
    MetricsSnapshot {
        counters: reg
            .counters
            .values()
            .map(|c| (c.name, (c.det, c.get())))
            .collect(),
        gauges: reg.gauges.values().map(|g| (g.name, g.get())).collect(),
        histograms: reg
            .histograms
            .values()
            .map(|h| {
                (
                    h.name,
                    HistogramSnapshot {
                        count: h.count(),
                        sum: h.sum(),
                        buckets: h
                            .buckets
                            .iter()
                            .enumerate()
                            .filter_map(|(i, b)| {
                                let v = b.load(Ordering::Relaxed);
                                (v != 0).then_some((i, v))
                            })
                            .collect(),
                    },
                )
            })
            .collect(),
    }
}

/// Current values of the deterministic counters, `name -> value`.
pub fn deterministic_counters() -> CounterDelta {
    snapshot().deterministic()
}

/// Zeroes every registered metric. Counters are otherwise monotone;
/// this exists so tests and `bench_report`'s counter entry can measure
/// from a clean origin. Not for concurrent use with live engines.
pub fn reset_for_tests() {
    let reg = REGISTRY.read();
    for c in reg.counters.values() {
        c.value.store(0, Ordering::Relaxed);
    }
    for g in reg.gauges.values() {
        g.value.store(0, Ordering::Relaxed);
    }
    for h in reg.histograms.values() {
        for b in &h.buckets {
            b.store(0, Ordering::Relaxed);
        }
        h.count.store(0, Ordering::Relaxed);
        h.sum.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The enabled flag is process-global and one test toggles it, so
    /// every test here serialises on this lock.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn counters_register_once_and_accumulate() {
        let _g = LOCK.lock();
        let c = counter("obs.test.once", Det::Advisory);
        let before = c.get();
        counter("obs.test.once", Det::Advisory).add(3);
        c.inc();
        assert_eq!(c.get(), before + 4);
        assert!(std::ptr::eq(c, counter("obs.test.once", Det::Advisory)));
    }

    #[test]
    fn deterministic_delta_ignores_advisory_and_zero() {
        let _g = LOCK.lock();
        let d = counter("obs.test.det", Det::Deterministic);
        let a = counter("obs.test.adv", Det::Advisory);
        let s0 = snapshot();
        d.add(5);
        a.add(7);
        counter("obs.test.det2", Det::Deterministic); // registered, untouched
        let delta = snapshot().deterministic_delta(&s0);
        assert_eq!(delta.get("obs.test.det"), Some(&5));
        assert!(!delta.contains_key("obs.test.adv"));
        assert!(!delta.contains_key("obs.test.det2"));
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let _g = LOCK.lock();
        let h = histogram("obs.test.hist");
        let c0 = h.count();
        for v in [0, 1, 2, 3, 4, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), c0 + 6);
        assert!(h.sum() >= 1034);
        let snap = snapshot().histograms["obs.test.hist"].clone();
        // 0 -> bucket 0, 1 -> 1, {2,3} -> 2, 4 -> 3, 1024 -> 11.
        for want in [0usize, 1, 2, 3, 11] {
            assert!(
                snap.buckets.iter().any(|&(i, _)| i == want),
                "missing bucket {want}: {:?}",
                snap.buckets
            );
        }
    }

    #[test]
    fn disabling_metrics_stops_recording() {
        let _g = LOCK.lock();
        let c = counter("obs.test.gate", Det::Advisory);
        let before = c.get();
        set_metrics_enabled(false);
        c.add(100);
        set_metrics_enabled(true);
        c.inc();
        assert_eq!(c.get(), before + 1);
    }

    #[test]
    fn gauges_set_and_add() {
        let _g = LOCK.lock();
        let g = gauge("obs.test.gauge");
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
        assert_eq!(snapshot().gauges["obs.test.gauge"], 7);
    }
}
