//! Self-chaos harness: seeded fault injection into the *engine itself*.
//!
//! PR 1's [`crate::faults`] injects faults into the *modelled* broadcast
//! systems; this module injects them into the analysis engines:
//! scheduling delays in the memo caches and the daemon's submit path,
//! which the daemon's workers share. Like a [`crate::FaultPlan`], a
//! [`ChaosPlan`] is **seeded and replayable**:
//! every injection decision is a pure function of `(seed, site,
//! per-site call ordinal)`, and the injections actually fired are
//! recorded in a [`ChaosLog`].
//!
//! **Safety contract.** Chaos injects only delays: sub-millisecond
//! sleeps that change schedules and never any result. Consequently
//! running any suite under `BPI_CHAOS=<seed>` must produce the same
//! verdicts and the same deterministic `bpi-obs` counters as a quiet
//! run — the differential tests in `crates/equiv` lock this down.
//!
//! Activation: `BPI_CHAOS=<seed>` in the environment (checked once, at
//! the first injection-site query), or programmatically via [`install`] /
//! [`clear`], which override the environment for the rest of the process.

use crate::faults::splitmix64;
use bpi_obs::{counter, Counter, Det, Value};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, LazyLock, Once};
use std::time::Duration;

static CHAOS_DELAYS: LazyLock<&Counter> =
    LazyLock::new(|| counter("semantics.chaos.delays", Det::Advisory));

/// What a chaos site injected, and where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChaosEvent {
    /// A scheduling delay was injected at `site`.
    Delay { site: &'static str, ordinal: u64 },
}

impl ChaosEvent {
    /// The injection site this event fired at.
    pub fn site(&self) -> &'static str {
        match self {
            ChaosEvent::Delay { site, .. } => site,
        }
    }
}

/// The record of every injection a chaos run actually fired, in firing
/// order: a pure function of `(plan, sites visited)` for one thread of
/// work; across concurrent callers the per-site ordinals are still
/// deterministic but the global interleaving is not.
#[derive(Clone, Debug, Default)]
pub struct ChaosLog {
    /// The injections, in the order they fired.
    pub events: Vec<ChaosEvent>,
}

/// A seeded description of engine-level delay injection.
/// Mirrors [`crate::FaultPlan`]: construct with [`ChaosPlan::new`], tune
/// with the builder methods, activate with [`install`].
#[derive(Clone, Debug)]
pub struct ChaosPlan {
    seed: u64,
    delay_prob: f64,
}

impl ChaosPlan {
    /// A plan with the default delay probability of 10%.
    pub fn new(seed: u64) -> ChaosPlan {
        ChaosPlan {
            seed,
            delay_prob: 0.10,
        }
    }

    /// The seed all injection decisions derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Probability that a delay site injects a short sleep.
    pub fn delay_prob(mut self, p: f64) -> ChaosPlan {
        self.delay_prob = p.clamp(0.0, 1.0);
        self
    }
}

struct ChaosState {
    plan: ChaosPlan,
    /// Per-site call ordinals: the replayable clock of each site.
    ordinals: Mutex<HashMap<&'static str, u64>>,
    log: Mutex<Vec<ChaosEvent>>,
}

/// Fast path: one relaxed load decides "chaos off" at every site.
static ACTIVE: AtomicBool = AtomicBool::new(false);
static STATE: LazyLock<Mutex<Option<Arc<ChaosState>>>> = LazyLock::new(|| Mutex::new(None));
static ENV_INIT: Once = Once::new();

/// Parses `BPI_CHAOS` into a plan: any `u64` seed activates the default
/// plan; unset or empty means no chaos. An unparsable value also means
/// no chaos, but warns once through `bpi-obs` — a fat-fingered seed
/// should not silently run the suite *without* the chaos it asked for.
pub fn from_env() -> Option<ChaosPlan> {
    parse_chaos_seed(std::env::var("BPI_CHAOS").ok().as_deref()).map(ChaosPlan::new)
}

/// The pure parse behind [`from_env`], split out so the parse paths are
/// unit-testable without mutating the process environment.
pub(crate) fn parse_chaos_seed(raw: Option<&str>) -> Option<u64> {
    let v = raw?.trim();
    if v.is_empty() {
        return None;
    }
    match v.parse::<u64>() {
        Ok(seed) => Some(seed),
        Err(_) => {
            bpi_obs::warn_once(
                "semantics.chaos",
                &format!("BPI_CHAOS={v:?} is not a u64 seed; chaos stays OFF"),
            );
            None
        }
    }
}

/// Installs `plan` process-globally, replacing any previous plan (from
/// the environment or an earlier call) and clearing the log.
pub fn install(plan: ChaosPlan) {
    ENV_INIT.call_once(|| {});
    let mut slot = STATE.lock();
    *slot = Some(ChaosState::new(plan));
    ACTIVE.store(true, Ordering::SeqCst);
}

/// Deactivates chaos (also suppressing any `BPI_CHAOS` setting for the
/// rest of the process) and returns the log of the deactivated plan.
pub fn clear() -> ChaosLog {
    ENV_INIT.call_once(|| {});
    let mut slot = STATE.lock();
    let log = slot
        .take()
        .map(|s| ChaosLog {
            events: s.log.lock().clone(),
        })
        .unwrap_or_default();
    ACTIVE.store(false, Ordering::SeqCst);
    log
}

/// The log of the currently-installed plan (empty when inactive).
pub fn current_log() -> ChaosLog {
    match active() {
        Some(s) => ChaosLog {
            events: s.log.lock().clone(),
        },
        None => ChaosLog::default(),
    }
}

fn active() -> Option<Arc<ChaosState>> {
    // First query decides whether the environment activates chaos;
    // programmatic install/clear override afterwards.
    ENV_INIT.call_once(|| {
        if let Some(plan) = from_env() {
            let mut slot = STATE.lock();
            if slot.is_none() {
                *slot = Some(ChaosState::new(plan));
                ACTIVE.store(true, Ordering::SeqCst);
            }
        }
    });
    if !ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    STATE.lock().clone()
}

fn site_hash(site: &str) -> u64 {
    // FNV-1a over the site name.
    let mut h = 0xcbf29ce484222325u64;
    for b in site.as_bytes() {
        h = (h ^ *b as u64).wrapping_mul(0x100000001b3);
    }
    h
}

impl ChaosState {
    fn new(plan: ChaosPlan) -> Arc<ChaosState> {
        Arc::new(ChaosState {
            plan,
            ordinals: Mutex::new(HashMap::new()),
            log: Mutex::new(Vec::new()),
        })
    }

    /// Deterministic decision for the next call at `site`: draws a
    /// uniform in `[0,1)` from `(seed, site, ordinal)` and returns the
    /// ordinal alongside.
    fn draw(&self, site: &'static str) -> (f64, u64) {
        let ordinal = {
            let mut ords = self.ordinals.lock();
            let slot = ords.entry(site).or_insert(0);
            let o = *slot;
            *slot += 1;
            o
        };
        let bits = splitmix64(self.plan.seed ^ site_hash(site) ^ ordinal.wrapping_mul(0x9e37));
        ((bits >> 11) as f64 / (1u64 << 53) as f64, ordinal)
    }

    fn record(&self, ev: ChaosEvent) {
        self.log.lock().push(ev.clone());
        bpi_obs::emit("semantics.chaos", "inject", || {
            vec![
                ("kind", Value::from("delay")),
                ("site", Value::from(ev.site())),
            ]
        });
    }
}

/// A chaos site that may inject a sub-millisecond scheduling delay —
/// safe anywhere, used in memo caches to shake out ordering
/// assumptions.
pub fn delay(site: &'static str) {
    let Some(s) = active() else { return };
    let (u, ordinal) = s.draw(site);
    if u < s.plan.delay_prob {
        s.record(ChaosEvent::Delay { site, ordinal });
        if bpi_obs::metrics_enabled() {
            CHAOS_DELAYS.inc();
        }
        std::thread::sleep(Duration::from_micros(50 + 100 * (ordinal % 5)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The chaos slot is process-global; tests that install plans
    // serialise on this lock (mirroring the metrics-oracle idiom).
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn env_seed_parse_paths() {
        // Pure parse — no env mutation, no global chaos state touched.
        assert_eq!(parse_chaos_seed(None), None, "unset → no chaos");
        assert_eq!(parse_chaos_seed(Some("")), None, "empty → no chaos");
        assert_eq!(parse_chaos_seed(Some("   ")), None);
        assert_eq!(parse_chaos_seed(Some("20260807")), Some(20260807));
        assert_eq!(parse_chaos_seed(Some(" 7 ")), Some(7), "trimmed");
        for bad in ["seedy", "-1", "3.5", "0x10", "99999999999999999999999"] {
            assert_eq!(parse_chaos_seed(Some(bad)), None, "garbage {bad:?} → off");
        }
        // Malformed values warn exactly once per distinct message.
        assert!(bpi_obs::warn_once("semantics.chaos", "chaos-test-probe"));
        assert!(!bpi_obs::warn_once("semantics.chaos", "chaos-test-probe"));
    }

    #[test]
    fn inactive_sites_are_inert() {
        let _g = lock();
        clear();
        delay("test.site");
        assert!(current_log().events.is_empty());
    }

    #[test]
    fn decisions_replay_deterministically() {
        let _g = lock();
        let run = || {
            install(ChaosPlan::new(7).delay_prob(0.5));
            for _ in 0..64 {
                delay("replay.site");
            }
            clear()
        };
        // The plan is process-wide: other tests of this binary running at
        // the same time may fire their own sites into the log, so compare
        // this site's events, whose ordinals are its own.
        let mine = |log: ChaosLog| -> Vec<ChaosEvent> {
            log.events
                .into_iter()
                .filter(|e| e.site() == "replay.site")
                .collect()
        };
        let a = mine(run());
        let b = mine(run());
        assert_eq!(a, b, "same plan, same sites, same log");
        assert!(!a.is_empty(), "a 50% delay rate fired somewhere");
    }

    #[test]
    fn delay_probability_clamps_to_the_unit_interval() {
        let _g = lock();
        assert_eq!(ChaosPlan::new(9).seed(), 9);
        let fired = |p: f64| {
            install(ChaosPlan::new(9).delay_prob(p));
            for _ in 0..8 {
                delay("clamp.site");
            }
            clear()
                .events
                .iter()
                .filter(|e| e.site() == "clamp.site")
                .count()
        };
        assert_eq!(fired(-1.0), 0, "clamped to 0: never fires");
        assert_eq!(fired(2.0), 8, "clamped to 1: always fires");
    }
}
