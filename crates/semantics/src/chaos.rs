//! Self-chaos harness: seeded fault injection into the *engine itself*.
//!
//! PR 1's [`crate::faults`] injects faults into the *modelled* broadcast
//! systems; this module injects them into the analysis engines —
//! scheduling delays in memo caches and weak closures, and spurious
//! budget pressure in the checkpoint-aware loops. Like a [`crate::FaultPlan`],
//! a [`ChaosPlan`] is **seeded and replayable**: every injection decision
//! is a pure function of `(seed, site, per-site call ordinal)`, and the
//! injections actually fired are recorded in a [`ChaosLog`].
//!
//! **Safety contract.** Chaos only strikes at *recoverable* sites:
//!
//! * **delays** are sub-millisecond sleeps and never change any result;
//! * **budget pressure** ([`pressure`]) fires only while a supervisor has
//!   *armed* it on the current thread ([`arm_pressure`]), and the
//!   supervised run recovers by resuming from its last checkpoint.
//!
//! Consequently running any suite under `BPI_CHAOS=<seed>` must produce
//! the same verdicts and the same deterministic `bpi-obs` counters as a
//! quiet run — the differential tests in `crates/equiv` lock this down.
//!
//! Activation: `BPI_CHAOS=<seed>` in the environment (checked once, at
//! the first injection-site query), or programmatically via [`install`] /
//! [`clear`], which override the environment for the rest of the process.

use crate::budget::EngineError;
use bpi_obs::{counter, Counter, Det, Value};
use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, LazyLock, Once};
use std::time::Duration;

static CHAOS_DELAYS: LazyLock<&Counter> =
    LazyLock::new(|| counter("semantics.chaos.delays", Det::Advisory));
static CHAOS_PRESSURE: LazyLock<&Counter> =
    LazyLock::new(|| counter("semantics.chaos.pressure", Det::Advisory));

/// What a chaos site injected, and where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChaosEvent {
    /// A scheduling delay was injected at `site`.
    Delay { site: &'static str, ordinal: u64 },
    /// Spurious budget pressure was injected at `site`.
    Pressure { site: &'static str, ordinal: u64 },
}

impl ChaosEvent {
    /// The injection site this event fired at.
    pub fn site(&self) -> &'static str {
        match self {
            ChaosEvent::Delay { site, .. } | ChaosEvent::Pressure { site, .. } => site,
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

impl ChaosLog {
    /// Number of injected pressure events.
    pub fn pressures(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, ChaosEvent::Pressure { .. }))
            .count()
    }
}

/// A seeded, bounded description of engine-level fault injection.
/// Mirrors [`crate::FaultPlan`]: construct with [`ChaosPlan::new`], tune
/// with the builder methods, activate with [`install`].
#[derive(Clone, Debug)]
pub struct ChaosPlan {
    seed: u64,
    delay_prob: f64,
    pressure_prob: f64,
    max_injections: usize,
}

impl ChaosPlan {
    /// A plan with the default probabilities: 10% delays, 25% armed
    /// budget pressure, at most 8 pressure injections per process (so
    /// chaos runs always terminate — the analogue of
    /// [`crate::FaultPlan`]'s bounded axiom-(H) noise).
    pub fn new(seed: u64) -> ChaosPlan {
        ChaosPlan {
            seed,
            delay_prob: 0.10,
            pressure_prob: 0.25,
            max_injections: 8,
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

    /// Probability that an *armed* pressure site injects a spurious
    /// [`EngineError::StateBudgetExceeded`].
    pub fn pressure_prob(mut self, p: f64) -> ChaosPlan {
        self.pressure_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Cap on the total pressure injections for the process lifetime of
    /// this installation; delays are not counted (they never change
    /// control flow). A cap of 0 reduces chaos to delays only.
    pub fn max_injections(mut self, n: usize) -> ChaosPlan {
        self.max_injections = n;
        self
    }
}

struct ChaosState {
    plan: ChaosPlan,
    /// Pressure injections fired so far, bounded by the plan.
    injected: AtomicUsize,
    /// Per-site call ordinals: the replayable clock of each site.
    ordinals: Mutex<HashMap<&'static str, u64>>,
    log: Mutex<Vec<ChaosEvent>>,
}

/// Fast path: one relaxed load decides "chaos off" at every site.
static ACTIVE: AtomicBool = AtomicBool::new(false);
static STATE: LazyLock<Mutex<Option<Arc<ChaosState>>>> = LazyLock::new(|| Mutex::new(None));
static ENV_INIT: Once = Once::new();

thread_local! {
    /// Whether [`pressure`] may fire on this thread. Armed only by a
    /// supervisor that is prepared to resume from a checkpoint.
    static PRESSURE_ARMED: Cell<bool> = const { Cell::new(false) };
}

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
    *slot = Some(Arc::new(ChaosState {
        plan,
        injected: AtomicUsize::new(0),
        ordinals: Mutex::new(HashMap::new()),
        log: Mutex::new(Vec::new()),
    }));
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
                *slot = Some(Arc::new(ChaosState {
                    plan,
                    injected: AtomicUsize::new(0),
                    ordinals: Mutex::new(HashMap::new()),
                    log: Mutex::new(Vec::new()),
                }));
                ACTIVE.store(true, Ordering::SeqCst);
            }
        }
    });
    if !ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    STATE.lock().clone()
}

/// splitmix64 — the same deterministic mixing the term store uses.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
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
        let bits = mix(self.plan.seed ^ site_hash(site) ^ ordinal.wrapping_mul(0x9e37));
        ((bits >> 11) as f64 / (1u64 << 53) as f64, ordinal)
    }

    /// Claims one unit of the bounded pressure injection budget.
    fn claim_injection(&self) -> bool {
        self.injected
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < self.plan.max_injections).then_some(n + 1)
            })
            .is_ok()
    }

    fn record(&self, ev: ChaosEvent) {
        self.log.lock().push(ev.clone());
        bpi_obs::emit("semantics.chaos", "inject", || {
            let kind = match &ev {
                ChaosEvent::Delay { .. } => "delay",
                ChaosEvent::Pressure { .. } => "pressure",
            };
            vec![
                ("kind", Value::from(kind)),
                ("site", Value::from(ev.site())),
            ]
        });
    }
}

/// A chaos site that may inject a sub-millisecond scheduling delay —
/// safe anywhere, used in memo caches and weak-closure computation to
/// shake out ordering assumptions.
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

/// A chaos site inside a checkpoint-aware sequential loop: injects a
/// spurious [`EngineError::StateBudgetExceeded`] — but only when a
/// supervisor has [`arm_pressure`]d the current thread, so unsupervised
/// callers never see phantom exhaustion.
pub fn pressure(site: &'static str) -> Result<(), EngineError> {
    if !PRESSURE_ARMED.with(|c| c.get()) {
        return Ok(());
    }
    let Some(s) = active() else { return Ok(()) };
    let (u, ordinal) = s.draw(site);
    if u < s.plan.pressure_prob && s.claim_injection() {
        s.record(ChaosEvent::Pressure { site, ordinal });
        if bpi_obs::metrics_enabled() {
            CHAOS_PRESSURE.inc();
        }
        return Err(EngineError::StateBudgetExceeded { limit: 0 });
    }
    Ok(())
}

/// Arms [`pressure`] on the current thread for the guard's lifetime.
/// Only a supervisor that resumes from checkpoints should hold one.
pub fn arm_pressure() -> PressureGuard {
    let prev = PRESSURE_ARMED.with(|c| c.replace(true));
    PressureGuard { prev }
}

/// Re-disarms thread-local pressure on drop (restoring the previous
/// state, so nested supervisors compose).
pub struct PressureGuard {
    prev: bool,
}

impl Drop for PressureGuard {
    fn drop(&mut self) {
        PRESSURE_ARMED.with(|c| c.set(self.prev));
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
        assert_eq!(pressure("test.site"), Ok(()));
        let _armed = arm_pressure();
        assert_eq!(pressure("test.site"), Ok(()));
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
    fn pressure_requires_arming_and_respects_the_cap() {
        let _g = lock();
        install(ChaosPlan::new(11).pressure_prob(1.0).max_injections(3));
        // Unarmed: nothing fires, nothing is logged.
        for _ in 0..8 {
            assert_eq!(pressure("cap.site"), Ok(()));
        }
        assert_eq!(current_log().pressures(), 0);
        // Armed at probability 1: fires exactly `max_injections` times.
        let armed = arm_pressure();
        let fired = (0..8).filter(|_| pressure("cap.site").is_err()).count();
        drop(armed);
        assert_eq!(fired, 3, "bounded by max_injections");
        assert_eq!(pressure("cap.site"), Ok(()), "disarmed again after drop");
        let log = clear();
        assert_eq!(log.pressures(), 3);
    }

    #[test]
    fn env_parse_accepts_seeds_only() {
        let _g = lock();
        // Not touching the process environment here — just the parser
        // contract via install/clear round-trips.
        assert!(ChaosPlan::new(0).seed() == 0);
        let p = ChaosPlan::new(9).delay_prob(-1.0).pressure_prob(0.5);
        assert_eq!(p.seed(), 9);
        // Probabilities clamp to [0,1].
        install(p.max_injections(0));
        let armed = arm_pressure();
        assert_eq!(pressure("clamp.site"), Ok(()), "cap 0 disables pressure");
        drop(armed);
        clear();
    }
}
