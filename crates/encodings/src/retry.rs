//! Retry policies for the fault-tolerant encodings.
//!
//! A one-shot broadcast `c̄⟨ṽ⟩` is only correct on a reliable network:
//! the broadcast reaches every *current* listener atomically, but an
//! injected loss (or a stopped node) drops individual deliveries, and a
//! one-shot sender never offers them again. The resilient encodings
//! therefore re-offer. This module is the one place that decides *how*:
//!
//! * [`RetryPolicy::Immediate`] — the PR 1 shape, `rec X. c̄⟨ṽ⟩.X`:
//!   re-offer on every scheduler turn, forever.
//! * [`RetryPolicy::Backoff`] — production shape: attempts spaced by a
//!   deterministic seeded exponential-backoff-with-jitter schedule
//!   ([`bpi_semantics::Backoff`]), compiled into the term as τ-chains.
//!   The first attempts are unrolled with their own jittered delays and
//!   the term then loops forever at the capped delay, so liveness is
//!   unchanged — every listener still eventually hears the message
//!   under any loss rate < 1 — but a congested medium sees the attempt
//!   rate fall off exponentially instead of a tight re-offer loop.
//!
//! Because the schedule is a pure function of `(seed, attempt)` and is
//! frozen into the process term, a [`bpi_semantics::FaultLog`] replay
//! of a backoff-spaced run is exactly as bit-identical as an
//! immediate-retry one: the term does not change between runs, and all
//! fault randomness still flows from the plan's seed alone.

use bpi_core::builder::*;
use bpi_core::name::Name;
use bpi_core::syntax::{Ident, P};
use bpi_semantics::Backoff;

/// How many leading attempts of a backoff schedule are unrolled into
/// the term with their own jittered delays before the loop settles at
/// the capped delay. Small on purpose: each unrolled attempt grows the
/// term, and after a few doublings the envelope is at the cap anyway.
const UNROLLED_ATTEMPTS: u32 = 3;

/// How a fault-tolerant encoding (re-)offers a broadcast.
#[derive(Clone, Debug)]
pub enum RetryPolicy {
    /// Fire once. Correct only on a reliable network.
    OneShot,
    /// Re-offer immediately, forever: `rec X. c̄⟨ṽ⟩.X`.
    Immediate,
    /// Re-offer forever with τ-spaced exponential backoff and jitter.
    Backoff(Backoff),
}

impl RetryPolicy {
    /// Whether this policy keeps re-offering (anything but one-shot).
    pub fn is_persistent(&self) -> bool {
        !matches!(self, RetryPolicy::OneShot)
    }

    /// The sending process for this policy: `tag` names the recursion
    /// variable of the persistent shapes (it must be unique per send
    /// site within one system, as with the old `persistent_out`).
    pub fn send(&self, tag: &str, chan: Name, vals: &[Name]) -> P {
        match self {
            RetryPolicy::OneShot => out_(chan, vals.to_vec()),
            RetryPolicy::Immediate => {
                let id = Ident::new(&format!("Ann{tag}"));
                rec(
                    id,
                    [chan],
                    out(chan, vals.to_vec(), var(id, [chan])),
                    [chan],
                )
            }
            RetryPolicy::Backoff(b) => {
                let id = Ident::new(&format!("Ann{tag}"));
                // The loop re-offers at the schedule's settled delay…
                let settled = b.delay(UNROLLED_ATTEMPTS);
                let looped = rec(
                    id,
                    [chan],
                    out(chan, vals.to_vec(), taus(settled, var(id, [chan]))),
                    [chan],
                );
                // …prefixed by the unrolled early attempts with their
                // own jittered delays, latest first.
                let mut p = looped;
                for k in (0..UNROLLED_ATTEMPTS).rev() {
                    p = out(chan, vals.to_vec(), taus(b.delay(k), p));
                }
                p
            }
        }
    }
}

/// `n` τ-prefixes in front of `k` — the term-level clock the backoff
/// delays are measured in (one τ per scheduler step).
pub fn taus(n: u32, mut k: P) -> P {
    for _ in 0..n {
        k = tau(k);
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpi_core::syntax::Defs;
    use bpi_semantics::{FaultPlan, FaultySimulator};

    #[test]
    fn policies_produce_the_expected_shapes() {
        let a = Name::intern_raw("rp_a");
        let v = Name::intern_raw("rp_v");
        let one = RetryPolicy::OneShot.send("T", a, &[v]);
        let imm = RetryPolicy::Immediate.send("T", a, &[v]);
        let bo = RetryPolicy::Backoff(Backoff::new(9)).send("T", a, &[v]);
        assert!(!RetryPolicy::OneShot.is_persistent());
        assert!(RetryPolicy::Immediate.is_persistent());
        assert!(RetryPolicy::Backoff(Backoff::new(9)).is_persistent());
        // The policies genuinely differ as terms, and the backoff term
        // is deterministic in the seed.
        assert_ne!(format!("{one}"), format!("{imm}"));
        assert_ne!(format!("{imm}"), format!("{bo}"));
        assert_eq!(
            format!("{bo}"),
            format!(
                "{}",
                RetryPolicy::Backoff(Backoff::new(9)).send("T", a, &[v])
            ),
            "same seed must freeze the same schedule into the term"
        );
        assert_ne!(
            format!("{bo}"),
            format!(
                "{}",
                RetryPolicy::Backoff(Backoff::new(10)).send("T", a, &[v])
            ),
            "different seeds must jitter differently (with cap 8 this holds for 9 vs 10)"
        );
    }

    #[test]
    fn backoff_send_still_delivers_and_replays_bit_identically() {
        // A backoff-spaced sender against one listener under loss: the
        // delivery barb is still reached, and the same plan produces
        // the same log and trace twice (FaultLog replay contract).
        let a = Name::intern_raw("rp_ch");
        let v = Name::intern_raw("rp_val");
        let x = Name::intern_raw("rp_x");
        let done = Name::intern_raw("rp_done");
        let sender = RetryPolicy::Backoff(Backoff::new(3)).send("D", a, &[v]);
        let sys = par(sender, inp(a, [x], out_(done, [x])));
        let defs = Defs::new();
        let plan = FaultPlan::new(11).with_default_loss(0.4).expect("in range");
        let mut s1 = FaultySimulator::new(&defs, plan.clone());
        let (t1, l1) = s1.run_until_output(&sys, done, 96);
        let mut s2 = FaultySimulator::new(&defs, plan);
        let (t2, l2) = s2.run_until_output(&sys, done, 96);
        assert!(
            t1.saw_output_on(done),
            "backoff retry failed to deliver under 40% loss in 96 steps"
        );
        assert_eq!(
            l1.to_string(),
            l2.to_string(),
            "fault logs must replay bit-identically"
        );
        assert_eq!(t1.saw_output_on(done), t2.saw_output_on(done));
    }
}
