//! Wire protocol of the daemon: one JSON object per line, strict
//! request/response alternation per connection.
//!
//! ## Grammar (informal)
//!
//! ```text
//! request  := defs | parse | check | explore | reliability | result
//!           | stats | shutdown
//! defs     := {"op":"defs", "session"?, "src"}
//! parse    := {"op":"parse", "src"}
//! check    := {"op":"check", "id", "session"?, "variant", "left",
//!              "right", "max_states"?, "deadline_ms"?, "priority"?}
//! explore  := {"op":"explore", "id", "session"?, "src", "max_states"?,
//!              "deadline_ms"?, "priority"?}
//! reliability := {"op":"reliability", "id", "session"?, "src", "watch",
//!              "loss", "seed", "max_steps", "samples", "deadline_ms"?,
//!              "priority"?}
//! result   := {"op":"result", "id"}
//! stats    := {"op":"stats"}
//! shutdown := {"op":"shutdown"}
//!
//! response := {"status":"ok", ...}        op-specific payload
//!           | {"status":"rejected", "reason", "detail"}
//!           | {"status":"error", "error", "detail"}
//!           | {"status":"pending"}       result of an in-flight job
//! ```
//!
//! Job ids name journal records and checkpoint files, so they are
//! restricted to `[A-Za-z0-9_-]{1,64}` and must be unique per journal
//! lifetime. Responses carry no timestamps: a verdict computed live and
//! the same verdict recomputed after crash recovery are *byte-identical*,
//! which is what the recovery suite asserts.

use crate::json::Json;
use bpi_equiv::Variant;

/// Scheduling class of a job. Under overload the daemon sheds `Low`
/// first. Workers scan in declaration order, fresh before parked jobs
/// within each class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Priority {
    High,
    Normal,
    Low,
}

impl Priority {
    pub fn parse(s: &str) -> Option<Priority> {
        match s {
            "high" => Some(Priority::High),
            "normal" => Some(Priority::Normal),
            "low" => Some(Priority::Low),
            _ => None,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }
}

/// Why admission refused a job. Every rejection is typed and immediate —
/// the daemon never queues unboundedly and never hangs a client.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The job's priority queue is at capacity.
    QueueFull,
    /// Admitting the job's state budget would exceed the daemon's
    /// in-flight cost ceiling.
    BudgetExhausted,
    /// The daemon is above its shed threshold and the job is `Low`
    /// priority.
    ShedLowPriority,
    /// The daemon is shutting down.
    Draining,
    /// A job with this id already exists in the journal.
    DuplicateId,
}

impl RejectReason {
    pub fn as_str(self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue-full",
            RejectReason::BudgetExhausted => "budget-exhausted",
            RejectReason::ShedLowPriority => "shed-low-priority",
            RejectReason::Draining => "draining",
            RejectReason::DuplicateId => "duplicate-id",
        }
    }
}

/// `{"status":"rejected", ...}` — typed admission refusal.
pub fn rejected(reason: RejectReason, detail: &str) -> Json {
    Json::obj(vec![
        ("status", Json::str("rejected")),
        ("reason", Json::str(reason.as_str())),
        ("detail", Json::str(detail)),
    ])
}

/// `{"status":"error", ...}` — typed failure (parse error, deadline,
/// panic, malformed request…).
pub fn error(kind: &str, detail: &str) -> Json {
    Json::obj(vec![
        ("status", Json::str("error")),
        ("error", Json::str(kind)),
        ("detail", Json::str(detail)),
    ])
}

/// `{"status":"ok"}` with op-specific payload fields appended.
pub fn ok(fields: Vec<(&str, Json)>) -> Json {
    let mut all = vec![("status", Json::str("ok"))];
    all.extend(fields);
    Json::obj(all)
}

pub fn variant_from_str(s: &str) -> Option<Variant> {
    match s {
        "strong-barbed" => Some(Variant::StrongBarbed),
        "weak-barbed" => Some(Variant::WeakBarbed),
        "strong-step" => Some(Variant::StrongStep),
        "weak-step" => Some(Variant::WeakStep),
        "strong-labelled" => Some(Variant::StrongLabelled),
        "weak-labelled" => Some(Variant::WeakLabelled),
        _ => None,
    }
}

pub fn variant_to_str(v: Variant) -> &'static str {
    match v {
        Variant::StrongBarbed => "strong-barbed",
        Variant::WeakBarbed => "weak-barbed",
        Variant::StrongStep => "strong-step",
        Variant::WeakStep => "weak-step",
        Variant::StrongLabelled => "strong-labelled",
        Variant::WeakLabelled => "weak-labelled",
    }
}

/// Validates a job id for use as a journal key and checkpoint file stem.
pub fn valid_job_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 64
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_roundtrip() {
        for v in [
            Variant::StrongBarbed,
            Variant::WeakBarbed,
            Variant::StrongStep,
            Variant::WeakStep,
            Variant::StrongLabelled,
            Variant::WeakLabelled,
        ] {
            assert_eq!(variant_from_str(variant_to_str(v)), Some(v));
        }
        assert_eq!(variant_from_str("strong"), None);
    }

    #[test]
    fn job_ids_are_filename_safe() {
        assert!(valid_job_id("job-1_B"));
        assert!(!valid_job_id(""));
        assert!(!valid_job_id("a/b"));
        assert!(!valid_job_id("a b"));
        assert!(!valid_job_id(&"x".repeat(65)));
    }
}
