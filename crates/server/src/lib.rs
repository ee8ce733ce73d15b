//! # bpi-server — a crash-tolerant checker daemon
//!
//! Serves parse / explore / check / reliability jobs over TCP with a
//! newline-delimited JSON protocol (see [`protocol`] for the grammar),
//! built entirely on the workspace's own engines:
//!
//! * **Session-sharded term store** ([`store`]) — concurrent tenants
//!   share warm parse and semantic caches;
//! * **Budget-based admission control** ([`scheduler`]) — bounded
//!   queues and an in-flight cost ceiling, refusals are typed
//!   `Rejected{reason}` responses, never unbounded queueing;
//! * **Deadlines** — per-job wall-clock deadlines enforced both at
//!   slice boundaries and inside the engines via [`bpi_semantics::Budget`];
//! * **Fair scheduling by checkpoint preemption** — long jobs run in
//!   fuel-bounded slices ([`bpi_equiv::Checker::run_slice`]) and park at
//!   `bpi-partition-checkpoint/v1`-style boundaries so short jobs never
//!   starve;
//! * **Panic isolation** — each slice runs under `catch_unwind`; a
//!   poisoned job yields a typed error, not a dead daemon;
//! * **Crash recovery** ([`journal`]) — a write-ahead NDJSON journal
//!   plus atomically-renamed checkpoint files; on restart the daemon
//!   replays the journal and re-serves in-flight jobs with
//!   *bit-identical* verdicts (the engines' resume-invisibility
//!   invariant, lifted to the process level);
//! * **Graceful degradation** — above the shed threshold, low-priority
//!   work is refused with a typed reason while high-priority work keeps
//!   flowing; `{"op":"stats"}` exports the `bpi-obs` metrics (queue
//!   depth, admit/reject/preempt counters, per-phase latency).

pub mod client;
pub mod journal;
pub mod protocol;
pub mod scheduler;
pub mod server;
pub mod store;

/// The wire format: `bpi-obs`'s JSON codec.
pub use bpi_obs::json;

pub use client::Client;
pub use journal::{Journal, Recovered};
pub use json::Json;
pub use protocol::{Priority, RejectReason};
pub use scheduler::{SchedCfg, Scheduler, Submit};
pub use server::{start, ServerCfg, ServerHandle};
pub use store::Store;
