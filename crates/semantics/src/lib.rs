//! # bpi-semantics — operational semantics of the bπ-calculus
//!
//! Implements Tables 2 and 3 of Ene & Muntean (2001):
//!
//! * [`discard`] — the relation `p —a:→` ("`p` ignores broadcasts on
//!   `a`") and the listening interface `In(p)`;
//! * [`lts`] — the labelled transition system, with atomic one-to-many
//!   broadcast in parallel composition, scope extrusion, and early
//!   pool-instantiated inputs;
//! * [`weak`] — weak transitions, barbs (`↓a`, `⇓a`) and step-barbs
//!   (`↓ₐ^φ`, `⇓ₐ^φ`);
//! * [`explore`](mod@explore) — reachable state graphs, quotiented by
//!   α-equivalence and extruded-name renaming, built by one loop
//!   ([`explore_budgeted`]);
//! * [`cache`] — memoized transition/normalisation derivations keyed by
//!   hash-consed term ids and the defs generation stamp;
//! * [`sim`] — seeded random execution for large closed systems;
//! * [`budget`] — resource envelopes ([`Budget`]) and typed exhaustion
//!   ([`EngineError`]) shared by every engine, so running out of states,
//!   time, or patience degrades instead of panicking;
//! * [`faults`] — a seeded fault-injection runtime (lossy broadcast,
//!   crash-stop and stop/resume nodes, bounded delivery refusal in the
//!   sense of axiom (H)) with a replayable [`FaultLog`];
//! * [`checkpoint`] — the [`Interrupted`]-with-checkpoint error
//!   convention of the engines the daemon slices, so budget exhaustion
//!   loses no work, and the fuel tank ([`CheckpointCfg`]) that stops a
//!   run at a unit boundary;
//! * [`chaos`] — the seeded `BPI_CHAOS` self-fault harness injecting
//!   scheduling delays into the shared memos and weak closures;
//! * [`prob`] — the quantitative fault model: exact bounded-depth DTMC
//!   enumeration and seeded, resumable Monte-Carlo estimation of
//!   convergence probabilities under [`FaultPlan`] loss rates.

// Checkpointed engines return `Interrupted<C>` in their `Err` variant:
// the checkpoint rides in the error by value so callers can resume
// without an extra allocation layer, which clippy's size heuristic
// dislikes. Boxing would complicate every resume path for no gain.
#![allow(clippy::result_large_err)]

pub mod analysis;
pub mod budget;
pub mod cache;
pub mod chaos;
pub mod checkpoint;
pub mod discard;
pub mod explore;
pub mod faults;
pub mod lts;
pub mod prob;
pub mod sim;
pub mod weak;

pub use analysis::{analyse, reliability, Analysis, Verdict};
pub use budget::{Budget, EngineError};
pub use cache::{input_transitions_cached, normalize_state_cached, step_transitions_cached};
pub use chaos::{ChaosEvent, ChaosLog, ChaosPlan};
pub use checkpoint::{CheckpointCfg, Interrupted};
pub use discard::{discards, input_arities, listening};
pub use explore::{
    explore, explore_budgeted, normalize_state, output_reachable, output_reachable_budgeted,
    ExploreOpts, StateGraph,
};
pub use faults::{
    deafen, lossy_traces, noise, Backoff, FaultError, FaultEvent, FaultLog, FaultPlan,
    FaultySimulator,
};
pub use lts::{par_components, tuples, Lts};
pub use prob::{
    convergence_exact, convergence_mc, convergence_mc_resume, sample_seed, step_distribution,
    wilson_ci, ExactOutcome, McCheckpoint, ProbError, ReliabilityEstimate,
};
pub use sim::{Simulator, Trace};
pub use weak::{TauSaturation, Weak};
