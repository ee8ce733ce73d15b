//! # bpi-axioms — the Section 5 axiomatisation of strong congruence
//!
//! Implements the axiom system **A** of Ene & Muntean (2001), Tables 6–8,
//! and the normal-form decision procedure behind its completeness proof:
//!
//! * [`condition`] — conditions `φ`, partitions, complete conditions
//!   (Definitions 16–18);
//! * [`heads`](mod@heads) — Table 7 (restriction push-in, including the
//!   broadcast-only (RP2)/(RP3)) and Table 8 (the broadcast expansion
//!   law) as executable rewrites producing the unguarded prefixes of a
//!   finite process;
//! * [`hnf`](mod@hnf) — head normal forms on a name set (Definition 17,
//!   Lemma 16);
//! * [`rewrite`] — each axiom as an instance generator, so soundness
//!   (Theorem 6) is a testable property against the independent
//!   LTS-based `~c` checker;
//! * [`prover`] — the normal-form prover for `~c` on finite processes
//!   (Theorems 6–7), with the noisy axiom (H) switchable to exhibit its
//!   independence.

pub mod condition;
pub mod expansion;
pub mod heads;
pub mod hnf;
pub mod prover;
pub mod rewrite;

pub use condition::{Condition, Partition};
pub use expansion::{expand_symbolic, symbolic_summands};
pub use heads::{heads, reconstruct, Head};
pub use hnf::{hnf, Hnf};
pub use prover::Prover;
pub use rewrite::{normalize_deep, normalize_layer, Axiom, Blocks, ALL_AXIOMS};
