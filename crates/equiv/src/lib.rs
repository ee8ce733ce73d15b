//! # bpi-equiv — behavioural equivalences for the bπ-calculus
//!
//! Implements Sections 3 and 4 of Ene & Muntean (2001):
//!
//! * [`graph`] — finite, pool-instantiated, label-normalised transition
//!   graphs used by all checkers;
//! * [`bisim`] — barbed (Def. 3), step (Def. 5) and labelled (Defs. 7–8)
//!   bisimilarity, strong and weak, by greatest-fixpoint pair refinement;
//! * [`epsilon`] — ε-approximate bisimilarity and bisimulation
//!   distances: the quantitative relaxation of all six relations used
//!   alongside the probabilistic fault model, with the exact engines
//!   kept as the ε = 0 oracle;
//! * [`onthefly`] — the strong variants decided from the root pair
//!   outward over states derived on demand, the first route of
//!   [`Checker::check`] after the structural test;
//! * [`partition`] — the coarsest-partition (block/splitter) refiner:
//!   near-linear equivalence checking over the union graph for all six
//!   variants, plus [`partition::quotient`] minimization and the
//!   branching pre-quotient of weak checks
//!   ([`partition::quotient_branching`]);
//! * [`congruence`] — `~₊` (Def. 11), the strong congruence `~c`
//!   (closure under all name identifications, per Lemmas 17–18), and
//!   their weak counterparts (Defs. 14–15);
//! * [`contexts`] — static-context closure testing: random static
//!   contexts plus the paper's discriminating context families (the
//!   tester `T` of Lemma 5 and `C₁` of Theorem 3);
//! * [`arbitrary`] — seeded random generation of finite processes for
//!   the sampled experiments;
//! * [`checkpoint`] — serializable snapshots of in-progress builds and
//!   refinements ([`Checkpoint`] and friends), the resumable
//!   [`Checker::run_with_checkpoint`] pipeline, and
//!   [`Checker::run_slice`], the fuel-bounded slice the `bpi-server`
//!   daemon parks and resumes.

// Resumable engines return `Interrupted<Checkpoint>` in their `Err`
// variant: the snapshot rides in the error by value so interruption is
// resumption, not an allocation dance. Clippy's Err-size heuristic
// flags this; boxing would complicate every resume path for no gain.
#![allow(clippy::result_large_err)]

pub mod arbitrary;
pub mod bisim;
pub mod checkpoint;
pub mod compose;
pub mod congruence;
pub mod contexts;
pub mod distinguish;
pub mod epsilon;
pub mod graph;
pub mod logic;
pub mod onthefly;
pub mod partition;
pub mod sensors;
pub mod testing;
pub mod upto;

pub use bisim::{
    all_variants, refine, refine_auto, refine_budgeted, refine_resume, refine_worklist,
    strong_barbed_bisimilar, strong_bisimilar, strong_step_bisimilar, weak_barbed_bisimilar,
    weak_bisimilar, weak_step_bisimilar, Checker, PairRelation, Variant, Verdict,
};
pub use checkpoint::{
    Checkpoint, GraphCheckpoint, PartitionCheckpoint, RefineCheckpoint, RefineSnapshot,
    SliceOutcome, MAX_REFINE_PAIRS,
};
pub use compose::{build_composed, try_compose_pair};
pub use congruence::{
    congruent_strong, congruent_weak, sim_plus, try_congruent_strong, try_congruent_weak,
    try_sim_plus, try_weak_sim_plus, weak_sim_plus,
};
pub use contexts::{sampled_equivalence, StaticContext};
pub use distinguish::{explain, explain_fixpoint, try_explain, Distinction, Experiment, Side};
pub use epsilon::{
    defect, epsilon_bisimilar, epsilon_distance, refine_epsilon, refine_epsilon_naive,
    try_bisimulation_distance, try_epsilon_bisimilar,
};
pub use graph::{identification_substs, shared_pool, Csr, Graph, Opts, PredCsr};
pub use logic::{sat, satisfies, try_satisfies, Formula};
pub use partition::{
    partition_safe, partition_to_relation, quotient, quotient_branching, refine_branching_self,
    refine_partition, refine_partition_budgeted, refine_partition_resume, refine_partition_self,
    Partition,
};
pub use sensors::{sensor_context, sensors_separate, SensorBarbs};
pub use testing::{may_equivalent_sampled, may_pass, trace_equivalent, traces, Test};
pub use upto::{check_bisimulation_upto, UptoVerdict};
