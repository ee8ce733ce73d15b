//! # bpi-core — syntax of the bπ-calculus
//!
//! This crate implements the syntactic layer of the **bπ-calculus** of
//! Ene & Muntean, *A Broadcast-based Calculus for Communicating Systems*
//! (IPPS/FMPPTA 2001): a π-calculus-style name-passing process calculus
//! whose only communication primitive is unbuffered **broadcast**.
//!
//! Contents:
//!
//! * [`name`] — interned channel names, name sets, fresh-name generation;
//! * [`syntax`] — the process grammar of Table 1, free/bound names,
//!   definition environments, guardedness checks;
//! * [`action`] — transition labels (Definition 1), including the
//!   broadcast-specific *discard* label;
//! * [`subst`] — capture-avoiding substitution and recursion unfolding;
//! * [`canon`](mod@canon) — α-canonical forms and α-equivalence;
//! * [`snf`](mod@snf) — structural normal forms: α-canonical, with the
//!   `~c` laws of nil, `+` and `‖` applied, so that equal forms are
//!   congruent before any semantics runs;
//! * [`builder`] — ergonomic term constructors;
//! * [`dist`] — finite weighted outcome distributions, the value type of
//!   the probabilistic fault layer;
//! * [`parser`] / [`pretty`] — a concrete syntax;
//! * [`record`] — the line-record codec every versioned text format
//!   (checkpoints, fault logs, distributions) is written in;
//! * [`text`] — `FromStr` for names, identifiers, processes and
//!   definition files, the parsing half of their text forms.
//!
//! The operational semantics lives in `bpi-semantics`, behavioural
//! equivalences in `bpi-equiv`, and the Section-5 axiomatisation in
//! `bpi-axioms`.

pub mod action;
pub mod builder;
pub mod canon;
pub mod dist;
pub mod name;
pub mod parser;
pub mod pretty;
pub mod record;
pub mod simplify;
pub mod snf;
pub mod store;
pub mod subst;
pub mod syntax;
pub mod text;

pub use action::Action;
pub use canon::{alpha_eq, canon};
pub use dist::Dist;
pub use name::{fresh_name, fresh_names, Name, NameSet};
pub use parser::{parse_defs, parse_process, ParseError};
pub use simplify::prune;
pub use snf::snf;
pub use store::{cached_canon, cached_free_names, cons, term_id, Consed, TermId};
pub use subst::{unfold_call, unfold_rec, Subst};
pub use syntax::{Def, Defs, Ident, Prefix, Process, RecDef, P};
