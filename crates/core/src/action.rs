//! Transition labels (Definition 1 of the paper).
//!
//! ```text
//! α ::= a(x̃)        reception
//!     | νỹ āx̃       (possibly bound) broadcast output, ỹ ⊆ x̃
//!     | τ           internal transition
//!     | a:          discard
//! ```
//!
//! The *discard* pseudo-action `a:` records that a process is not listening
//! on `a` (Table 2); the paper's convention `p —a(b)?→ p'` ("input or
//! discard") is realised in the equivalence checkers by treating a discard
//! of `a` as an input self-loop on `a` for every object tuple.

use crate::name::{Name, NameSet};
use std::fmt;

/// A transition label.
#[derive(Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Action {
    /// `τ` — internal step.
    Tau,
    /// `a(x̃)` — reception of the names `x̃` on channel `a` (early style:
    /// the objects are concrete names, not binders).
    Input { chan: Name, objects: Vec<Name> },
    /// `νỹ āx̃` — broadcast of `x̃` on `a`, extruding the private names
    /// `ỹ ⊆ x̃`. A *free* output has `bound` empty.
    Output {
        chan: Name,
        objects: Vec<Name>,
        /// The extruded (bound) subset of `objects`, in order of first
        /// occurrence.
        bound: Vec<Name>,
    },
    /// `a:` — the process discards any broadcast on `a`.
    Discard { chan: Name },
}

impl Action {
    /// A free (non-extruding) output label.
    pub fn free_output(chan: Name, objects: Vec<Name>) -> Action {
        Action::Output {
            chan,
            objects,
            bound: Vec::new(),
        }
    }

    /// The subject of the label, if any (`sub(α)`; `sub(τ)` is undefined).
    pub fn subject(&self) -> Option<Name> {
        match self {
            Action::Tau => None,
            Action::Input { chan, .. } | Action::Output { chan, .. } | Action::Discard { chan } => {
                Some(*chan)
            }
        }
    }

    /// The object names of the label (`obj(α)`).
    pub fn objects(&self) -> &[Name] {
        match self {
            Action::Tau | Action::Discard { .. } => &[],
            Action::Input { objects, .. } | Action::Output { objects, .. } => objects,
        }
    }

    /// Bound names `bn(α)`: the extruded names of a bound output; empty
    /// otherwise.
    pub fn bound_names(&self) -> &[Name] {
        match self {
            Action::Output { bound, .. } => bound,
            _ => &[],
        }
    }

    /// Free names `fn(α)` per Definition 1:
    /// `fn(τ)=∅, fn(a(x̃))={a}∪x̃, fn(νỹ āx̃)={a}∪x̃∖ỹ, fn(a:)={a}`.
    pub fn free_names(&self) -> NameSet {
        match self {
            Action::Tau => NameSet::new(),
            Action::Input { chan, objects } => {
                let mut s = NameSet::from_iter(objects.iter().copied());
                s.insert(*chan);
                s
            }
            Action::Output {
                chan,
                objects,
                bound,
            } => {
                let mut s = NameSet::from_iter(objects.iter().copied());
                for b in bound {
                    s.remove(*b);
                }
                s.insert(*chan);
                s
            }
            Action::Discard { chan } => NameSet::from_iter([*chan]),
        }
    }

    /// All names `n(α) = fn(α) ∪ bn(α)`.
    pub fn names(&self) -> NameSet {
        let mut s = self.free_names();
        for b in self.bound_names() {
            s.insert(*b);
        }
        s
    }

    /// Whether the label is an output (free or bound).
    pub fn is_output(&self) -> bool {
        matches!(self, Action::Output { .. })
    }

    /// Whether the label is a *step move* `α̂` — an output or `τ`
    /// (the autonomous moves of step-bisimilarity, Definition 5).
    pub fn is_step_move(&self) -> bool {
        matches!(self, Action::Tau | Action::Output { .. })
    }

    /// Whether the label is an input.
    pub fn is_input(&self) -> bool {
        matches!(self, Action::Input { .. })
    }

    /// An output label as a trace element at position `pos`: its
    /// extruded names become positional `%pos.k` markers, so the traces
    /// of α-variant runs coincide.
    ///
    /// # Panics
    /// Panics on a label that is not an output.
    pub fn normalise_label(&self, pos: usize) -> String {
        let Action::Output {
            chan,
            objects,
            bound,
        } = self
        else {
            panic!("only output labels enter a trace, not {self}")
        };
        let objs: Vec<String> = objects
            .iter()
            .map(|o| match bound.iter().position(|b| b == o) {
                Some(k) => format!("%{pos}.{k}"),
                None => o.to_string(),
            })
            .collect();
        format!("{chan}<{}>", objs.join(","))
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn list(f: &mut fmt::Formatter<'_>, ns: &[Name]) -> fmt::Result {
            for (i, n) in ns.iter().enumerate() {
                if i > 0 {
                    f.write_str(",")?;
                }
                write!(f, "{n}")?;
            }
            Ok(())
        }
        match self {
            Action::Tau => f.write_str("tau"),
            Action::Input { chan, objects } => {
                write!(f, "{chan}(")?;
                list(f, objects)?;
                f.write_str(")")
            }
            Action::Output {
                chan,
                objects,
                bound,
            } => {
                if !bound.is_empty() {
                    f.write_str("new ")?;
                    list(f, bound)?;
                    f.write_str(" ")?;
                }
                write!(f, "{chan}<")?;
                list(f, objects)?;
                f.write_str(">")
            }
            Action::Discard { chan } => write!(f, "{chan}:"),
        }
    }
}

/// Parses the [`Display`](fmt::Display) rendering back into an
/// [`Action`] — `tau`, `a(x,y)`, `a<x,y>`, `new x a<b,x>`, `a:`. The
/// round-trip through text is what lets checkpoints carry labels
/// without exposing interner ids; any name spelling the
/// interner accepts (including pool names like `#b0`) parses back to
/// the same interned [`Name`].
impl std::str::FromStr for Action {
    type Err = String;

    fn from_str(s: &str) -> Result<Action, String> {
        fn name(s: &str) -> Result<Name, String> {
            if s.is_empty() {
                return Err("empty name in action".into());
            }
            if s.chars()
                .any(|c| c.is_whitespace() || matches!(c, '(' | ')' | '<' | '>' | ',' | ':'))
            {
                return Err(format!("invalid name {s:?} in action"));
            }
            Ok(Name::intern_raw(s))
        }
        fn list(s: &str) -> Result<Vec<Name>, String> {
            if s.is_empty() {
                return Ok(Vec::new());
            }
            s.split(',').map(name).collect()
        }

        let s = s.trim();
        if s == "tau" {
            return Ok(Action::Tau);
        }
        let (bound, rest) = match s.strip_prefix("new ") {
            Some(r) => {
                let sp = r
                    .find(' ')
                    .ok_or_else(|| format!("binder list without output in {s:?}"))?;
                (list(&r[..sp])?, &r[sp + 1..])
            }
            None => (Vec::new(), s),
        };
        if let Some(chan) = rest.strip_suffix(':') {
            if !bound.is_empty() {
                return Err(format!("discard cannot bind names: {s:?}"));
            }
            return Ok(Action::Discard { chan: name(chan)? });
        }
        if let Some(i) = rest.find('(') {
            let inner = rest[i + 1..]
                .strip_suffix(')')
                .ok_or_else(|| format!("unterminated input in {s:?}"))?;
            if !bound.is_empty() {
                return Err(format!("input cannot extrude names: {s:?}"));
            }
            return Ok(Action::Input {
                chan: name(&rest[..i])?,
                objects: list(inner)?,
            });
        }
        if let Some(i) = rest.find('<') {
            let inner = rest[i + 1..]
                .strip_suffix('>')
                .ok_or_else(|| format!("unterminated output in {s:?}"))?;
            let objects = list(inner)?;
            for b in &bound {
                if !objects.contains(b) {
                    return Err(format!("extruded name {b} not among the objects in {s:?}"));
                }
            }
            return Ok(Action::Output {
                chan: name(&rest[..i])?,
                objects,
                bound,
            });
        }
        Err(format!("unrecognised action {s:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::names;

    #[test]
    fn free_names_of_bound_output() {
        let [a, b, c] = names(["a", "b", "c"]);
        let act = Action::Output {
            chan: a,
            objects: vec![b, c],
            bound: vec![b],
        };
        let f = act.free_names();
        assert!(f.contains(a) && f.contains(c) && !f.contains(b));
        assert!(act.names().contains(b));
    }

    #[test]
    fn step_moves() {
        let [a, b] = names(["a", "b"]);
        assert!(Action::Tau.is_step_move());
        assert!(Action::free_output(a, vec![b]).is_step_move());
        assert!(!Action::Input {
            chan: a,
            objects: vec![b]
        }
        .is_step_move());
        assert!(!Action::Discard { chan: a }.is_step_move());
    }

    #[test]
    fn display_forms() {
        let [a, b, x] = names(["a", "b", "x"]);
        assert_eq!(Action::Tau.to_string(), "tau");
        assert_eq!(
            Action::Input {
                chan: a,
                objects: vec![x]
            }
            .to_string(),
            "a(x)"
        );
        assert_eq!(
            Action::Output {
                chan: a,
                objects: vec![b, x],
                bound: vec![x]
            }
            .to_string(),
            "new x a<b,x>"
        );
        assert_eq!(Action::Discard { chan: a }.to_string(), "a:");
    }

    #[test]
    fn display_parse_roundtrip() {
        let [a, b, x] = names(["a", "b", "x"]);
        let cases = vec![
            Action::Tau,
            Action::Input {
                chan: a,
                objects: vec![],
            },
            Action::Input {
                chan: a,
                objects: vec![b, x],
            },
            Action::free_output(a, vec![]),
            Action::free_output(a, vec![b]),
            Action::Output {
                chan: a,
                objects: vec![b, x],
                bound: vec![x],
            },
            Action::Output {
                chan: a,
                objects: vec![b, x],
                bound: vec![b, x],
            },
            Action::Discard { chan: a },
        ];
        for act in cases {
            let text = act.to_string();
            let back: Action = text.parse().unwrap_or_else(|e| panic!("{text:?}: {e}"));
            assert_eq!(back, act, "round-trip of {text:?}");
        }
        // Pool-style spellings survive the trip.
        let pool = Action::free_output(Name::intern_raw("#b0"), vec![Name::intern_raw("#b1")]);
        assert_eq!(pool.to_string().parse::<Action>().unwrap(), pool);
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "a<b",
            "a(b",
            "new x a(b)",
            "new x a<b>",
            "new a:",
            "a b",
        ] {
            assert!(bad.parse::<Action>().is_err(), "accepted {bad:?}");
        }
    }
}
