//! The text forms of the syntactic types: each type's `Display` and
//! `FromStr` carry the concrete syntax (the pretty-printer and the
//! parser), so the record codec ([`crate::record`]) writes
//! human-readable, version-stable process text rather than interner ids:
//!
//! * [`Name`], [`Ident`] — their spelling;
//! * [`Action`](crate::action::Action) — its label syntax (parsed in
//!   [`crate::action`]);
//! * [`Process`] — the [`crate::pretty`] rendering;
//! * [`Defs`] — a definition file in [`crate::parser::parse_defs`]
//!   syntax.
//!
//! Parsing a `Process` rejects malformed text with the parser's
//! position diagnostics.

use crate::name::Name;
use crate::parser::{parse_defs, parse_process, ParseError};
use crate::syntax::{Defs, Ident, Process};
use std::fmt;
use std::str::FromStr;

impl FromStr for Name {
    type Err = &'static str;

    fn from_str(s: &str) -> Result<Name, &'static str> {
        if s.is_empty() {
            return Err("empty channel name");
        }
        Ok(Name::intern_raw(s))
    }
}

impl FromStr for Ident {
    type Err = &'static str;

    fn from_str(s: &str) -> Result<Ident, &'static str> {
        if s.is_empty() {
            return Err("empty identifier");
        }
        Ok(Ident::new(s))
    }
}

impl FromStr for Process {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Process, ParseError> {
        parse_process(s).map(|p| (*p).clone())
    }
}

/// A definition file in [`parse_defs`] syntax, one definition per line.
impl fmt::Display for Defs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (id, def) in self.iter() {
            write!(f, "{id}(")?;
            for (i, p) in def.params.iter().enumerate() {
                if i > 0 {
                    f.write_str(",")?;
                }
                write!(f, "{p}")?;
            }
            writeln!(f, ") = {};", def.body)?;
        }
        Ok(())
    }
}

impl FromStr for Defs {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Defs, ParseError> {
        parse_defs(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::builder::*;

    #[test]
    fn name_roundtrip() {
        let a = Name::new("alpha");
        assert_eq!(a.to_string(), "alpha");
        assert_eq!("alpha".parse::<Name>(), Ok(a));
        assert!("".parse::<Name>().is_err());
    }

    #[test]
    fn ident_roundtrip() {
        let x = Ident::new("Fwd");
        assert_eq!(x.to_string().parse::<Ident>(), Ok(x));
        assert!("".parse::<Ident>().is_err());
    }

    #[test]
    fn action_roundtrip() {
        let [a, b, x] = names(["a", "b", "x"]);
        let act = Action::Output {
            chan: a,
            objects: vec![b, x],
            bound: vec![x],
        };
        assert_eq!(act.to_string(), "new x a<b,x>");
        assert_eq!("new x a<b,x>".parse::<Action>(), Ok(act));
        assert!("a<b".parse::<Action>().is_err());
    }

    #[test]
    fn process_roundtrip() {
        let [a, x] = names(["a", "x"]);
        let p = new(x, inp(a, [x], out_(x, [])));
        let q: Process = p.to_string().parse().unwrap();
        assert_eq!(*p, q);
    }

    #[test]
    fn process_rejects_garbage() {
        assert!("a<b".parse::<Process>().is_err());
    }

    #[test]
    fn defs_roundtrip() {
        let src = "Fwd(a,b) = a(x).b<x>.Fwd<a,b>;";
        let defs: Defs = src.parse().unwrap();
        assert_eq!(defs.len(), 1);
        let defs2: Defs = defs.to_string().parse().unwrap();
        assert_eq!(defs2.len(), 1);
        assert_eq!(
            defs.get(Ident::new("Fwd")).unwrap().body,
            defs2.get(Ident::new("Fwd")).unwrap().body
        );
    }
}
