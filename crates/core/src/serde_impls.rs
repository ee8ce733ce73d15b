//! Serde support for the syntactic types, through
//! [`text_serde!`](crate::text_serde): each type's `Display` and
//! `FromStr` carry the concrete syntax (the pretty-printer and the
//! parser), so any serde format carries human-readable, version-stable
//! process text rather than interner ids:
//!
//! * [`Name`], [`Ident`] — their spelling;
//! * [`Action`] — its label syntax;
//! * [`Process`] — the [`crate::pretty`] rendering;
//! * [`Defs`] — a definition file in [`crate::parser::parse_defs`]
//!   syntax.
//!
//! Deserialisation of a `Process` rejects malformed text with the
//! format's error type, carrying the parser's position diagnostics.

use crate::action::Action;
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

crate::text_serde!(Name, "a channel name");
crate::text_serde!(Ident, "a process identifier");
crate::text_serde!(
    Action,
    "a transition label (tau, a(x), a<x>, new x a<x>, a:)"
);
crate::text_serde!(Process, "a bπ process in concrete syntax");
crate::text_serde!(Defs, "a bπ definition file");

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use serde::de::value::{Error as ValueError, StrDeserializer};
    use serde::de::{Deserialize, IntoDeserializer};
    use serde::ser::Serialize;

    /// A minimal serializer that captures exactly one string — enough to
    /// exercise the `collect_str`-based impls without a format crate.
    struct StringSink(Option<String>);

    impl serde::Serializer for &mut StringSink {
        type Ok = ();
        type Error = std::fmt::Error;
        type SerializeSeq = serde::ser::Impossible<(), Self::Error>;
        type SerializeTuple = serde::ser::Impossible<(), Self::Error>;
        type SerializeTupleStruct = serde::ser::Impossible<(), Self::Error>;
        type SerializeTupleVariant = serde::ser::Impossible<(), Self::Error>;
        type SerializeMap = serde::ser::Impossible<(), Self::Error>;
        type SerializeStruct = serde::ser::Impossible<(), Self::Error>;
        type SerializeStructVariant = serde::ser::Impossible<(), Self::Error>;

        fn serialize_str(self, v: &str) -> Result<(), Self::Error> {
            self.0 = Some(v.to_owned());
            Ok(())
        }
        fn collect_str<T: fmt::Display + ?Sized>(self, v: &T) -> Result<(), Self::Error> {
            self.0 = Some(v.to_string());
            Ok(())
        }

        // Everything else is unreachable for these impls.
        unreachable_serializers! {
            serialize_bool(bool) serialize_i8(i8) serialize_i16(i16)
            serialize_i32(i32) serialize_i64(i64) serialize_u8(u8)
            serialize_u16(u16) serialize_u32(u32) serialize_u64(u64)
            serialize_f32(f32) serialize_f64(f64) serialize_char(char)
            serialize_bytes(&[u8])
        }
        fn serialize_none(self) -> Result<(), Self::Error> {
            unreachable!()
        }
        fn serialize_some<T: Serialize + ?Sized>(self, _: &T) -> Result<(), Self::Error> {
            unreachable!()
        }
        fn serialize_unit(self) -> Result<(), Self::Error> {
            unreachable!()
        }
        fn serialize_unit_struct(self, _: &'static str) -> Result<(), Self::Error> {
            unreachable!()
        }
        fn serialize_unit_variant(
            self,
            _: &'static str,
            _: u32,
            _: &'static str,
        ) -> Result<(), Self::Error> {
            unreachable!()
        }
        fn serialize_newtype_struct<T: Serialize + ?Sized>(
            self,
            _: &'static str,
            _: &T,
        ) -> Result<(), Self::Error> {
            unreachable!()
        }
        fn serialize_newtype_variant<T: Serialize + ?Sized>(
            self,
            _: &'static str,
            _: u32,
            _: &'static str,
            _: &T,
        ) -> Result<(), Self::Error> {
            unreachable!()
        }
        fn serialize_seq(self, _: Option<usize>) -> Result<Self::SerializeSeq, Self::Error> {
            unreachable!()
        }
        fn serialize_tuple(self, _: usize) -> Result<Self::SerializeTuple, Self::Error> {
            unreachable!()
        }
        fn serialize_tuple_struct(
            self,
            _: &'static str,
            _: usize,
        ) -> Result<Self::SerializeTupleStruct, Self::Error> {
            unreachable!()
        }
        fn serialize_tuple_variant(
            self,
            _: &'static str,
            _: u32,
            _: &'static str,
            _: usize,
        ) -> Result<Self::SerializeTupleVariant, Self::Error> {
            unreachable!()
        }
        fn serialize_map(self, _: Option<usize>) -> Result<Self::SerializeMap, Self::Error> {
            unreachable!()
        }
        fn serialize_struct(
            self,
            _: &'static str,
            _: usize,
        ) -> Result<Self::SerializeStruct, Self::Error> {
            unreachable!()
        }
        fn serialize_struct_variant(
            self,
            _: &'static str,
            _: u32,
            _: &'static str,
            _: usize,
        ) -> Result<Self::SerializeStructVariant, Self::Error> {
            unreachable!()
        }
    }

    macro_rules! unreachable_serializers {
        ($($name:ident($ty:ty))*) => {
            $(fn $name(self, _: $ty) -> Result<(), Self::Error> {
                unreachable!()
            })*
        };
    }
    use unreachable_serializers;

    fn to_string<T: Serialize>(v: &T) -> String {
        let mut sink = StringSink(None);
        v.serialize(&mut sink).unwrap();
        sink.0.unwrap()
    }

    #[test]
    fn name_roundtrip() {
        let a = Name::new("alpha");
        assert_eq!(to_string(&a), "alpha");
        let d: StrDeserializer<'_, ValueError> = "alpha".into_deserializer();
        assert_eq!(Name::deserialize(d).unwrap(), a);
    }

    #[test]
    fn action_roundtrip() {
        let [a, b, x] = names(["a", "b", "x"]);
        let act = crate::action::Action::Output {
            chan: a,
            objects: vec![b, x],
            bound: vec![x],
        };
        assert_eq!(to_string(&act), "new x a<b,x>");
        let d: StrDeserializer<'_, ValueError> = "new x a<b,x>".into_deserializer();
        assert_eq!(crate::action::Action::deserialize(d).unwrap(), act);
        let bad: StrDeserializer<'_, ValueError> = "a<b".into_deserializer();
        assert!(crate::action::Action::deserialize(bad).is_err());
    }

    #[test]
    fn process_roundtrip() {
        let [a, x] = names(["a", "x"]);
        let p = new(x, inp(a, [x], out_(x, [])));
        let text = to_string(&*p);
        let d: StrDeserializer<'_, ValueError> = text.as_str().into_deserializer();
        let q = Process::deserialize(d).unwrap();
        assert_eq!(*p, q);
    }

    #[test]
    fn process_rejects_garbage() {
        let d: StrDeserializer<'_, ValueError> = "a<b".into_deserializer();
        assert!(Process::deserialize(d).is_err());
    }

    #[test]
    fn defs_roundtrip() {
        let src = "Fwd(a,b) = a(x).b<x>.Fwd<a,b>;";
        let d: StrDeserializer<'_, ValueError> = src.into_deserializer();
        let defs = Defs::deserialize(d).unwrap();
        assert_eq!(defs.len(), 1);
        let text = to_string(&defs);
        let d2: StrDeserializer<'_, ValueError> = text.as_str().into_deserializer();
        let defs2 = Defs::deserialize(d2).unwrap();
        assert_eq!(defs2.len(), 1);
        assert_eq!(
            defs.get(Ident::new("Fwd")).unwrap().body,
            defs2.get(Ident::new("Fwd")).unwrap().body
        );
    }
}
