//! The line-record codec behind every versioned text format in the
//! workspace: checkpoints, fault logs and distributions.
//!
//! A document is a header line naming its format and version, then one
//! record per line: a tag, a tab, and tab-separated fields. Lists are
//! comma-separated. Processes are stored in their concrete syntax and
//! transition labels in their `Display` form, so documents stay
//! readable and survive interner re-seeding across processes. Umbrella
//! documents nest sub-documents verbatim under `#section <name>` lines.
//!
//! [`Writer`] emits records and [`Reader`] reads them back. The reader
//! sizes every allocation from the records it has actually read, never
//! from a count the document declares, and range-checks every state
//! index, so a truncated or corrupted document decodes to a typed
//! `Err`. [`text_serde!`](crate::text_serde) derives serde impls that
//! carry the same text.

use crate::action::Action;
use crate::parser::parse_process;
use crate::syntax::P;
use std::fmt::{self, Display, Write};
use std::marker::PhantomData;
use std::str::FromStr;

#[doc(hidden)]
pub use serde;

/// Outgoing `(label, target)` edges per state, in recording order.
pub type Edges = Vec<Vec<(Action, usize)>>;

/// Emits one document, record by record.
pub struct Writer<'w, W: Write + ?Sized> {
    out: &'w mut W,
}

impl<'w, W: Write + ?Sized> Writer<'w, W> {
    /// Starts a document with its header line.
    pub fn new(out: &'w mut W, header: &str) -> Result<Self, fmt::Error> {
        out.write_str(header)?;
        out.write_char('\n')?;
        Ok(Writer { out })
    }

    /// `key<TAB>value`.
    pub fn field(&mut self, key: impl Display, value: impl Display) -> fmt::Result {
        writeln!(self.out, "{key}\t{value}")
    }

    /// `key<TAB>a,b,c`.
    pub fn list<T: Display>(
        &mut self,
        key: impl Display,
        items: impl IntoIterator<Item = T>,
    ) -> fmt::Result {
        write!(self.out, "{key}\t")?;
        for (i, x) in items.into_iter().enumerate() {
            if i > 0 {
                self.out.write_char(',')?;
            }
            write!(self.out, "{x}")?;
        }
        self.out.write_char('\n')
    }

    /// One `state<TAB><process>` record per state, in order.
    pub fn states(&mut self, states: &[P]) -> fmt::Result {
        states.iter().try_for_each(|p| self.field("state", p))
    }

    /// One `edge<TAB><src><TAB><label><TAB><dst>` record per edge, in
    /// order.
    pub fn edges(&mut self, edges: &[Vec<(Action, usize)>]) -> fmt::Result {
        for (i, es) in edges.iter().enumerate() {
            for (act, j) in es {
                writeln!(self.out, "edge\t{i}\t{act}\t{j}")?;
            }
        }
        Ok(())
    }

    /// A `#section <name>` line followed by a nested document.
    pub fn section(&mut self, name: &str, body: impl Display) -> fmt::Result {
        writeln!(self.out, "#section {name}")?;
        write!(self.out, "{body}")
    }
}

/// Reads one document: the header, then fields in their fixed order,
/// then tagged records.
pub struct Reader<'a> {
    text: &'a str,
    lines: std::str::Lines<'a>,
}

impl<'a> Reader<'a> {
    /// Opens `text`, which must start with the `header` line.
    pub fn new(text: &'a str, header: &str) -> Result<Reader<'a>, String> {
        let mut lines = text.lines();
        if lines.next() != Some(header) {
            return Err(format!("not a {header} document"));
        }
        Ok(Reader { text, lines })
    }

    /// The value of the next line, which must be the `key` field.
    pub fn field(&mut self, key: &str) -> Result<&'a str, String> {
        let line = self
            .lines
            .next()
            .ok_or_else(|| format!("missing {key} record"))?;
        line.strip_prefix(key)
            .and_then(|r| r.strip_prefix('\t'))
            .ok_or_else(|| format!("expected {key} record, got {line:?}"))
    }

    /// The next field, parsed.
    pub fn value<T: FromStr<Err: Display>>(&mut self, key: &str) -> Result<T, String> {
        parse(self.field(key)?, key)
    }

    /// The next field as two tab-separated values.
    pub fn pair<T: FromStr<Err: Display>>(&mut self, key: &str) -> Result<(T, T), String> {
        let [a, b] = fields(self.field(key)?)?;
        Ok((parse(a, key)?, parse(b, key)?))
    }

    /// The next field as a comma-separated list.
    pub fn list<T: FromStr<Err: Display>>(&mut self, key: &str) -> Result<Vec<T>, String> {
        list(self.field(key)?, key)
    }

    /// The remaining non-empty lines as `(tag, fields)` records.
    pub fn records(&mut self) -> impl Iterator<Item = Result<(&'a str, &'a str), String>> + '_ {
        self.lines.by_ref().filter(|l| !l.is_empty()).map(record)
    }

    /// Fails if any record is left unread.
    pub fn end(mut self) -> Result<(), String> {
        match self.lines.find(|l| !l.is_empty()) {
            Some(line) => Err(format!("unrecognised record {line:?}")),
            None => Ok(()),
        }
    }

    /// Reads a state graph to the end of the document: a block of
    /// `state` records, then `edge` records (range-checked against the
    /// block) and whatever records `other` accepts; `other` returns
    /// `false` for a tag it does not know.
    pub fn graph(
        &mut self,
        mut other: impl FnMut(&'a str, &'a str) -> Result<bool, String>,
    ) -> Result<(Vec<P>, Edges), String> {
        let mut states: Vec<P> = Vec::new();
        let mut edges: Option<Edges> = None;
        for rec in self.records() {
            let (tag, rest) = rec?;
            if tag == "state" {
                if edges.is_some() {
                    return Err("state record after other records".into());
                }
                let p = parse_process(rest).map_err(|e| format!("bad state {rest:?}: {e}"))?;
                states.push(p);
                continue;
            }
            let n = states.len();
            let out = edges.get_or_insert_with(|| vec![Vec::new(); n]);
            if tag == "edge" {
                let [src, act, dst] = fields(rest)?;
                let src: usize = parse(src, "edge source")?;
                let dst: usize = parse(dst, "edge target")?;
                if src >= n || dst >= n {
                    return Err(format!("edge {src}->{dst} out of range ({n} states)"));
                }
                out[src].push((parse(act, "edge label")?, dst));
            } else if !other(tag, rest)? {
                return Err(format!("unrecognised record {tag:?}"));
            }
        }
        let n = states.len();
        Ok((states, edges.unwrap_or_else(|| vec![Vec::new(); n])))
    }

    /// Reads `#section <name>` blocks to the end of the document, each
    /// body the nested document verbatim (borrowed, not copied). Records
    /// before the first section go to `preamble`, which returns `false`
    /// for a tag it does not know.
    pub fn sections(
        &mut self,
        mut preamble: impl FnMut(&'a str, &'a str) -> Result<bool, String>,
    ) -> Result<Sections<'a>, String> {
        let text = self.text;
        let mut found: Vec<(&'a str, usize, usize)> = Vec::new();
        for line in self.lines.by_ref() {
            // `lines` yields subslices of `text`: recover the offset.
            let at = line.as_ptr() as usize - text.as_ptr() as usize;
            if let Some(name) = line.strip_prefix("#section ") {
                if let Some(last) = found.last_mut() {
                    last.2 = at;
                }
                let after = &text[at + line.len()..];
                let eol = if after.starts_with("\r\n") {
                    2
                } else {
                    usize::from(after.starts_with('\n'))
                };
                found.push((name, at + line.len() + eol, text.len()));
            } else if found.is_empty() && !line.is_empty() {
                let (tag, rest) = record(line)?;
                if !preamble(tag, rest)? {
                    return Err(format!("unrecognised record {line:?}"));
                }
            }
        }
        Ok(Sections(
            found
                .into_iter()
                .map(|(name, from, to)| (name, &text[from..to]))
                .collect(),
        ))
    }
}

/// The `#section` bodies of an umbrella document, by name.
pub struct Sections<'a>(Vec<(&'a str, &'a str)>);

impl<'a> Sections<'a> {
    /// The body of the first section called `name`.
    pub fn get(&self, name: &str) -> Result<&'a str, String> {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, body)| *body)
            .ok_or_else(|| format!("missing #section {name}"))
    }
}

/// Splits a line into its tag and the fields after it.
fn record(line: &str) -> Result<(&str, &str), String> {
    line.split_once('\t')
        .ok_or_else(|| format!("malformed record {line:?}"))
}

/// Parses one field; `what` names it in the error.
pub fn parse<T: FromStr<Err: Display>>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|e| format!("bad {what} {s:?}: {e}"))
}

/// Splits a record's fields at its tabs into exactly `N` fields.
pub fn fields<const N: usize>(rest: &str) -> Result<[&str; N], String> {
    let mut it = rest.split('\t');
    let out = std::array::from_fn(|_| it.next());
    match (out.iter().all(Option::is_some), it.next()) {
        (true, None) => Ok(out.map(Option::unwrap_or_default)),
        _ => Err(format!("record {rest:?} does not have {N} fields")),
    }
}

/// Parses a comma-separated list (empty text is the empty list).
pub fn list<T: FromStr<Err: Display>>(s: &str, what: &str) -> Result<Vec<T>, String> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(',').map(|x| parse(x, what)).collect()
}

/// The serde visitor of [`text_serde!`](crate::text_serde): any type
/// that parses from its text.
#[doc(hidden)]
pub struct TextVisitor<T>(pub &'static str, pub PhantomData<T>);

impl<T: FromStr<Err: Display>> serde::de::Visitor<'_> for TextVisitor<T> {
    type Value = T;

    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }

    fn visit_str<E: serde::de::Error>(self, v: &str) -> Result<T, E> {
        v.parse().map_err(E::custom)
    }
}

/// Serde impls that carry a type's text: `Serialize` writes its
/// `Display`, `Deserialize` reads a string through its `FromStr`.
/// Generic types list their parameters first:
/// `text_serde!(<T> Dist<T>, "a bpi-dist/v1 document")`.
#[macro_export]
macro_rules! text_serde {
    (@impl [$($g:ident),*] $ty:ty, $expecting:literal) => {
        impl<$($g),*> $crate::record::serde::Serialize for $ty
        where
            $ty: ::std::fmt::Display,
        {
            fn serialize<S: $crate::record::serde::Serializer>(
                &self,
                s: S,
            ) -> ::std::result::Result<S::Ok, S::Error> {
                s.collect_str(self)
            }
        }

        impl<'de, $($g),*> $crate::record::serde::Deserialize<'de> for $ty
        where
            $ty: ::std::str::FromStr,
            <$ty as ::std::str::FromStr>::Err: ::std::fmt::Display,
        {
            fn deserialize<D: $crate::record::serde::de::Deserializer<'de>>(
                d: D,
            ) -> ::std::result::Result<Self, D::Error> {
                d.deserialize_str($crate::record::TextVisitor(
                    $expecting,
                    ::std::marker::PhantomData,
                ))
            }
        }
    };
    (<$($g:ident),+> $ty:ty, $expecting:literal) => {
        $crate::text_serde!(@impl [$($g),+] $ty, $expecting);
    };
    ($ty:ty, $expecting:literal) => {
        $crate::text_serde!(@impl [] $ty, $expecting);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sections_borrow_their_bodies_verbatim() {
        let doc = "h/v1\nkey\tx\n\npre\t1\n#section a\nsub/v1\nf\t1\n#section b\r\nsub/v1\r\n";
        let mut r = Reader::new(doc, "h/v1").unwrap();
        assert_eq!(r.field("key"), Ok("x"));
        let s = r
            .sections(|tag, rest| Ok((tag, rest) == ("pre", "1")))
            .unwrap();
        assert_eq!(s.get("a"), Ok("sub/v1\nf\t1\n"));
        assert_eq!(s.get("b"), Ok("sub/v1\r\n"));
        assert!(s.get("c").is_err());
        assert!(Reader::new("h/v1\nodd\t1\n", "h/v1")
            .unwrap()
            .sections(|_, _| Ok(false))
            .is_err());
    }

    #[test]
    fn fields_and_lists_are_exact() {
        assert_eq!(fields::<2>("1\t2"), Ok(["1", "2"]));
        assert!(fields::<2>("1").is_err() && fields::<2>("1\t2\t3").is_err());
        assert_eq!(list::<u32>("", "id"), Ok(vec![]));
        assert!(list::<u32>("3,,1", "id").is_err());
    }
}
