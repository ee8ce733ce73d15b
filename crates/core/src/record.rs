//! The line-record codec behind every versioned text format in the
//! workspace: checkpoints, fault logs and distributions.
//!
//! A document is a header line naming its format and version, then one
//! record per line: a tag, a tab, and tab-separated fields. Lists are
//! comma-separated. Names are stored by their spelling, transition
//! labels in their `Display` form and single processes in their
//! concrete syntax, so documents stay readable and survive interner
//! re-seeding across processes. The states of a graph share a node
//! table ([`Writer::states`]): one `node` record per distinct subterm,
//! so a state costs only its subterms that no earlier state has.
//! Umbrella documents nest sub-documents verbatim under
//! `#section <name>` lines.
//!
//! [`Writer`] emits records and [`Reader`] reads them back. The reader
//! sizes every allocation from the records it has actually read, never
//! from a count the document declares, and range-checks every node and
//! state index, so a truncated or corrupted document decodes to a
//! typed `Err`.

use crate::action::Action;
use crate::name::Name;
use crate::parser::MAX_DEPTH;
use crate::store::{cons, Consed};
use crate::syntax::{Ident, Prefix, Process, RecDef, P};
use std::collections::HashMap;
use std::fmt::{self, Display, Write};
use std::str::FromStr;

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
        items: impl IntoIterator<Item = T> + Clone,
    ) -> fmt::Result {
        writeln!(self.out, "{key}\t{}", Csv(items))
    }

    /// The node table of `states`, then one `state<TAB><node>` record
    /// per state, in order. Each distinct subterm is one `node` record,
    /// written after its children and naming them by their indices in
    /// the table (counted from 0):
    ///
    /// ```text
    /// node<TAB>nil
    /// node<TAB>tau<TAB><k>
    /// node<TAB>in<TAB><a><TAB><x,y><TAB><k>      a(x,y).k
    /// node<TAB>out<TAB><a><TAB><y,z><TAB><k>     a<y,z>.k
    /// node<TAB>sum<TAB><l><TAB><r>
    /// node<TAB>par<TAB><l><TAB><r>
    /// node<TAB>new<TAB><x><TAB><k>
    /// node<TAB>match<TAB><x><TAB><y><TAB><l><TAB><r>
    /// node<TAB>call<TAB><A><TAB><args>
    /// node<TAB>var<TAB><X><TAB><args>
    /// node<TAB>rec<TAB><X><TAB><params><TAB><args><TAB><body>
    /// ```
    ///
    /// Nodes are keyed by the term store's structural identity, not by
    /// allocation, so the text is a function of the states' values.
    pub fn states(&mut self, states: &[P]) -> fmt::Result {
        // Consed keys: equal subterms share one entry wherever they are
        // allocated, and the handles pin every class until the table is
        // written. (The cells' interior OnceLocks never feed Hash/Eq.)
        #[allow(clippy::mutable_key_type)]
        let mut index: HashMap<Consed, usize> = HashMap::new();
        let mut roots = Vec::with_capacity(states.len());
        for s in states {
            let root = cons(s);
            // Post-order without recursion: a term may be as tall as
            // its build made it.
            let mut stack = vec![(root.clone(), false)];
            while let Some((c, expanded)) = stack.pop() {
                if index.contains_key(&c) {
                    continue;
                }
                if !expanded {
                    stack.push((c.clone(), true));
                    stack.extend(c.kids().rev().map(|k| (k, false)));
                    continue;
                }
                let mut kids = [0; 2];
                for (slot, k) in kids.iter_mut().zip(c.kids()) {
                    *slot = index[&k];
                }
                self.node(c.term(), kids)?;
                let i = index.len();
                index.insert(c, i);
            }
            roots.push(index[&root]);
        }
        roots.iter().try_for_each(|i| self.field("state", i))
    }

    /// One `node` record for `p`, whose children (in syntax order) have
    /// the indices `l` and `r`.
    fn node(&mut self, p: &Process, [l, r]: [usize; 2]) -> fmt::Result {
        let out = &mut *self.out;
        out.write_str("node\t")?;
        match p {
            Process::Nil => out.write_str("nil")?,
            Process::Act(Prefix::Tau, _) => write!(out, "tau\t{l}")?,
            Process::Act(Prefix::Input(a, xs), _) => write!(out, "in\t{a}\t{}\t{l}", Csv(xs))?,
            Process::Act(Prefix::Output(a, ys), _) => write!(out, "out\t{a}\t{}\t{l}", Csv(ys))?,
            Process::Sum(..) => write!(out, "sum\t{l}\t{r}")?,
            Process::Par(..) => write!(out, "par\t{l}\t{r}")?,
            Process::New(x, _) => write!(out, "new\t{x}\t{l}")?,
            Process::Match(x, y, ..) => write!(out, "match\t{x}\t{y}\t{l}\t{r}")?,
            Process::Call(id, args) => write!(out, "call\t{id}\t{}", Csv(args))?,
            Process::Var(id, args) => write!(out, "var\t{id}\t{}", Csv(args))?,
            Process::Rec(def, args) => write!(
                out,
                "rec\t{}\t{}\t{}\t{l}",
                def.ident,
                Csv(&def.params),
                Csv(args)
            )?,
        }
        out.write_char('\n')
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

    /// Reads a state graph to the end of the document: the node table
    /// of [`Writer::states`], its block of `state` records, then `edge`
    /// records (range-checked against the block) and whatever records
    /// `other` accepts; `other` returns `false` for a tag it does not
    /// know.
    ///
    /// The table keeps the parser's guarantees: a node names only
    /// earlier nodes, none stands taller than [`MAX_DEPTH`] (counted as
    /// [`crate::parse_process`] counts) or holds more than
    /// [`MAX_TREE_NODES`] nodes as a tree, and a recursion variable
    /// occurs only inside the `rec` that binds it. Names are read with
    /// [`Name::intern_raw`]. Equal node indices decode to one shared
    /// allocation.
    pub fn graph(
        &mut self,
        mut other: impl FnMut(&'a str, &'a str) -> Result<bool, String>,
    ) -> Result<(Vec<P>, Edges), String> {
        let mut nodes: Vec<Node> = Vec::new();
        let mut states: Vec<P> = Vec::new();
        let mut edges: Option<Edges> = None;
        for rec in self.records() {
            let (tag, rest) = rec?;
            if tag == "node" {
                if !states.is_empty() || edges.is_some() {
                    return Err("node record after the node table".into());
                }
                let node =
                    Node::read(rest, &nodes).map_err(|e| format!("bad node {rest:?}: {e}"))?;
                nodes.push(node);
                continue;
            }
            if tag == "state" {
                if edges.is_some() {
                    return Err("state record after other records".into());
                }
                let i: usize = parse(rest, "state")?;
                let node = nodes
                    .get(i)
                    .ok_or_else(|| format!("state {i} out of range ({} nodes)", nodes.len()))?;
                if let Some(x) = node.open.first() {
                    return Err(format!("state {i} has a free recursion variable {x}"));
                }
                states.push(node.term.clone());
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

/// The most nodes a decoded node may hold as a tree. A `par` or `sum`
/// node may name one child twice, so k records can decode to a term of
/// 2ᵏ leaves, and every pass that walks a state as a tree (transition
/// derivation first of all, when a resumed build expands it) pays for
/// each leaf. The daemon's own builds stay far below this: a state
/// outgrows the request's terms only as the semantics unfolds
/// recursion, and the largest state of the benchmark corpus (the root
/// of its 1,000-rung τ-ladder) holds 1,002 nodes. A recursion that
/// copies itself on every step could get here, but its build would
/// first walk predecessors of millions of nodes, at tens of
/// milliseconds each. A journal that names a bigger state is refused,
/// and recovery reruns the job from its request, as for any checkpoint
/// that does not decode: the rerun reaches the same verdict.
pub const MAX_TREE_NODES: usize = 1 << 22;

/// One decoded `node` record: its term over the earlier nodes' shared
/// allocations, its height, its size as a tree (saturating) and its
/// free recursion variables.
struct Node {
    term: P,
    height: usize,
    size: usize,
    open: Vec<Ident>,
}

impl Node {
    /// Decodes the fields after a `node` tag against the nodes before it.
    fn read(rest: &str, nodes: &[Node]) -> Result<Node, String> {
        if rest == "nil" {
            return Ok(Node::leaf(Process::Nil));
        }
        let kid = |s: &str| -> Result<&Node, String> {
            let i: usize = parse(s, "child")?;
            nodes
                .get(i)
                .ok_or_else(|| format!("child {i} is not an earlier node"))
        };
        let name = |s: &str| parse::<Name>(s, "name");
        let names = |s: &str| list::<Name>(s, "name");
        let ident = |s: &str| parse::<Ident>(s, "identifier");
        let (kind, f) = rest.split_once('\t').unwrap_or((rest, ""));
        let node = match kind {
            "tau" => {
                let [k] = fields(f)?;
                let k = kid(k)?;
                Node::over(Process::Act(Prefix::Tau, k.term.clone()), &[k])
            }
            "in" | "out" => {
                let [a, ys, k] = fields(f)?;
                let (a, ys, k) = (name(a)?, names(ys)?, kid(k)?);
                let pre = if kind == "in" {
                    Prefix::Input(a, ys)
                } else {
                    Prefix::Output(a, ys)
                };
                Node::over(Process::Act(pre, k.term.clone()), &[k])
            }
            "sum" | "par" => {
                let [l, r] = fields(f)?;
                let (l, r) = (kid(l)?, kid(r)?);
                let (lt, rt) = (l.term.clone(), r.term.clone());
                let p = if kind == "sum" {
                    Process::Sum(lt, rt)
                } else {
                    Process::Par(lt, rt)
                };
                Node::over(p, &[l, r])
            }
            "new" => {
                let [x, k] = fields(f)?;
                let k = kid(k)?;
                Node::over(Process::New(name(x)?, k.term.clone()), &[k])
            }
            "match" => {
                let [x, y, l, r] = fields(f)?;
                let (l, r) = (kid(l)?, kid(r)?);
                let p = Process::Match(name(x)?, name(y)?, l.term.clone(), r.term.clone());
                Node::over(p, &[l, r])
            }
            "call" => {
                let [a, args] = fields(f)?;
                Node::leaf(Process::Call(ident(a)?, names(args)?))
            }
            "var" => {
                let [x, args] = fields(f)?;
                let x = ident(x)?;
                Node {
                    open: vec![x],
                    ..Node::leaf(Process::Var(x, names(args)?))
                }
            }
            "rec" => {
                let [x, params, args, body] = fields(f)?;
                let (ident, body) = (ident(x)?, kid(body)?);
                let def = RecDef {
                    ident,
                    params: names(params)?,
                    body: body.term.clone(),
                };
                let mut node = Node::over(Process::Rec(def, names(args)?), &[body]);
                node.open.retain(|&v| v != ident);
                node
            }
            "nil" => return Err("a nil node has no fields".into()),
            _ => return Err(format!("unknown node kind {kind:?}")),
        };
        if node.height > MAX_DEPTH {
            return Err(format!("process nested deeper than {MAX_DEPTH} levels"));
        }
        if node.size > MAX_TREE_NODES {
            return Err(format!("process tree of more than {MAX_TREE_NODES} nodes"));
        }
        Ok(node)
    }

    /// A `0`, call or recursion variable: height 0, one node.
    fn leaf(p: Process) -> Node {
        Node {
            term: p.rc(),
            height: 0,
            size: 1,
            open: Vec::new(),
        }
    }

    /// A node one level above its children `kids`.
    fn over(p: Process, kids: &[&Node]) -> Node {
        let mut open: Vec<Ident> = Vec::new();
        for &v in kids.iter().flat_map(|k| &k.open) {
            if !open.contains(&v) {
                open.push(v);
            }
        }
        Node {
            term: p.rc(),
            height: 1 + kids.iter().map(|k| k.height).max().unwrap_or(0),
            size: kids.iter().fold(1, |n: usize, k| n.saturating_add(k.size)),
            open,
        }
    }
}

/// Comma-separated items.
struct Csv<I>(I);

impl<I: IntoIterator<Item: Display> + Clone> Display for Csv<I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, x) in self.0.clone().into_iter().enumerate() {
            if i > 0 {
                f.write_char(',')?;
            }
            write!(f, "{x}")?;
        }
        Ok(())
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
