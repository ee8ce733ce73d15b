//! A recursive-descent parser for the concrete syntax printed by
//! [`crate::pretty`].
//!
//! Grammar (EBNF; whitespace and `//`-comments are skipped):
//!
//! ```text
//! proc    := par
//! par     := sum ( '|' sum )*
//! sum     := seq ( '+' seq )*
//! seq     := 'tau' ( '.' seq )?
//!          | 'new' name (',' name)* '.' seq
//!          | '[' name '=' name ']' '{' proc '}' ( '{' proc '}' )?
//!          | 'rec' IDENT '(' names? ')' '{' proc '}' ( '<' names? '>' )?
//!          | IDENT '<' names? '>'
//!          | name '(' names? ')' ( '.' seq )?      -- input
//!          | name '<' names? '>' ( '.' seq )?      -- output
//!          | '0'
//!          | '(' proc ')'
//! names   := name ( ',' name )*
//! ```
//!
//! Lowercase-initial identifiers are channel names; uppercase-initial
//! identifiers are process identifiers. Inside `rec X(..){..}` an
//! occurrence of `X<..>` is a recursion variable; elsewhere uppercase
//! identifiers are definition calls. A definition file is a sequence of
//! `Ident(params) = proc ;` items parsed by [`parse_defs`].
//!
//! Terms are trees that every later pass walks recursively, so input
//! that would build a term taller than [`MAX_DEPTH`] is rejected with a
//! [`ParseError`] before the tall term is built.

use crate::builder;
use crate::name::Name;
use crate::syntax::{Defs, Ident, Prefix, Process, RecDef, P};
use std::fmt;

/// A parse error with byte position and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub pos: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for ParseError {}

/// The tallest term [`parse_process`] and [`parse_defs`] build. A
/// term's height is the most nodes on one path from its root down to a
/// `0`, call or recursion variable: each prefix, each name of a
/// restriction `new x̃`, each match, `rec`, `|` and `+` is one node.
/// Input is refused as soon as it would build a node past the cap. The
/// parser's own recursion (a parenthesised process, a match branch, a
/// `rec` body, the process after a run of prefixes) nests at most this
/// deep too, since parentheses build no node. A term at the cap parses,
/// conses, canonicalises, normalises ([`snf`](fn@crate::snf)), prints and drops
/// within a 2 MiB thread stack,
/// the stack of the daemon's connection threads.
pub const MAX_DEPTH: usize = 4096;

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Name(String),
    Ident(String),
    KwTau,
    KwNew,
    KwRec,
    Zero,
    LParen,
    RParen,
    LAngle,
    RAngle,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Dot,
    Comma,
    Plus,
    Bar,
    Eq,
    Semi,
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn tokens(src: &'a str) -> Result<Vec<(usize, Tok)>, ParseError> {
        let mut lx = Lexer {
            src: src.as_bytes(),
            pos: 0,
        };
        let mut out = Vec::new();
        while let Some(t) = lx.next_token()? {
            out.push(t);
        }
        Ok(out)
    }

    fn next_token(&mut self) -> Result<Option<(usize, Tok)>, ParseError> {
        loop {
            while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
                self.pos += 1;
            }
            // line comments
            if self.pos + 1 < self.src.len() && &self.src[self.pos..self.pos + 2] == b"//" {
                while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
                    self.pos += 1;
                }
                continue;
            }
            break;
        }
        if self.pos >= self.src.len() {
            return Ok(None);
        }
        let start = self.pos;
        let c = self.src[self.pos];
        let simple = |t| Ok(Some((start, t)));
        self.pos += 1;
        match c {
            b'(' => simple(Tok::LParen),
            b')' => simple(Tok::RParen),
            b'<' => simple(Tok::LAngle),
            b'>' => simple(Tok::RAngle),
            b'{' => simple(Tok::LBrace),
            b'}' => simple(Tok::RBrace),
            b'[' => simple(Tok::LBracket),
            b']' => simple(Tok::RBracket),
            b'.' => simple(Tok::Dot),
            b',' => simple(Tok::Comma),
            b'+' => simple(Tok::Plus),
            b'|' => simple(Tok::Bar),
            b'=' => simple(Tok::Eq),
            b';' => simple(Tok::Semi),
            b'0' => simple(Tok::Zero),
            // `#` admits canonical names (#0, #1, …) so that pretty-printed
            // α-canonical forms re-parse; `~` admits fresh names (x~3); `!`
            // admits the fault-harness names (`!nx0`, `a!deaf`), which must
            // survive the checkpoint text codec.
            c if c.is_ascii_alphabetic() || c == b'_' || c == b'#' || c == b'!' => {
                while self.pos < self.src.len()
                    && (self.src[self.pos].is_ascii_alphanumeric()
                        || self.src[self.pos] == b'_'
                        || self.src[self.pos] == b'\''
                        || self.src[self.pos] == b'~'
                        || self.src[self.pos] == b'#'
                        || self.src[self.pos] == b'!')
                {
                    self.pos += 1;
                }
                let s = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
                let tok = match s {
                    "tau" => Tok::KwTau,
                    "new" => Tok::KwNew,
                    "rec" => Tok::KwRec,
                    _ if s.as_bytes()[0].is_ascii_uppercase() => Tok::Ident(s.to_owned()),
                    _ => Tok::Name(s.to_owned()),
                };
                Ok(Some((start, tok)))
            }
            _ => Err(ParseError {
                pos: start,
                message: format!("unexpected character {:?}", c as char),
            }),
        }
    }
}

/// A prefix or restriction read ahead of its continuation
/// ([`Parser::seq`]).
enum Guard {
    Act(Prefix),
    New(Vec<Name>),
}

/// The parser's result type. The error is boxed so that the results
/// held across its recursion are two words wide, which keeps the frames
/// on the recursion path small (see [`MAX_DEPTH`]).
type PResult<T> = Result<T, Box<ParseError>>;

/// A parsed term with its height (see [`MAX_DEPTH`]).
type Parsed = PResult<(P, usize)>;

struct Parser {
    toks: Vec<(usize, Tok)>,
    i: usize,
    /// Recursion variables currently in scope (`rec X(..){ here }`).
    rec_scope: Vec<Ident>,
    /// [`Parser::seq`] levels open around the current position: the
    /// parser's recursion depth (see [`MAX_DEPTH`]).
    depth: usize,
}

impl Parser {
    fn new(toks: Vec<(usize, Tok)>) -> Parser {
        Parser {
            toks,
            i: 0,
            rec_scope: Vec::new(),
            depth: 0,
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.i).map(|(_, t)| t)
    }

    fn pos(&self) -> usize {
        self.toks.get(self.i).map(|(p, _)| *p).unwrap_or(usize::MAX)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.i).map(|(_, t)| t.clone());
        if t.is_some() {
            self.i += 1;
        }
        t
    }

    #[cold]
    #[inline(never)]
    fn err<T>(&self, message: impl Into<String>) -> PResult<T> {
        Err(Box::new(ParseError {
            pos: self.pos(),
            message: message.into(),
        }))
    }

    #[inline(never)]
    fn expect(&mut self, want: Tok, what: &str) -> PResult<()> {
        match self.bump() {
            Some(t) if t == want => Ok(()),
            Some(t) => {
                self.i -= 1;
                self.err(format!("expected {what}, found {t:?}"))
            }
            None => self.err(format!("expected {what}, found end of input")),
        }
    }

    #[inline(never)]
    fn name(&mut self) -> PResult<Name> {
        match self.bump() {
            // Raw interning: the parser must accept canonical (`#i`) and
            // fresh (`x~n`) names produced by our own printer.
            Some(Tok::Name(s)) => Ok(Name::intern_raw(&s)),
            Some(t) => {
                self.i -= 1;
                self.err(format!("expected a channel name, found {t:?}"))
            }
            None => self.err("expected a channel name, found end of input"),
        }
    }

    /// Comma-separated names, possibly empty, up to (not including) `close`.
    #[inline(never)]
    fn name_list(&mut self, close: &Tok) -> PResult<Vec<Name>> {
        let mut out = Vec::new();
        if self.peek() == Some(close) {
            return Ok(out);
        }
        out.push(self.name()?);
        while self.peek() == Some(&Tok::Comma) {
            self.bump();
            out.push(self.name()?);
        }
        Ok(out)
    }

    /// A whole input that is one process.
    fn process(&mut self) -> PResult<P> {
        let (out, _) = self.proc()?;
        if self.i != self.toks.len() {
            return self.err("trailing input after process");
        }
        Ok(out)
    }

    /// A whole input that is a sequence of `Ident(params) = proc ;`.
    fn defs(&mut self) -> PResult<Defs> {
        let mut defs = Defs::new();
        while self.peek().is_some() {
            let id = match self.bump() {
                Some(Tok::Ident(s)) => Ident::new(&s),
                _ => {
                    self.i -= 1;
                    return self.err("expected a definition name (uppercase identifier)");
                }
            };
            self.expect(Tok::LParen, "'(' opening definition parameters")?;
            let params = self.name_list(&Tok::RParen)?;
            self.expect(Tok::RParen, "')' closing definition parameters")?;
            self.expect(Tok::Eq, "'=' in definition")?;
            let (body, _) = self.proc()?;
            self.expect(Tok::Semi, "';' terminating definition")?;
            defs.define(id, params, body);
        }
        Ok(defs)
    }

    /// `par := sum ('|' sum)*` with `sum := seq ('+' seq)*`, in one
    /// frame. Both chains nest to the left, so each further operand
    /// raises the chain's height by at least one.
    fn proc(&mut self) -> Parsed {
        let mut par = None;
        loop {
            let mut sum = self.seq()?;
            while self.peek() == Some(&Tok::Plus) {
                self.bump();
                let q = self.seq()?;
                sum = self.join(Process::Sum, sum, q)?;
            }
            par = Some(match par {
                Some(p) => self.join(Process::Par, p, sum)?,
                None => sum,
            });
            if self.peek() != Some(&Tok::Bar) {
                break;
            }
            self.bump();
        }
        Ok(par.expect("the loop parses at least one operand"))
    }

    /// One level of the parser's recursion: a run of prefixes, a match,
    /// `rec`, call, `0` or parenthesised process, refused past
    /// [`MAX_DEPTH`]. Each production has its own non-inlined function,
    /// so a level costs only the small frames on its recursion path and
    /// the cap fits a 2 MiB stack in unoptimised builds too.
    fn seq(&mut self) -> Parsed {
        if self.depth >= MAX_DEPTH {
            return self.too_deep();
        }
        self.depth += 1;
        let p = match self.peek() {
            Some(Tok::KwTau | Tok::KwNew | Tok::Name(_)) => self.guarded(),
            Some(Tok::Zero) => {
                self.bump();
                Ok((builder::nil(), 0))
            }
            Some(Tok::LBracket) => self.matching(),
            Some(Tok::KwRec) => self.rec(),
            Some(Tok::Ident(_)) => self.call(),
            Some(Tok::LParen) => self.parens(),
            _ => self.unexpected(),
        };
        self.depth -= 1;
        p
    }

    fn at_guard(&self) -> bool {
        matches!(self.peek(), Some(Tok::KwTau | Tok::KwNew | Tok::Name(_)))
    }

    /// A run of prefixes and restrictions `π₁.….πₙ.rest`, read in a loop
    /// and folded onto `rest` — the deepest common shape (τ-ladders,
    /// checkpointed states) costs no recursion. Each prefix and each
    /// restricted name adds one node of height.
    #[inline(never)]
    fn guarded(&mut self) -> Parsed {
        let mut guards = Vec::new();
        let mut height = 0;
        let (rest, rest_height) = loop {
            match self.peek() {
                Some(Tok::KwNew) => {
                    let xs = self.restriction_head()?;
                    height += xs.len();
                    guards.push(Guard::New(xs));
                }
                Some(Tok::KwTau) => {
                    self.bump();
                    height += 1;
                    guards.push(Guard::Act(Prefix::Tau));
                }
                _ => {
                    height += 1;
                    guards.push(Guard::Act(self.prefix_head()?));
                }
            }
            if height > MAX_DEPTH {
                return self.too_deep();
            }
            // A restriction's body is mandatory, an action's continuation
            // optional.
            if matches!(guards.last(), Some(Guard::Act(_))) {
                if self.peek() != Some(&Tok::Dot) {
                    break (builder::nil(), 0);
                }
                self.bump();
            }
            if !self.at_guard() {
                break self.seq()?;
            }
        };
        if height + rest_height > MAX_DEPTH {
            return self.too_deep();
        }
        let p = guards.into_iter().rev().fold(rest, |cont, g| match g {
            Guard::Act(prefix) => Process::Act(prefix, cont).rc(),
            Guard::New(xs) => builder::new_many(xs, cont),
        });
        Ok((p, height + rest_height))
    }

    /// The height of a node over a child `child` tall, refused past
    /// [`MAX_DEPTH`] before the node is built.
    fn above(&self, child: usize) -> PResult<usize> {
        if child >= MAX_DEPTH {
            return self.too_deep();
        }
        Ok(child + 1)
    }

    /// `op(p, q)`, refused when it would stand taller than [`MAX_DEPTH`].
    /// Out of line, keeping the node temporary off the frames that stay
    /// live across the parser's recursion.
    #[inline(never)]
    fn join(&self, op: fn(P, P) -> Process, (p, hp): (P, usize), (q, hq): (P, usize)) -> Parsed {
        let height = self.above(hp.max(hq))?;
        Ok((op(p, q).rc(), height))
    }

    #[cold]
    #[inline(never)]
    fn too_deep<T>(&self) -> PResult<T> {
        self.err(format!("process nested deeper than {MAX_DEPTH} levels"))
    }

    #[cold]
    #[inline(never)]
    fn unexpected(&self) -> Parsed {
        match self.peek() {
            Some(t) => self.err(format!("unexpected token {t:?}")),
            None => self.err("unexpected end of input"),
        }
    }

    /// `new x̃.`
    #[inline(never)]
    fn restriction_head(&mut self) -> PResult<Vec<Name>> {
        self.bump();
        let mut xs = vec![self.name()?];
        while self.peek() == Some(&Tok::Comma) {
            self.bump();
            xs.push(self.name()?);
        }
        self.expect(Tok::Dot, "'.' after restricted names")?;
        Ok(xs)
    }

    #[inline(never)]
    fn matching(&mut self) -> Parsed {
        self.bump();
        let x = self.name()?;
        self.expect(Tok::Eq, "'=' in match")?;
        let y = self.name()?;
        self.expect(Tok::RBracket, "']' closing match")?;
        self.expect(Tok::LBrace, "'{' opening then-branch")?;
        let (then, then_height) = self.proc()?;
        self.expect(Tok::RBrace, "'}' closing then-branch")?;
        let (els, els_height) = if self.peek() == Some(&Tok::LBrace) {
            self.bump();
            let e = self.proc()?;
            self.expect(Tok::RBrace, "'}' closing else-branch")?;
            e
        } else {
            (builder::nil(), 0)
        };
        let height = self.above(then_height.max(els_height))?;
        Ok((builder::mat(x, y, then, els), height))
    }

    #[inline(never)]
    fn rec(&mut self) -> Parsed {
        let (id, params) = self.rec_head()?;
        self.rec_scope.push(id);
        let body = self.proc();
        self.rec_scope.pop();
        self.rec_tail(id, params, body?)
    }

    /// `rec X(params) {`
    #[inline(never)]
    fn rec_head(&mut self) -> PResult<(Ident, Vec<Name>)> {
        self.bump();
        let id = match self.bump() {
            Some(Tok::Ident(s)) => Ident::new(&s),
            _ => {
                self.i -= 1;
                return self.err("expected an uppercase identifier after 'rec'");
            }
        };
        self.expect(Tok::LParen, "'(' opening rec parameters")?;
        let params = self.name_list(&Tok::RParen)?;
        self.expect(Tok::RParen, "')' closing rec parameters")?;
        self.expect(Tok::LBrace, "'{' opening rec body")?;
        Ok((id, params))
    }

    /// `} <args>?` after the body.
    #[inline(never)]
    fn rec_tail(
        &mut self,
        ident: Ident,
        params: Vec<Name>,
        (body, body_height): (P, usize),
    ) -> Parsed {
        self.expect(Tok::RBrace, "'}' closing rec body")?;
        let height = self.above(body_height)?;
        let args = if self.peek() == Some(&Tok::LAngle) {
            self.bump();
            let a = self.name_list(&Tok::RAngle)?;
            self.expect(Tok::RAngle, "'>' closing rec arguments")?;
            a
        } else {
            params.clone()
        };
        let def = RecDef {
            ident,
            params,
            body,
        };
        Ok((Process::Rec(def, args).rc(), height))
    }

    #[inline(never)]
    fn call(&mut self) -> Parsed {
        let Some(Tok::Ident(s)) = self.bump() else {
            unreachable!("call() is entered on an identifier")
        };
        let id = Ident::new(&s);
        self.expect(Tok::LAngle, "'<' opening call arguments")?;
        let args = self.name_list(&Tok::RAngle)?;
        self.expect(Tok::RAngle, "'>' closing call arguments")?;
        if self.rec_scope.contains(&id) {
            Ok((Process::Var(id, args).rc(), 0))
        } else {
            Ok((Process::Call(id, args).rc(), 0))
        }
    }

    /// `a(x̃)` or `a<ỹ>`.
    #[inline(never)]
    fn prefix_head(&mut self) -> PResult<Prefix> {
        let a = self.name()?;
        match self.peek() {
            Some(Tok::LParen) => {
                self.bump();
                let xs = self.name_list(&Tok::RParen)?;
                self.expect(Tok::RParen, "')' closing input objects")?;
                Ok(Prefix::Input(a, xs))
            }
            Some(Tok::LAngle) => {
                self.bump();
                let ys = self.name_list(&Tok::RAngle)?;
                self.expect(Tok::RAngle, "'>' closing output objects")?;
                Ok(Prefix::Output(a, ys))
            }
            _ => self.err("expected '(' or '<' after channel name"),
        }
    }

    #[inline(never)]
    fn parens(&mut self) -> Parsed {
        self.bump();
        let p = self.proc()?;
        self.expect(Tok::RParen, "')' closing parenthesised process")?;
        Ok(p)
    }
}

/// Parses a single process term.
///
/// ```
/// use bpi_core::{parse_process, alpha_eq};
/// let p = parse_process("new t. a<t>.t<>").unwrap();
/// let q = parse_process("new u. a<u>.u<>").unwrap();
/// assert!(alpha_eq(&p, &q));
/// assert!(parse_process("a<b").is_err());
/// // Terms are at most `MAX_DEPTH` nodes tall.
/// let deep = format!("{}0", "tau.".repeat(bpi_core::parser::MAX_DEPTH + 1));
/// assert!(parse_process(&deep).is_err());
/// ```
pub fn parse_process(src: &str) -> Result<P, ParseError> {
    Parser::new(Lexer::tokens(src)?).process().map_err(|e| *e)
}

/// Parses a definition file: a sequence of `Ident(params) = proc ;` items.
///
/// ```
/// use bpi_core::{parse_defs, Ident};
/// let defs = parse_defs("Fwd(a,b) = a(x).b<x>.Fwd<a,b>;").unwrap();
/// assert!(defs.get(Ident::new("Fwd")).is_some());
/// ```
pub fn parse_defs(src: &str) -> Result<Defs, ParseError> {
    Parser::new(Lexer::tokens(src)?).defs().map_err(|e| *e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::canon::alpha_eq;

    fn roundtrip(src: &str) {
        let p = parse_process(src).unwrap();
        let printed = p.to_string();
        let q = parse_process(&printed)
            .unwrap_or_else(|e| panic!("reparse of {printed:?} failed: {e}"));
        assert_eq!(p, q, "round-trip changed the term: {src} -> {printed}");
    }

    #[test]
    fn parses_basic_terms() {
        let [a, b, x] = names(["a", "b", "x"]);
        assert_eq!(parse_process("0").unwrap(), nil());
        assert_eq!(parse_process("tau").unwrap(), tau_());
        assert_eq!(parse_process("a<b>").unwrap(), out_(a, [b]));
        assert_eq!(parse_process("a(x).x<>").unwrap(), inp(a, [x], out_(x, [])));
        assert_eq!(
            parse_process("a<> + b<>").unwrap(),
            sum(out_(a, []), out_(b, []))
        );
        assert_eq!(
            parse_process("a<> | b<>").unwrap(),
            par(out_(a, []), out_(b, []))
        );
    }

    #[test]
    fn precedence_sum_tighter_than_par() {
        let [a, b, c] = names(["a", "b", "c"]);
        // a<> + b<> | c<>  ==  (a<> + b<>) | c<>
        assert_eq!(
            parse_process("a<> + b<> | c<>").unwrap(),
            par(sum(out_(a, []), out_(b, [])), out_(c, []))
        );
    }

    #[test]
    fn parses_new_match_rec() {
        roundtrip("new x,y. a<x,y>");
        roundtrip("[x=y]{tau}{x<>}");
        roundtrip("[x=y]{tau}");
        roundtrip("rec Z(x){ x<>.Z<x> }<y>");
        roundtrip("new u. (rec Y(b,u){ b<u>.Y<b,u> }<b,u> | a(w).0)");
    }

    #[test]
    fn rec_variable_vs_call() {
        let p = parse_process("rec X(x){ x<>.X<x> }<a>").unwrap();
        match &*p {
            Process::Rec(def, _) => match &*def.body {
                Process::Act(_, cont) => {
                    assert!(matches!(&**cont, Process::Var(..)));
                }
                _ => panic!(),
            },
            _ => panic!(),
        }
        // Outside of rec, uppercase is a Call.
        let q = parse_process("X<a>").unwrap();
        assert!(matches!(&*q, Process::Call(..)));
    }

    #[test]
    fn parses_defs() {
        let defs = parse_defs(
            "Fwd(a,b) = a(x).b<x>.Fwd<a,b>;\n\
             Pair(a) = Fwd<a,a> | Fwd<a,a>;",
        )
        .unwrap();
        assert_eq!(defs.len(), 2);
        let fwd = defs.get(Ident::new("Fwd")).unwrap();
        assert_eq!(fwd.params.len(), 2);
    }

    #[test]
    fn fault_harness_names_roundtrip() {
        // The fault combinators (`noise`, `deafen`) and the chaos harness
        // intern names containing `!`; checkpoints of fault-instrumented
        // systems must survive the text codec.
        roundtrip("a(!nx0).rec Noise(a){ a(!nx0).Noise<a> }<a>");
        roundtrip("a!deaf(x).x<>");
        let p = parse_process("a!deaf<b>").unwrap();
        assert_eq!(p, out_(Name::intern_raw("a!deaf"), [Name::intern_raw("b")]));
    }

    #[test]
    fn error_reports_position() {
        let e = parse_process("a<b").unwrap_err();
        assert!(e.message.contains('>'), "message: {}", e.message);
        let e2 = parse_process("a b").unwrap_err();
        assert!(e2.pos > 0);
    }

    #[test]
    fn comments_and_whitespace() {
        let p = parse_process("// leading comment\n a<> // trailing\n + b<>").unwrap();
        assert_eq!(summands(&p).len(), 2);
    }

    /// Runs `f` on a thread with std's default 2 MiB spawn stack — the
    /// stack the daemon's connection threads parse on.
    fn on_small_stack(f: impl FnOnce() + Send + 'static) {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(f)
            .unwrap()
            .join()
            .expect("no stack overflow on a 2 MiB thread");
    }

    fn tau_chain(levels: usize) -> String {
        vec!["tau"; levels].join(".")
    }

    fn par_chain(operands: usize) -> String {
        vec!["a<>"; operands].join(" | ")
    }

    /// `new x`, `a<x>`, `tau` and `a(y)` in turn, one node each.
    fn guard_chain(levels: usize) -> String {
        let guards = ["new x", "a<x>", "tau", "a(y)"];
        let chain: Vec<&str> = (0..levels).map(|i| guards[i % 4]).collect();
        format!("{}.0", chain.join("."))
    }

    /// One restriction of `names` names: `names` nested `New` nodes.
    fn new_list(names: usize) -> String {
        format!("new {}.0", vec!["a"; names].join(","))
    }

    /// A τ-chain as the first operand of a 100-operand `|` chain, which
    /// sits under the chain's 99 `Par` nodes.
    fn deep_first_operand(height: usize) -> String {
        format!("{} | {}", tau_chain(height - 99), par_chain(99))
    }

    #[test]
    fn depth_cap_admits_the_cap_and_refuses_one_level_more() {
        on_small_stack(|| {
            for src in [
                tau_chain(MAX_DEPTH),
                par_chain(MAX_DEPTH),
                guard_chain(MAX_DEPTH),
                new_list(MAX_DEPTH),
                deep_first_operand(MAX_DEPTH),
            ] {
                let p = parse_process(&src).expect("a term MAX_DEPTH tall parses");
                // The passes every consumer runs on a parsed term stay
                // within the same stack.
                assert!(alpha_eq(&crate::canon::canon(&p), &p));
                assert!(!p.to_string().is_empty());
                drop(crate::cons(&p));
                assert_eq!(crate::snf(&p), crate::snf(&p));
            }
            // A `|` chain with a deep first operand, nested as the first
            // operand of further long chains: each nesting would add
            // thousands of levels to the term.
            let mut nested = format!(
                "{} | {}",
                tau_chain(MAX_DEPTH - 100),
                par_chain(MAX_DEPTH - 100)
            );
            for _ in 0..24 {
                nested = format!("({nested}) | {}", par_chain(4000));
            }
            for src in [
                tau_chain(MAX_DEPTH + 1),
                par_chain(MAX_DEPTH + 1),
                guard_chain(MAX_DEPTH + 1),
                new_list(MAX_DEPTH + 1),
                deep_first_operand(MAX_DEPTH + 1),
                tau_chain(100_000),
                par_chain(100_000),
                new_list(100_000),
                nested,
            ] {
                let e = parse_process(&src).expect_err("one level past the cap");
                assert!(
                    e.message.contains("nested deeper"),
                    "message: {}",
                    e.message
                );
            }
        });
    }

    #[test]
    fn depth_cap_bounds_the_parser_recursion() {
        // Parentheses, match branches, rec bodies and the process after
        // a prefix recurse through the whole grammar per level; at the
        // cap they still fit.
        on_small_stack(|| {
            let parens = format!(
                "{}0{}",
                "(".repeat(MAX_DEPTH - 1),
                ")".repeat(MAX_DEPTH - 1)
            );
            parse_process(&parens).expect("MAX_DEPTH levels of parentheses");
            let matches = format!(
                "{}0{}",
                "[x=y]{".repeat(MAX_DEPTH - 1),
                "}".repeat(MAX_DEPTH - 1)
            );
            parse_process(&matches).expect("MAX_DEPTH levels of matches");
            let recs = format!(
                "{}0{}",
                "rec X(){".repeat(MAX_DEPTH - 1),
                "}".repeat(MAX_DEPTH - 1)
            );
            parse_process(&recs).expect("MAX_DEPTH levels of rec bodies");
            // Two levels each: the prefix's continuation and the
            // parenthesised process.
            let half = MAX_DEPTH / 2 - 1;
            let prefixed = format!("{}0{}", "tau.(".repeat(half), ")".repeat(half));
            parse_process(&prefixed).expect("MAX_DEPTH levels of prefixed parentheses");
            let too_deep = format!("{}0{}", "(".repeat(MAX_DEPTH), ")".repeat(MAX_DEPTH));
            assert!(parse_process(&too_deep).is_err());
            // Parentheses build no node, so a term at the cap can sit
            // at the parser's deepest point, and is dropped there when
            // the operand after it is refused.
            let (open, close) = ("(".repeat(MAX_DEPTH - 2), ")".repeat(MAX_DEPTH - 2));
            let at_cap = format!("{open}{}{close}", tau_chain(MAX_DEPTH));
            parse_process(&at_cap).expect("a term at the cap inside parentheses");
            let past_cap = format!("{open}{} | a<>{close}", tau_chain(MAX_DEPTH));
            assert!(parse_process(&past_cap).is_err());
            let defs = format!("D() = {};", tau_chain(MAX_DEPTH + 1));
            assert!(parse_defs(&defs).is_err(), "definitions are capped too");
        });
    }

    #[test]
    fn pretty_roundtrip_alpha() {
        // Round-trip through printing preserves alpha-equivalence even for
        // canonical names.
        let p = parse_process("new x. a(y).x<y>").unwrap();
        let c = crate::canon::canon(&p);
        let reparsed = parse_process(&c.to_string()).unwrap();
        assert!(alpha_eq(&c, &reparsed));
    }
}
