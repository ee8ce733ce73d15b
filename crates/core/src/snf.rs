//! Structural normal forms: the laws of `~c` that need no semantics.
//!
//! [`snf`] rewrites a term by structural laws only, each of which holds
//! for the strong congruence `~c` (Theorem 6), the finest relation the
//! checkers decide, at any depth of a term:
//!
//! ```text
//! p =α q ⇒ p ≡ q                               rule (1) of Table 3
//! p ‖ nil ≡ p    p + nil ≡ p    νx p ≡ p  (x ∉ fn(p))   Lemmas 2/4/6 (b), (e), (h)
//! p ‖ q ≡ q ‖ p    (p ‖ q) ‖ r ≡ p ‖ (q ‖ r)             Lemmas 2/4/6 (c), (d)
//! p + q ≡ q + p    (p + q) + r ≡ p + (q + r)    p + p ≡ p   Table 6 (S1)–(S4)
//! ```
//!
//! So `snf(p) == snf(q)` proves `p ~c q`, and with it every strong and
//! weak bisimilarity of Section 3. The converse fails, and need not
//! hold: the form only has to preserve `≡`, and a merge it misses costs
//! a check its speed, never its verdict.
//!
//! * Nil units and vacuous restrictions go first, exactly as [`prune`]
//!   drops them.
//! * `+` and `‖` are flattened and their operands sorted by an order
//!   that reads node kinds and name spellings only: never interner ids,
//!   term ids or a per-process hash, so the form is the same in every
//!   process and whichever name was interned first.
//! * Duplicate `+` operands are dropped (S2). Duplicate `‖` operands are
//!   kept: `a̅ ‖ a̅` broadcasts twice and `a̅` once.
//! * A binder is named by its *level*, the number of binders above it,
//!   as `#0, #1, …` (skipping canonical names free in the term). Sorting
//!   and flattening do not change a binder's level, so a subterm's
//!   binders are named the same wherever sorting puts it:
//!   `a(x).x̅ ‖ b(y).y̅` and `b(y).y̅ ‖ a(x).x̅` both become
//!   `a(#0).#0̅ ‖ b(#0).#0̅`. (Pre-order naming, as
//!   [`canon`](mod@crate::canon) does, would number them by position
//!   and tell the two apart.)
//! * Calls, recursion variables and `rec` terms are atoms: a `rec` body
//!   is renamed like the rest of the term, so that α-equal atoms compare
//!   equal, and nothing else in it is rewritten.

use crate::name::{Name, NameSet};
use crate::simplify::prune;
use crate::syntax::{Prefix, Process, RecDef, P};
use std::cmp::Ordering;
use std::sync::Arc;

/// The structural normal form of `p` (module docs): `snf(p) ≡ p` by
/// α-conversion, the nil-unit and vacuous-restriction laws, and the
/// commutative-monoid laws of `‖` and the idempotent ones of `+`, so
/// equal normal forms are `~c`-congruent.
///
/// ```
/// use bpi_core::{parse_process, snf};
/// let p = parse_process("a(x).x<> | (b<> + b<>) | 0").unwrap();
/// let q = parse_process("b<> | a(y).y<>").unwrap();
/// assert_eq!(snf(&p), snf(&q));
/// let twice = parse_process("b<> | b<>").unwrap();
/// assert_ne!(snf(&twice), snf(&parse_process("b<>").unwrap()));
/// ```
pub fn snf(p: &P) -> P {
    let p = prune(p);
    Normalizer::new(&p.free_names()).go(&p, true)
}

/// The renaming state of one normalisation.
struct Normalizer {
    /// Scoped bindings, innermost last; the `i`-th is at level `i`.
    env: Vec<(Name, Name)>,
    /// The name of each binder level met so far.
    levels: Vec<Name>,
    /// Canonical names free in the whole term, which no level may take.
    taken: NameSet,
    /// Next canonical index to try for a new level.
    next: usize,
}

impl Normalizer {
    fn new(free: &NameSet) -> Normalizer {
        Normalizer {
            env: Vec::new(),
            levels: Vec::new(),
            taken: NameSet::from_iter(free.iter().filter(|n| n.is_canonical())),
            next: 0,
        }
    }

    fn lookup(&self, n: Name) -> Name {
        self.env
            .iter()
            .rev()
            .find(|(from, _)| *from == n)
            .map_or(n, |(_, to)| *to)
    }

    fn rename(&self, ns: &[Name]) -> Vec<Name> {
        ns.iter().map(|&n| self.lookup(n)).collect()
    }

    fn level(&mut self, k: usize) -> Name {
        while self.levels.len() <= k {
            let c = Name::canonical(self.next);
            self.next += 1;
            if !self.taken.contains(c) {
                self.levels.push(c);
            }
        }
        self.levels[k]
    }

    /// Runs `f` with `binders` bound to the next levels.
    fn bind(&mut self, binders: &[Name], f: impl FnOnce(&mut Self, Vec<Name>) -> P) -> P {
        let depth = self.env.len();
        let named = binders
            .iter()
            .map(|&b| {
                let c = self.level(self.env.len());
                self.env.push((b, c));
                c
            })
            .collect();
        let out = f(self, named);
        self.env.truncate(depth);
        out
    }

    /// Normalises a pruned term; with `laws` off (inside a `rec` body)
    /// it only renames binders.
    fn go(&mut self, p: &P, laws: bool) -> P {
        match &**p {
            Process::Nil => p.clone(),
            Process::Act(Prefix::Tau, cont) => Process::Act(Prefix::Tau, self.go(cont, laws)).rc(),
            Process::Act(Prefix::Output(a, ys), cont) => Process::Act(
                Prefix::Output(self.lookup(*a), self.rename(ys)),
                self.go(cont, laws),
            )
            .rc(),
            Process::Act(Prefix::Input(a, xs), cont) => {
                let subject = self.lookup(*a);
                self.bind(xs, |me, xs| {
                    Process::Act(Prefix::Input(subject, xs), me.go(cont, laws)).rc()
                })
            }
            Process::Sum(..) | Process::Par(..) if laws => self.operands(p),
            Process::Sum(l, r) => Process::Sum(self.go(l, false), self.go(r, false)).rc(),
            Process::Par(l, r) => Process::Par(self.go(l, false), self.go(r, false)).rc(),
            Process::New(x, cont) => {
                self.bind(&[*x], |me, x| Process::New(x[0], me.go(cont, laws)).rc())
            }
            Process::Match(x, y, l, r) => Process::Match(
                self.lookup(*x),
                self.lookup(*y),
                self.go(l, laws),
                self.go(r, laws),
            )
            .rc(),
            Process::Call(id, args) => Process::Call(*id, self.rename(args)).rc(),
            Process::Var(id, args) => Process::Var(*id, self.rename(args)).rc(),
            Process::Rec(def, args) => {
                let args = self.rename(args);
                self.bind(&def.params, |me, params| {
                    let body = me.go(&def.body, false);
                    Process::Rec(
                        RecDef {
                            ident: def.ident,
                            params,
                            body,
                        },
                        args,
                    )
                    .rc()
                })
            }
        }
    }

    /// A `+` or `‖` node: its flattened operands, each normalised,
    /// sorted, deduplicated for `+` only, and nested to the right.
    fn operands(&mut self, p: &P) -> P {
        let sum = matches!(**p, Process::Sum(..));
        let mut ops = Vec::new();
        self.flatten(p, sum, &mut ops);
        ops.sort_by(order);
        if sum {
            ops.dedup();
        }
        let last = ops.pop().expect("a `+` or `‖` node has operands");
        ops.into_iter().rev().fold(last, |rest, op| {
            if sum {
                Process::Sum(op, rest).rc()
            } else {
                Process::Par(op, rest).rc()
            }
        })
    }

    fn flatten(&mut self, p: &P, sum: bool, ops: &mut Vec<P>) {
        match (&**p, sum) {
            (Process::Sum(l, r), true) | (Process::Par(l, r), false) => {
                self.flatten(l, sum, ops);
                self.flatten(r, sum, ops);
            }
            _ => ops.push(self.go(p, true)),
        }
    }
}

/// The rank of a node kind in [`order`].
fn kind(p: &Process) -> u8 {
    match p {
        Process::Nil => 0,
        Process::Act(Prefix::Tau, _) => 1,
        Process::Act(Prefix::Input(..), _) => 2,
        Process::Act(Prefix::Output(..), _) => 3,
        Process::Sum(..) => 4,
        Process::Par(..) => 5,
        Process::New(..) => 6,
        Process::Match(..) => 7,
        Process::Call(..) => 8,
        Process::Var(..) => 9,
        Process::Rec(..) => 10,
    }
}

fn spellings(a: &[Name], b: &[Name]) -> Ordering {
    a.iter()
        .map(|n| n.spelling())
        .cmp(b.iter().map(|n| n.spelling()))
}

/// The operand order of [`snf`]: node kind first, then name and
/// identifier spellings, then children, left to right. Two terms
/// compare equal only when they are syntactically equal, and the order
/// is the same in every process. Chains of prefixes and restrictions
/// are walked in a loop, so a tall chain costs no stack.
fn order(mut p: &P, mut q: &P) -> Ordering {
    loop {
        if Arc::ptr_eq(p, q) {
            return Ordering::Equal;
        }
        let by_kind = kind(p).cmp(&kind(q));
        if by_kind.is_ne() {
            return by_kind;
        }
        let (head, next) = match (&**p, &**q) {
            (Process::Act(a, c), Process::Act(b, d)) => {
                let head = match (a, b) {
                    (Prefix::Input(x, xs), Prefix::Input(y, ys))
                    | (Prefix::Output(x, xs), Prefix::Output(y, ys)) => {
                        spellings(&[*x], &[*y]).then_with(|| spellings(xs, ys))
                    }
                    _ => Ordering::Equal,
                };
                (head, (c, d))
            }
            (Process::New(x, c), Process::New(y, d)) => (spellings(&[*x], &[*y]), (c, d)),
            (Process::Sum(a, b), Process::Sum(c, d)) | (Process::Par(a, b), Process::Par(c, d)) => {
                (order(a, c), (b, d))
            }
            (Process::Match(x1, y1, l1, r1), Process::Match(x2, y2, l2, r2)) => (
                spellings(&[*x1, *y1], &[*x2, *y2]).then_with(|| order(l1, l2)),
                (r1, r2),
            ),
            (Process::Call(i, a), Process::Call(j, b))
            | (Process::Var(i, a), Process::Var(j, b)) => {
                return i.spelling().cmp(j.spelling()).then_with(|| spellings(a, b));
            }
            (Process::Rec(d1, a1), Process::Rec(d2, a2)) => (
                d1.ident
                    .spelling()
                    .cmp(d2.ident.spelling())
                    .then_with(|| spellings(&d1.params, &d2.params))
                    .then_with(|| spellings(a1, a2)),
                (&d1.body, &d2.body),
            ),
            _ => return Ordering::Equal,
        };
        if head.is_ne() {
            return head;
        }
        (p, q) = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::parser::parse_process;

    fn parse(s: &str) -> P {
        parse_process(s).expect("test term parses")
    }

    fn same(p: &str, q: &str) -> bool {
        snf(&parse(p)) == snf(&parse(q))
    }

    #[test]
    fn commutes_and_associates_sums_and_parallels() {
        assert!(same("a<> | (b<> | c<>)", "(c<> | a<>) | b<>"));
        assert!(same("a<> + (b<> + c<>)", "(c<> + a<>) + b<>"));
        assert!(same("tau.(a<> | b<>)", "tau.(b<> | a<>)"));
        assert!(!same("a<> | b<>", "a<> + b<>"));
    }

    #[test]
    fn drops_duplicate_summands_but_not_duplicate_components() {
        assert!(same("tau.tau.(a<> + a<>)", "tau.tau.a<>"));
        assert!(same("a<> + b<> + a<>", "b<> + a<>"));
        assert!(!same("a<> | a<>", "a<>"));
        assert!(!same("(a<> | a<>) + a<>", "a<>"));
        assert!(same("(a<> | a<>) + (a<> | a<>)", "a<> | a<>"));
    }

    #[test]
    fn drops_nil_units_and_vacuous_restrictions() {
        assert!(same("a<> | 0 | (0 + b<>)", "b<> | a<>"));
        assert!(same("new x. a<>", "a<>"));
        assert!(same("c(y).new x. (a<> | 0)", "c(z).a<>"));
        assert!(!same("new x. a<x>", "a<x>"));
    }

    #[test]
    fn names_binders_by_level_whatever_the_operand_order() {
        // The witness pair: pre-order naming would give the two inputs
        // different binders on either side.
        assert!(same("a(x).x<> | b(y).y<>", "b(y).y<> | a(x).x<>"));
        assert!(same("a(x).x<> + b(y).y<>", "b(y).y<> + a(x).x<>"));
        assert!(same(
            "new n. (a(x).x<n> | b(y,z).z<y>)",
            "new m. (b(u,v).v<u> | a(w).w<m>)"
        ));
        // α-equal summands merge.
        assert!(same("a(x).x<> + a(y).y<>", "a(z).z<>"));
        // Which binder a name refers to still matters.
        assert!(!same("a(x).a(y).x<>", "a(x).a(y).y<>"));
        assert!(!same("a(x).b<x>", "a(x).b<a>"));
    }

    #[test]
    fn free_canonical_names_are_not_captured() {
        // νz (z̄ ‖ #0̄): the free `#0` must stay apart from the binder.
        let z = Name::new("z");
        let h0 = Name::canonical(0);
        let p = new(z, par(out_(z, []), out_(h0, [])));
        let q = new(z, par(out_(z, []), out_(z, [])));
        assert_ne!(snf(&p), snf(&q));
        assert_eq!(snf(&p).free_names(), p.free_names());
    }

    #[test]
    fn calls_and_rec_terms_are_atoms() {
        assert!(same("F<a,b> | G<c>", "G<c> | F<a,b>"));
        assert!(!same("F<a,b>", "F<b,a>"));
        // A rec body is renamed, not rewritten.
        assert!(same(
            "rec X(x){ x<>.X<x> }<a> | b<>",
            "b<> | rec X(y){ y<>.X<y> }<a>"
        ));
        assert!(!same(
            "rec X(x){ x<>.X<x> + b<>.X<x> }<a>",
            "rec X(x){ b<>.X<x> + x<>.X<x> }<a>"
        ));
    }

    #[test]
    fn is_idempotent_and_keeps_free_names() {
        for s in [
            "a(x).(x<> | b<> | x<>) + a(y).(b<> | y<> | y<>) + 0",
            "new n. (c<n> | new m. c<m>.n<>) | (tau.0 + tau.0)",
            "[a=b]{a<> + a<>}{new x. b<x> | 0}",
        ] {
            let p = parse(s);
            let n = snf(&p);
            assert_eq!(snf(&n), n, "{s}");
            assert_eq!(n.free_names(), prune(&p).free_names(), "{s}");
        }
    }

    #[test]
    fn orders_by_spelling_whichever_name_is_interned_first() {
        // Each pair is interned in the opposite order to its spellings
        // in one of the two cases, so an order by interner id would
        // print one of them backwards.
        let late = Name::new("snf_order_zz");
        let early = Name::new("snf_order_aa");
        let first = Name::new("snf_order_ab");
        let second = Name::new("snf_order_zy");
        for (x, y, want) in [
            (late, early, "snf_order_aa<> | snf_order_zz<>"),
            (first, second, "snf_order_ab<> | snf_order_zy<>"),
        ] {
            assert_eq!(snf(&par(out_(x, []), out_(y, []))).to_string(), want);
            assert_eq!(snf(&par(out_(y, []), out_(x, []))).to_string(), want);
        }
    }
}
