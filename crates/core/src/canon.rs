//! α-canonical forms and α-equivalence (rule (1) of Table 3).
//!
//! [`canon`] renames every bound name of a term to a canonical name
//! `#0, #1, …` assigned in deterministic pre-order traversal. Two terms are
//! α-equivalent iff their canonical forms are syntactically equal, so the
//! canonical form doubles as a hash key for state-space exploration, where
//! rule (1) would otherwise make the state set infinite.

use crate::name::{Name, NameSet};
use crate::syntax::{Prefix, Process, RecDef, P};

/// The renaming state of one canonicalisation. The term store walks its
/// cells with the same state (`crate::store`), so a cached canonical form
/// renames exactly as [`canon`] does.
pub(crate) struct Canonizer {
    /// Scoped bindings, innermost last.
    pub(crate) env: Vec<(Name, Name)>,
    /// Next canonical index to try.
    next: usize,
    /// Canonical names occurring *free* in the whole input term; these
    /// indices must be skipped or a free `#i` would be conflated with a
    /// bound one.
    taken: NameSet,
}

impl Canonizer {
    /// A renaming for a term whose free names are `free`.
    pub(crate) fn new(free: &NameSet) -> Canonizer {
        Canonizer {
            env: Vec::new(),
            next: 0,
            taken: NameSet::from_iter(free.iter().filter(|n| n.is_canonical())),
        }
    }

    pub(crate) fn lookup(&self, n: Name) -> Name {
        self.env
            .iter()
            .rev()
            .find(|(from, _)| *from == n)
            .map(|(_, to)| *to)
            .unwrap_or(n)
    }

    fn fresh_canonical(&mut self) -> Name {
        loop {
            let c = Name::canonical(self.next);
            self.next += 1;
            if !self.taken.contains(c) {
                return c;
            }
        }
    }

    pub(crate) fn with_binders<T>(
        &mut self,
        binders: &[Name],
        f: impl FnOnce(&mut Self, &[Name]) -> T,
    ) -> T {
        let depth = self.env.len();
        let fresh: Vec<Name> = binders
            .iter()
            .map(|&b| {
                let c = self.fresh_canonical();
                self.env.push((b, c));
                c
            })
            .collect();
        let out = f(self, &fresh);
        self.env.truncate(depth);
        out
    }

    fn go(&mut self, p: &P) -> P {
        match &**p {
            Process::Nil => p.clone(),
            Process::Act(pre, cont) => match pre {
                Prefix::Tau => Process::Act(Prefix::Tau, self.go(cont)).rc(),
                Prefix::Output(a, ys) => Process::Act(
                    Prefix::Output(
                        self.lookup(*a),
                        ys.iter().map(|&y| self.lookup(y)).collect(),
                    ),
                    self.go(cont),
                )
                .rc(),
                Prefix::Input(a, binders) => {
                    let subj = self.lookup(*a);
                    self.with_binders(binders, |me, fresh| {
                        Process::Act(Prefix::Input(subj, fresh.to_vec()), me.go(cont)).rc()
                    })
                }
            },
            Process::Sum(l, r) => Process::Sum(self.go(l), self.go(r)).rc(),
            Process::Par(l, r) => Process::Par(self.go(l), self.go(r)).rc(),
            Process::New(x, cont) => self.with_binders(std::slice::from_ref(x), |me, fresh| {
                Process::New(fresh[0], me.go(cont)).rc()
            }),
            Process::Match(x, y, l, r) => {
                Process::Match(self.lookup(*x), self.lookup(*y), self.go(l), self.go(r)).rc()
            }
            Process::Call(id, args) => {
                Process::Call(*id, args.iter().map(|&a| self.lookup(a)).collect()).rc()
            }
            Process::Var(id, args) => {
                Process::Var(*id, args.iter().map(|&a| self.lookup(a)).collect()).rc()
            }
            Process::Rec(def, args) => {
                let args2: Vec<Name> = args.iter().map(|&a| self.lookup(a)).collect();
                self.with_binders(&def.params, |me, fresh| {
                    Process::Rec(
                        RecDef {
                            ident: def.ident,
                            params: fresh.to_vec(),
                            body: me.go(&def.body),
                        },
                        args2,
                    )
                    .rc()
                })
            }
        }
    }
}

/// The α-canonical form of `p`: all binders renamed to `#0, #1, …` in
/// pre-order. `canon(p) == canon(q)` iff `p =α q`.
pub fn canon(p: &P) -> P {
    Canonizer::new(&p.free_names()).go(p)
}

/// α-equivalence of process terms.
pub fn alpha_eq(p: &P, q: &P) -> bool {
    p == q || canon(p) == canon(q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::name::Name;

    #[test]
    fn alpha_equivalent_inputs() {
        let [a, x, y] = names(["a", "x", "y"]);
        // a(x).x̄ =α a(y).ȳ
        let p = inp(a, [x], out_(x, []));
        let q = inp(a, [y], out_(y, []));
        assert!(alpha_eq(&p, &q));
        assert_ne!(p, q);
    }

    #[test]
    fn alpha_distinguishes_free_names() {
        let [a, b, x] = names(["a", "b", "x"]);
        let p = inp(a, [x], out_(x, []));
        let q = inp(b, [x], out_(x, []));
        assert!(!alpha_eq(&p, &q));
    }

    #[test]
    fn restriction_alpha() {
        let [x, y, a] = names(["x", "y", "a"]);
        // νx āx =α νy āy
        let p = new(x, out_(a, [x]));
        let q = new(y, out_(a, [y]));
        assert!(alpha_eq(&p, &q));
        // but νx āx ≠α νx āa
        let r = new(x, out_(a, [a]));
        assert!(!alpha_eq(&p, &r));
    }

    #[test]
    fn shadowing_respected() {
        let [a, x] = names(["a", "x"]);
        // a(x).a(x).x̄  vs  a(x).a(y).ȳ : equivalent (inner binder shadows)
        let y = Name::new("y");
        let p = inp(a, [x], inp(a, [x], out_(x, [])));
        let q = inp(a, [x], inp(a, [y], out_(y, [])));
        assert!(alpha_eq(&p, &q));
        // a(x).a(y).x̄ is different
        let r = inp(a, [x], inp(a, [y], out_(x, [])));
        assert!(!alpha_eq(&p, &r));
    }

    #[test]
    fn canonical_free_names_not_conflated() {
        // A term with a *free* canonical name must not collide with bound
        // canonicals: νz (z̄ ‖ #0̄) vs νz (z̄ ‖ z̄).
        let z = Name::new("z");
        let h0 = Name::canonical(0);
        let p = new(z, par(out_(z, []), out_(h0, [])));
        let q = new(z, par(out_(z, []), out_(z, [])));
        assert!(!alpha_eq(&p, &q));
    }

    #[test]
    fn canon_is_idempotent() {
        let [a, x] = names(["a", "x"]);
        let p = new(x, inp(a, [x], out_(x, [])));
        let c1 = canon(&p);
        let c2 = canon(&c1);
        assert_eq!(c1, c2);
    }

    #[test]
    fn rec_params_are_canonicalised() {
        let [x, y, a] = names(["x", "y", "a"]);
        let xid = crate::syntax::Ident::new("XC");
        let p = rec(xid, [x], out(x, [], var(xid, [x])), [a]);
        let q = rec(xid, [y], out(y, [], var(xid, [y])), [a]);
        assert!(alpha_eq(&p, &q));
    }
}
