//! The symbolic broadcast expansion law (Table 8).
//!
//! For `p = Σᵢ φᵢ αᵢ.pᵢ` and `q = Σⱼ ψⱼ βⱼ.qⱼ` the law rewrites `p ‖ q`
//! into a sum of nine summand families (joint reception, output-received,
//! output-discarded, input-passed, and τ-interleavings), each guarded by
//! a **condition** over name equalities, so that the equation is valid
//! for the *congruence* `~c` — i.e. it remains true under every later
//! identification of free names. This is where it differs from the
//! condition-free head expansion of [`crate::heads`](mod@crate::heads),
//! which is only sound for bisimilarity at fixed names.
//!
//! One refinement over the literal table: the "other side discards"
//! condition is expressed as `⋀ⱼ ¬(ψⱼ ∧ (x = yⱼ))` over the *guarded*
//! input summands of the partner — the subject set `T`/`S` of the paper
//! specialised per summand — which is exactly the discard relation of
//! Table 2 read off the summand list.

use crate::condition::Condition;
use bpi_core::builder::{inp, new, out, par, sum_of, tau};
use bpi_core::name::{fresh_names, Name};
use bpi_core::subst::Subst;
use bpi_core::syntax::{Prefix, Process, P};

/// A symbolic summand `φ α.p` of a head-normal-form-shaped term.
#[derive(Clone, Debug)]
pub struct SymSummand {
    pub cond: Condition,
    pub prefix: SymPrefix,
    pub cont: P,
}

/// Prefixes of symbolic summands — like [`crate::heads::Head`] but kept
/// separate so the symbolic layer is self-contained.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SymPrefix {
    Tau,
    Input(Name, Vec<Name>),
    Output(Name, Vec<Name>),
    BoundOutput {
        chan: Name,
        objects: Vec<Name>,
        bound: Vec<Name>,
    },
}

/// Extracts the symbolic summands of a term already in guarded-sum shape:
/// sums of (possibly match-guarded, possibly ν-extruding) prefixed terms.
/// Returns `None` if the term contains an unexpanded `‖`, a recursion, or
/// a restriction that is not a bound-output head.
pub fn symbolic_summands(p: &P) -> Option<Vec<SymSummand>> {
    fn go(p: &P, cond: &Condition, out: &mut Vec<SymSummand>) -> Option<()> {
        match &**p {
            Process::Nil => Some(()),
            Process::Sum(l, r) => {
                go(l, cond, out)?;
                go(r, cond, out)
            }
            Process::Match(x, y, l, r) => {
                go(l, &cond.clone().and(Condition::Eq(*x, *y)), out)?;
                go(r, &cond.clone().and(Condition::neq(*x, *y)), out)
            }
            Process::Act(pre, cont) => {
                let prefix = match pre {
                    Prefix::Tau => SymPrefix::Tau,
                    Prefix::Input(a, xs) => SymPrefix::Input(*a, xs.clone()),
                    Prefix::Output(a, ys) => SymPrefix::Output(*a, ys.clone()),
                };
                out.push(SymSummand {
                    cond: cond.clone(),
                    prefix,
                    cont: cont.clone(),
                });
                Some(())
            }
            Process::New(x, inner) => {
                // Accept only a bound-output head νx̃ āỹ.p with the
                // restricted names among the objects.
                let mut bound = vec![*x];
                let mut cur = inner;
                while let Process::New(y, deeper) = &**cur {
                    bound.push(*y);
                    cur = deeper;
                }
                match &**cur {
                    Process::Act(Prefix::Output(a, ys), cont)
                        if !bound.contains(a) && bound.iter().all(|b| ys.contains(b)) =>
                    {
                        out.push(SymSummand {
                            cond: cond.clone(),
                            prefix: SymPrefix::BoundOutput {
                                chan: *a,
                                objects: ys.clone(),
                                bound,
                            },
                            cont: cont.clone(),
                        });
                        Some(())
                    }
                    _ => None,
                }
            }
            _ => None,
        }
    }
    let mut out = Vec::new();
    go(p, &Condition::True, &mut out)?;
    Some(out)
}

/// The condition "`Σⱼ ψⱼβⱼ.qⱼ` discards channel `x`":
/// `⋀_{j : βⱼ input with subject yⱼ} ¬(ψⱼ ∧ (x = yⱼ))`.
fn discards_cond(x: Name, partner: &[SymSummand]) -> Condition {
    let mut c = Condition::True;
    for s in partner {
        if let SymPrefix::Input(y, _) = &s.prefix {
            c = c.and(Condition::Not(Box::new(
                s.cond.clone().and(Condition::Eq(x, *y)),
            )));
        }
    }
    c
}

/// Builds the process term for one expansion summand.
fn summand_term(cond: &Condition, prefix: &SymPrefix, cont: P) -> P {
    let inner = match prefix {
        SymPrefix::Tau => tau(cont),
        SymPrefix::Input(a, xs) => inp(*a, xs.clone(), cont),
        SymPrefix::Output(a, ys) => out(*a, ys.clone(), cont),
        SymPrefix::BoundOutput {
            chan,
            objects,
            bound,
        } => bound
            .iter()
            .rev()
            .fold(out(*chan, objects.clone(), cont), |acc, b| new(*b, acc)),
    };
    cond.guard(inner)
}

/// The symbolic expansion of `p ‖ q` (Table 8): a guarded sum congruent
/// (`~c`) to the parallel composition. Returns `None` when either side is
/// not in guarded-sum shape.
pub fn expand_symbolic(p: &P, q: &P) -> Option<P> {
    let ps = symbolic_summands(p)?;
    let qs = symbolic_summands(q)?;
    let mut terms: Vec<P> = Vec::new();

    let mut emit_side =
        |ms: &[SymSummand], os: &[SymSummand], m_whole: &P, o_whole: &P, left: bool| {
            let assemble = |a: P, b: P| if left { par(a, b) } else { par(b, a) };
            for s in ms {
                match &s.prefix {
                    SymPrefix::Tau => {
                        // Eighth/ninth families: τ interleaves past the whole
                        // partner.
                        terms.push(summand_term(
                            &s.cond,
                            &SymPrefix::Tau,
                            assemble(s.cont.clone(), o_whole.clone()),
                        ));
                    }
                    SymPrefix::Input(a, xs) => {
                        let fresh = fresh_names("e", xs.len());
                        let cont_f = Subst::parallel(xs, &fresh).apply_process(&s.cont);
                        // First family: joint reception (emitted from the
                        // left side only, to avoid the symmetric duplicate).
                        if left {
                            for t in os {
                                if let SymPrefix::Input(b, ys) = &t.prefix {
                                    if ys.len() == xs.len() {
                                        let cond = s
                                            .cond
                                            .clone()
                                            .and(t.cond.clone())
                                            .and(Condition::Eq(*a, *b));
                                        let cont2 =
                                            Subst::parallel(ys, &fresh).apply_process(&t.cont);
                                        terms.push(summand_term(
                                            &cond,
                                            &SymPrefix::Input(*a, fresh.clone()),
                                            assemble(cont_f.clone(), cont2),
                                        ));
                                    }
                                }
                            }
                        }
                        // Sixth/seventh families: input passing a discarding
                        // partner.
                        let cond = s.cond.clone().and(discards_cond(*a, os));
                        terms.push(summand_term(
                            &cond,
                            &SymPrefix::Input(*a, fresh.clone()),
                            assemble(cont_f, o_whole.clone()),
                        ));
                    }
                    SymPrefix::Output(a, ys) => {
                        // Second/third families: the partner receives.
                        for t in os {
                            if let SymPrefix::Input(b, xs) = &t.prefix {
                                if xs.len() == ys.len() {
                                    let cond = s
                                        .cond
                                        .clone()
                                        .and(t.cond.clone())
                                        .and(Condition::Eq(*a, *b));
                                    let received = Subst::parallel(xs, ys).apply_process(&t.cont);
                                    terms.push(summand_term(
                                        &cond,
                                        &s.prefix,
                                        assemble(s.cont.clone(), received),
                                    ));
                                }
                            }
                        }
                        // Fourth/fifth families: the partner discards.
                        let cond = s.cond.clone().and(discards_cond(*a, os));
                        terms.push(summand_term(
                            &cond,
                            &s.prefix,
                            assemble(s.cont.clone(), o_whole.clone()),
                        ));
                    }
                    SymPrefix::BoundOutput {
                        chan,
                        objects,
                        bound,
                    } => {
                        // α-rename the extruded names away from the partner.
                        let fresh = fresh_names("e", bound.len());
                        let ren = Subst::parallel(bound, &fresh);
                        let objects2: Vec<Name> = objects.iter().map(|&o| ren.apply(o)).collect();
                        let cont2 = ren.apply_process(&s.cont);
                        let prefix2 = SymPrefix::BoundOutput {
                            chan: *chan,
                            objects: objects2.clone(),
                            bound: fresh,
                        };
                        for t in os {
                            if let SymPrefix::Input(b, xs) = &t.prefix {
                                if xs.len() == objects2.len() {
                                    let cond = s
                                        .cond
                                        .clone()
                                        .and(t.cond.clone())
                                        .and(Condition::Eq(*chan, *b));
                                    let received =
                                        Subst::parallel(xs, &objects2).apply_process(&t.cont);
                                    terms.push(summand_term(
                                        &cond,
                                        &prefix2,
                                        assemble(cont2.clone(), received),
                                    ));
                                }
                            }
                        }
                        let cond = s.cond.clone().and(discards_cond(*chan, os));
                        terms.push(summand_term(
                            &cond,
                            &prefix2,
                            assemble(cont2.clone(), o_whole.clone()),
                        ));
                    }
                }
            }
            let _ = m_whole;
        };

    emit_side(&ps, &qs, p, q, true);
    emit_side(&qs, &ps, q, p, false);
    Some(sum_of(terms))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prover::Prover;
    use bpi_core::builder::*;

    #[test]
    fn summand_extraction() {
        let [a, b, x, y] = names(["a", "b", "x", "y"]);
        let p = sum(mat(x, y, out(a, [b], nil()), inp_(b, [x])), tau(nil()));
        let ss = symbolic_summands(&p).unwrap();
        assert_eq!(ss.len(), 3);
        assert_eq!(ss[0].cond, Condition::Eq(x, y));
        assert!(matches!(ss[2].prefix, SymPrefix::Tau));
        // Parallel composition is not in guarded-sum shape.
        assert!(symbolic_summands(&par(nil(), nil())).is_none());
    }

    #[test]
    fn expansion_is_congruent_simple() {
        let [a, b, w] = names(["a", "b", "w"]);
        // āb ‖ b(w).w̄ — the case where the condition-free expansion is
        // NOT ~c-sound (identifying a and b changes who hears whom); the
        // symbolic law must survive it.
        let p = out_(a, [b]);
        let q = inp(b, [w], out_(w, []));
        let e = expand_symbolic(&p, &q).unwrap();
        assert!(
            Prover::new().congruent(&par(p, q), &e),
            "symbolic expansion broken: {e}"
        );
    }

    #[test]
    fn expansion_is_congruent_with_matches_and_tau() {
        let [a, b, c, w] = names(["a", "b", "c", "w"]);
        let p = sum(mat(a, b, out_(a, [c]), tau(nil())), inp_(c, [w]));
        let q = sum(inp(a, [w], out_(w, [])), out_(b, [c]));
        let e = expand_symbolic(&p, &q).unwrap();
        assert!(
            Prover::new().congruent(&par(p, q), &e),
            "symbolic expansion broken"
        );
    }

    #[test]
    fn expansion_with_bound_output() {
        let [a, t, w] = names(["a", "t", "w"]);
        let p = new(t, out(a, [t], out_(t, [])));
        let q = inp(a, [w], out_(w, [w]));
        let e = expand_symbolic(&p, &q).unwrap();
        assert!(
            Prover::new().congruent(&par(p, q), &e),
            "bound-output expansion broken"
        );
    }
}
