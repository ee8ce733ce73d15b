//! The normal-form decision procedure for strong congruence `~c` over
//! finite processes — the executable content of Theorems 6 and 7.
//!
//! Following the structure of the completeness proof:
//!
//! 1. `~c` quantifies over all substitutions; by Lemmas 17–18 it
//!    suffices to consider the collapsing substitution of each partition
//!    of the free names (the *complete conditions* of the head normal
//!    form).
//! 2. Under each collapse, both sides are compared head-by-head
//!    ([`crate::heads`](mod@crate::heads) provides the heads via the Table 7/8 rewrites):
//!    * `τ` and free outputs match on equal labels, continuations
//!      compared recursively;
//!    * bound outputs match up to renaming of the extruded names
//!      (which are kept distinct from every free name, clause 4 of the
//!      normal-form definition);
//!    * inputs are compared **pointwise over instantiations** of the
//!      received names (free names plus one fresh representative) — the
//!      saturation performed by axiom (SP);
//!    * below the first step, an input may also be matched by the other
//!      side *discarding* — the saturation performed by the noisy axiom
//!      (H). At the outermost step matching is strict, which is exactly
//!      the gap between `~` and `~₊` that (H) fills.
//!
//! Setting [`Prover::use_noisy`] to `false` removes the (H)-saturation
//! and makes the procedure incomplete — demonstrating the independence
//! of the axiom (experiment E17).

use crate::condition::Partition;
use crate::heads::{heads, Head};
use bpi_core::canon::canon;
use bpi_core::name::{Name, NameSet};
use bpi_core::subst::Subst;
use bpi_core::syntax::P;
use bpi_semantics::{Budget, EngineError};
use std::collections::HashMap;

/// Normal-form prover for `~c` on finite processes.
pub struct Prover {
    /// Enable the noisy-axiom (H) saturation (default). Without it the
    /// procedure is sound but incomplete.
    pub use_noisy: bool,
    /// Resource envelope for the decision procedure: each `decide` call
    /// counts one unit against the state budget, and the deadline/
    /// cancellation flag are polled at the same point.
    pub budget: Budget,
    memo: HashMap<(P, P, bool), bool>,
    /// When tracing, the justification log (and memoisation is disabled
    /// so every step is recorded).
    trace: Option<Vec<String>>,
    depth: usize,
    steps: usize,
}

/// One entry of a justification trace (see [`Prover::congruent_traced`]).
pub type TraceLine = String;

impl Default for Prover {
    fn default() -> Prover {
        Prover::new()
    }
}

impl Prover {
    pub fn new() -> Prover {
        Prover {
            use_noisy: true,
            budget: Budget::unlimited(),
            memo: HashMap::new(),
            trace: None,
            depth: 0,
            steps: 0,
        }
    }

    pub fn without_noisy() -> Prover {
        Prover {
            use_noisy: false,
            ..Prover::new()
        }
    }

    /// Replaces the prover's resource envelope.
    pub fn with_budget(mut self, budget: Budget) -> Prover {
        self.budget = budget;
        self
    }

    fn log(&mut self, msg: impl FnOnce() -> String) {
        if let Some(t) = &mut self.trace {
            let indent = "  ".repeat(self.depth.min(12));
            t.push(format!("{indent}{}", msg()));
        }
    }

    /// Like [`Prover::congruent`], but records which axiom families
    /// justified each matching step — the skeleton of an `A`-derivation
    /// per Theorem 7's proof: `(C*)` complete-condition case split,
    /// `(S*)` summand matching, `(SP)` per-value input saturation,
    /// `(H)` noisy discard-matching, α for bound-output representatives.
    /// Memoisation is disabled while tracing so the log is complete.
    pub fn congruent_traced(&mut self, p: &P, q: &P) -> (bool, Vec<TraceLine>) {
        self.trace = Some(Vec::new());
        self.memo.clear();
        let verdict = self.congruent(p, q);
        let log = self.trace.take().unwrap_or_default();
        (verdict, log)
    }

    /// Decides `p ~c q` for finite `p`, `q` (Theorems 6 + 7: the
    /// axioms prove exactly the congruent pairs; this procedure is the
    /// normal-form comparison at the heart of that proof).
    ///
    /// ```
    /// use bpi_core::parse_process;
    /// use bpi_axioms::Prover;
    /// // The noisy axiom (H): a deaf process may be given an ear.
    /// let lhs = parse_process("a<>.b<>").unwrap();
    /// let rhs = parse_process("a<>.(b<> + c(x).b<>)").unwrap();
    /// assert!(Prover::new().congruent(&lhs, &rhs));
    /// assert!(!Prover::without_noisy().congruent(&lhs, &rhs));
    /// ```
    pub fn congruent(&mut self, p: &P, q: &P) -> bool {
        self.try_congruent(p, q).unwrap_or(false)
    }

    /// [`Prover::congruent`] with typed resource exhaustion: `Err` when
    /// the decision procedure exceeds its [`Budget`] (each recursive
    /// `decide` step costs one unit) before reaching a verdict.
    pub fn try_congruent(&mut self, p: &P, q: &P) -> Result<bool, EngineError> {
        let _span = bpi_obs::span("axioms.prover", "try_congruent");
        let r = self.try_congruent_inner(p, q);
        // The verdict is a pure conjunction over the complete conditions:
        // runs and verdict counters are deterministic. The step count
        // depends on the prover's memo history, so it stays advisory.
        if bpi_obs::metrics_enabled() {
            bpi_obs::counter("axioms.prover.runs", bpi_obs::Det::Deterministic).inc();
            match &r {
                Ok(true) => {
                    bpi_obs::counter("axioms.prover.proved", bpi_obs::Det::Deterministic).inc()
                }
                Ok(false) => {
                    bpi_obs::counter("axioms.prover.refuted", bpi_obs::Det::Deterministic).inc()
                }
                Err(_) => {
                    bpi_obs::counter("axioms.prover.exhausted", bpi_obs::Det::Deterministic).inc()
                }
            }
            bpi_obs::counter("axioms.prover.obligations", bpi_obs::Det::Advisory)
                .add(self.steps as u64);
        }
        bpi_obs::emit("axioms.prover", "verdict", || {
            vec![
                (
                    "verdict",
                    bpi_obs::Value::from(match &r {
                        Ok(true) => "proved",
                        Ok(false) => "refuted",
                        Err(_) => "exhausted",
                    }),
                ),
                ("steps", bpi_obs::Value::from(self.steps)),
            ]
        });
        r
    }

    fn try_congruent_inner(&mut self, p: &P, q: &P) -> Result<bool, EngineError> {
        assert!(
            p.is_finite() && q.is_finite(),
            "the Section 5 axiomatisation covers finite processes only"
        );
        self.steps = 0;
        let fns = p.free_names().union(&q.free_names());
        for part in Partition::enumerate(&fns) {
            let s = part.collapse();
            let ps = s.apply_process(p);
            let qs = s.apply_process(q);
            self.log(|| format!("(C3/C5) complete condition {}", part.condition()));
            // Outermost step strict (the `~₊` layer of Definition 11).
            if !self.decide(&ps, &qs, true)? {
                self.log(|| "  ✗ refuted under this condition".to_string());
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Decides the bisimulation layer: `p ~ q` for concrete names
    /// (conditions already collapsed). `strict` disables discard-matching
    /// of inputs for this step only.
    fn decide(&mut self, p: &P, q: &P, strict: bool) -> Result<bool, EngineError> {
        self.steps += 1;
        self.budget.check(self.steps)?;
        let key = (canon(p), canon(q), strict);
        if self.trace.is_none() {
            if let Some(&r) = self.memo.get(&key) {
                return Ok(r);
            }
        }
        // Optimistically assume equal to cut trivial syntactic loops —
        // finite processes cannot actually recurse, so any entry is
        // resolved before reuse; insert after computing instead.
        let hp = heads(p);
        let hq = heads(q);
        self.depth += 1;
        let r = self.match_dir(&hp, &hq, q, strict)? && self.match_dir(&hq, &hp, p, strict)?;
        self.depth -= 1;
        self.memo.insert(key, r);
        Ok(r)
    }

    /// Every head of `hp` is matched by some head of `hq` (whose whole
    /// process is `q_whole`, needed for discard-matching).
    fn match_dir(
        &mut self,
        hp: &[(Head, P)],
        hq: &[(Head, P)],
        q_whole: &P,
        strict: bool,
    ) -> Result<bool, EngineError> {
        for (h, cont) in hp {
            let ok = match h {
                Head::Tau => {
                    let mut m = false;
                    for (h2, c2) in hq {
                        if matches!(h2, Head::Tau) && self.decide(cont, c2, false)? {
                            m = true;
                            break;
                        }
                    }
                    if m {
                        self.log(|| "(S*) τ summand matched".to_string());
                    }
                    m
                }
                Head::Output(a, ys) => {
                    let mut m = false;
                    for (h2, c2) in hq {
                        if matches!(h2, Head::Output(b, zs) if b == a && zs == ys)
                            && self.decide(cont, c2, false)?
                        {
                            m = true;
                            break;
                        }
                    }
                    if m {
                        self.log(|| format!("(S*) output summand on {a} matched exactly"));
                    }
                    m
                }
                Head::BoundOutput {
                    chan,
                    objects,
                    bound,
                } => {
                    let (pat1, cont1) = bound_pattern(*chan, objects, bound, cont);
                    let mut m = false;
                    for (h2, c2) in hq {
                        if let Head::BoundOutput {
                            chan: chan2,
                            objects: objects2,
                            bound: bound2,
                        } = h2
                        {
                            let (pat2, cont2) = bound_pattern(*chan2, objects2, bound2, c2);
                            if pat1 == pat2 && self.decide(&cont1, &cont2, false)? {
                                m = true;
                                break;
                            }
                        }
                    }
                    if m {
                        self.log(|| {
                            format!(
                                "(A) bound output on {chan} matched up to α of the extruded names"
                            )
                        });
                    }
                    m
                }
                Head::Input(a, xs) => {
                    let q_listens = hq
                        .iter()
                        .any(|(h2, _)| h2.is_input() && h2.subject() == Some(*a));
                    // Candidate values: all free names in play plus one
                    // fresh representative per binder position.
                    let mut fns = cont.free_names().union(&q_whole.free_names());
                    fns.insert(*a);
                    let values = value_pool(&fns);
                    let tuples = tuple_space(&values, xs.len());
                    let mut all_ok = true;
                    for tuple in tuples {
                        let inst = Subst::parallel(xs, &tuple).apply_process(cont);
                        // (SP): per-value choice among q's receipts.
                        let mut real = false;
                        for (h2, c2) in hq {
                            if let Head::Input(b, zs) = h2 {
                                if *b == *a && zs.len() == xs.len() {
                                    let inst2 = Subst::parallel(zs, &tuple).apply_process(c2);
                                    if self.decide(&inst, &inst2, false)? {
                                        real = true;
                                        break;
                                    }
                                }
                            }
                        }
                        if real {
                            self.log(|| {
                                format!(
                                    "(SP) input on {a} matched for values ⟨{}⟩",
                                    tuple
                                        .iter()
                                        .map(|n| n.to_string())
                                        .collect::<Vec<_>>()
                                        .join(",")
                                )
                            });
                            continue;
                        }
                        // (H): if q is deaf on a, receiving leaves q
                        // untouched.
                        let noisy = self.use_noisy
                            && !strict
                            && !q_listens
                            && self.decide(&inst, q_whole, false)?;
                        if noisy {
                            self.log(|| {
                                format!("(H) input on {a} matched by the deaf side's discard")
                            });
                        } else {
                            all_ok = false;
                            break;
                        }
                    }
                    all_ok
                }
            };
            if !ok {
                self.log(|| format!("✗ unmatched summand: {h:?}"));
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// Renames the bound names of a bound output to positional markers so
/// that two bound outputs are comparable; returns the normalised
/// `(chan, objects)` pattern and the renamed continuation.
fn bound_pattern(chan: Name, objects: &[Name], bound: &[Name], cont: &P) -> ((Name, Vec<Name>), P) {
    let mut s = Subst::identity();
    for (i, &b) in bound.iter().enumerate() {
        s.bind(b, Name::intern_raw(&format!("#B{i}")));
    }
    let objs: Vec<Name> = objects.iter().map(|&o| s.apply(o)).collect();
    ((chan, objs), s.apply_process(cont))
}

/// Free names plus one deterministic fresh representative.
fn value_pool(fns: &NameSet) -> Vec<Name> {
    let mut out = fns.to_vec();
    let mut i = 0usize;
    loop {
        let w = Name::intern_raw(&format!("#v{i}"));
        if !fns.contains(w) {
            out.push(w);
            return out;
        }
        i += 1;
    }
}

fn tuple_space(values: &[Name], arity: usize) -> Vec<Vec<Name>> {
    bpi_semantics::tuples(values, arity)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpi_core::builder::*;

    fn prove(p: &P, q: &P) -> bool {
        Prover::new().congruent(p, q)
    }

    #[test]
    fn structural_laws_prove() {
        let [a, b, x] = names(["a", "b", "x"]);
        let p = sum(out(a, [b], nil()), inp_(a, [x]));
        // S1: p + nil = p
        assert!(prove(&sum(p.clone(), nil()), &p));
        // S2: p + p = p
        assert!(prove(&sum(p.clone(), p.clone()), &p));
        // S3: commutativity
        let q = tau_();
        assert!(prove(
            &sum(p.clone(), q.clone()),
            &sum(q.clone(), p.clone())
        ));
        // S4: associativity
        let r = out_(b, []);
        assert!(prove(
            &sum(sum(p.clone(), q.clone()), r.clone()),
            &sum(p.clone(), sum(q.clone(), r.clone()))
        ));
        // P1: p ‖ nil = p
        assert!(prove(&par(p.clone(), nil()), &p));
    }

    #[test]
    fn outputs_with_different_objects_differ() {
        let [a, b, c] = names(["a", "b", "c"]);
        assert!(!prove(&out_(a, [b]), &out_(a, [c])));
        // …but they coincide under the identification b = c, so a
        // *matched* pair is congruent:
        let p = mat(b, c, out_(a, [b]), nil());
        let q = mat(b, c, out_(a, [c]), nil());
        assert!(prove(&p, &q), "(CP2): (b=c)āb = (b=c)āc");
    }

    #[test]
    fn match_witness_not_congruent() {
        // (x=y)c̄ vs nil: bisimilar literally, separated by ~c.
        let [x, y, c] = names(["x", "y", "c"]);
        let p = mat_(x, y, out_(c, []));
        assert!(!prove(&p, &nil()));
    }

    #[test]
    fn inputs_not_congruent_to_nil() {
        // a(x) ≁c nil at the strict first step.
        let [a, x] = names(["a", "x"]);
        assert!(!prove(&inp_(a, [x]), &nil()));
    }

    #[test]
    fn noisy_axiom_under_prefix() {
        // (H): ā.b̄ ~c ā.(b̄ + a(x).b̄) — provable with noisy matching,
        // not without.
        let [a, b, x] = names(["a", "b", "x"]);
        let lhs = out(a, [], out_(b, []));
        let rhs = out(a, [], sum(out_(b, []), inp(a, [x], out_(b, []))));
        assert!(Prover::new().congruent(&lhs, &rhs), "(H) instance");
        assert!(
            !Prover::without_noisy().congruent(&lhs, &rhs),
            "without (H) the instance is unprovable — independence of (H)"
        );
    }

    #[test]
    fn sp_saturation_instance() {
        // (SP): a(x).p + a(x).q = a(x).p + a(x).q + a(x).((x=y)p,q).
        let [a, x, y] = names(["a", "x", "y"]);
        let p = out_(x, []);
        let q = out_(y, [x]);
        let lhs = sum(inp(a, [x], p.clone()), inp(a, [x], q.clone()));
        let rhs = sum(lhs.clone(), inp(a, [x], mat(x, y, p.clone(), q.clone())));
        assert!(prove(&lhs, &rhs));
    }

    #[test]
    fn restriction_laws_prove() {
        let [a, b, x, y] = names(["a", "b", "x", "y"]);
        // R1: νxνy p = νyνx p
        let p = out(a, [], out_(b, []));
        assert!(prove(
            &new(x, new(y, p.clone())),
            &new(y, new(x, p.clone()))
        ));
        // R2: νx(p+q) = νxp + νxq
        let q = tau(out_(a, []));
        assert!(prove(
            &new(x, sum(p.clone(), q.clone())),
            &sum(new(x, p.clone()), new(x, q.clone()))
        ));
        // RP2: νx x̄y.p = τ.νx p
        assert!(prove(
            &new(x, out(x, [y], p.clone())),
            &tau(new(x, p.clone()))
        ));
        // RP3: νx x(y).p = nil
        assert!(prove(&new(x, inp(x, [y], p.clone())), &nil()));
        // RM1: νx (x=y)p = nil for x ≠ y
        assert!(prove(&new(x, mat_(x, y, p.clone())), &nil()));
        // R3: x ∉ n(α): νx ā.p = ā.νx p
        assert!(prove(
            &new(x, out(a, [], p.clone())),
            &out(a, [], new(x, p.clone()))
        ));
    }

    #[test]
    fn broadcast_vs_interleaving() {
        // ā ‖ a().c̄ expands to ā.(nil‖c̄) + a().(ā‖c̄): the broadcast
        // feeds the listener atomically (first summand) and the system
        // also remains receptive to an *external* broadcast on a (second
        // summand — the non-blocking essence of broadcast).
        let [a, c] = names(["a", "c"]);
        let sys = par(out_(a, []), inp(a, [], out_(c, [])));
        let expanded = sum(
            out(a, [], par(nil(), out_(c, []))),
            inp(a, [], par(out_(a, []), out_(c, []))),
        );
        assert!(prove(&sys, &expanded));
        // It is NOT congruent to the handshake reading ā.c̄ (which is
        // deaf on a).
        assert!(!prove(&sys, &out(a, [], out_(c, []))));
        // But restricting a closes the system, and then they do agree up
        // to the silent step: νa(ā ‖ a().c̄) ~c τ.νa(nil ‖ c̄) ~c τ.c̄.
        let closed = new(a, sys);
        assert!(prove(&closed, &tau(out_(c, []))));
    }

    #[test]
    fn budget_exhaustion_is_typed_not_a_panic() {
        // The broadcast-vs-expansion pair takes many decide steps; a
        // 2-step budget must surface as Err, and a generous one as Ok.
        let [a, c] = names(["a", "c"]);
        let sys = par(out_(a, []), inp(a, [], out_(c, [])));
        let expanded = sum(
            out(a, [], par(nil(), out_(c, []))),
            inp(a, [], par(out_(a, []), out_(c, []))),
        );
        let mut tight = Prover::new().with_budget(bpi_semantics::Budget::states(2));
        assert_eq!(
            tight.try_congruent(&sys, &expanded),
            Err(EngineError::StateBudgetExceeded { limit: 2 })
        );
        // The bool API degrades to false rather than panicking.
        assert!(!tight.congruent(&sys, &expanded));
        let mut roomy = Prover::new().with_budget(bpi_semantics::Budget::states(100_000));
        assert_eq!(roomy.try_congruent(&sys, &expanded), Ok(true));
        // A pre-raised cancellation flag aborts immediately.
        let flag = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        let mut cancelled = Prover::new().with_budget(Budget::unlimited().with_cancel_flag(flag));
        assert_eq!(
            cancelled.try_congruent(&sys, &expanded),
            Err(EngineError::Cancelled)
        );
    }

    #[test]
    fn bound_output_congruence() {
        // νx āx.x̄ ~c νy āy.ȳ (alpha) and ≁c νy āy (continuations differ).
        let [a, x, y] = names(["a", "x", "y"]);
        let p = new(x, out(a, [x], out_(x, [])));
        let q = new(y, out(a, [y], out_(y, [])));
        assert!(prove(&p, &q));
        let r = new(y, out_(a, [y]));
        assert!(!prove(&p, &r));
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use bpi_core::builder::*;

    #[test]
    fn trace_names_the_axiom_families() {
        let [a, b, c, x] = names(["a", "b", "c", "x"]);
        // A noisy instance: the trace must mention (H) and the complete
        // conditions.
        let lhs = out(a, [], out_(b, []));
        let rhs = out(a, [], sum(out_(b, []), inp(c, [x], out_(b, []))));
        let (ok, log) = Prover::new().congruent_traced(&lhs, &rhs);
        assert!(ok);
        let text = log.join("\n");
        assert!(text.contains("(C3/C5)"), "missing condition layer:\n{text}");
        assert!(text.contains("(H)"), "missing noisy step:\n{text}");
        assert!(
            text.contains("output summand on a"),
            "missing output step:\n{text}"
        );
    }

    #[test]
    fn trace_reports_refutation() {
        let [a, b, c] = names(["a", "b", "c"]);
        let (ok, log) = Prover::new().congruent_traced(&out_(a, [b]), &out_(a, [c]));
        assert!(!ok);
        let text = log.join("\n");
        assert!(text.contains("✗"), "no refutation marker:\n{text}");
    }

    #[test]
    fn tracing_does_not_change_verdicts() {
        use crate::rewrite::{Blocks, ALL_AXIOMS};
        let [a, b, c] = names(["a", "b", "c"]);
        let w = Name::intern_raw("tw");
        let blocks = Blocks {
            ps: vec![
                out(a, [b], nil()),
                inp(b, [w], out_(w, [])),
                tau(out_(c, [])),
            ],
            ns: vec![a, b, c],
        };
        for ax in ALL_AXIOMS {
            if let Some((lhs, rhs)) = ax.instantiate(&blocks) {
                let plain = Prover::new().congruent(&lhs, &rhs);
                let (traced, _) = Prover::new().congruent_traced(&lhs, &rhs);
                assert_eq!(plain, traced, "{ax:?}");
            }
        }
    }
}
