//! Static contexts and context-closure equivalences.
//!
//! Barbed and step bisimilarity are too weak on their own (they are not
//! preserved by parallel composition or restriction — Remarks 1–2), so
//! the paper closes them over **static contexts** (Table 5):
//!
//! ```text
//! C ::= [·] | νx C | C ‖ p | p ‖ C
//! ```
//!
//! Deciding the resulting equivalences literally requires quantifying
//! over all contexts; this module provides
//!
//! * randomised static-context sampling (refutation-complete in the
//!   limit: a distinguishing context, if any, is eventually drawn);
//! * the paper's *specific* discriminating constructions: the tester `T`
//!   of Lemma 5 (step ⇒ barbed) and the saturating context `C₁` of
//!   Theorem 3 (barbed congruence ⇒ `~c`), which make those proofs
//!   executable.

use crate::arbitrary::{Gen, GenCfg};
use crate::bisim::{Checker, Variant};
use crate::graph::Opts;
use bpi_core::builder::*;
use bpi_core::name::{Name, NameSet};
use bpi_core::syntax::{Defs, P};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A static context: a stack of restrictions and parallel components
/// around the hole.
#[derive(Clone, Debug)]
pub struct StaticContext {
    /// Layers applied outside-in; the hole is innermost.
    layers: Vec<Layer>,
}

#[derive(Clone, Debug)]
enum Layer {
    Restrict(Name),
    ParLeft(P),
    ParRight(P),
}

impl StaticContext {
    /// The empty context `[·]`.
    pub fn hole() -> StaticContext {
        StaticContext { layers: Vec::new() }
    }

    /// `νx C[·]`.
    pub fn restrict(mut self, x: Name) -> StaticContext {
        self.layers.push(Layer::Restrict(x));
        self
    }

    /// `C[·] ‖ p`.
    pub fn par_right(mut self, p: P) -> StaticContext {
        self.layers.push(Layer::ParRight(p));
        self
    }

    /// `p ‖ C[·]`.
    pub fn par_left(mut self, p: P) -> StaticContext {
        self.layers.push(Layer::ParLeft(p));
        self
    }

    /// Plugs `p` into the hole.
    pub fn apply(&self, p: &P) -> P {
        let mut cur = p.clone();
        for layer in self.layers.iter().rev() {
            cur = match layer {
                Layer::Restrict(x) => new(*x, cur),
                Layer::ParLeft(q) => par(q.clone(), cur),
                Layer::ParRight(q) => par(cur, q.clone()),
            };
        }
        cur
    }

    /// Samples a random static context over the given names.
    pub fn random(rng: &mut StdRng, names_pool: &[Name], max_layers: usize) -> StaticContext {
        let mut ctx = StaticContext::hole();
        let n_layers = rng.gen_range(0..=max_layers);
        let cfg = GenCfg::finite_monadic(names_pool.to_vec());
        for _ in 0..n_layers {
            match rng.gen_range(0..3) {
                0 if !names_pool.is_empty() => {
                    let x = names_pool[rng.gen_range(0..names_pool.len())];
                    ctx = ctx.restrict(x);
                }
                1 => {
                    let r = Gen::new(cfg.clone(), rng.gen()).process();
                    ctx = ctx.par_left(r);
                }
                _ => {
                    let r = Gen::new(cfg.clone(), rng.gen()).process();
                    ctx = ctx.par_right(r);
                }
            }
        }
        ctx
    }
}

/// Sampled static-context closure of a bisimilarity: checks
/// `C[p] ~ᵥ C[q]` for the empty context and `samples` random static
/// contexts drawn from the seeded rng. Returns the first distinguishing
/// context on failure.
pub fn sampled_equivalence(
    v: Variant,
    p: &P,
    q: &P,
    defs: &Defs,
    samples: usize,
    seed: u64,
) -> Result<(), StaticContext> {
    let checker = Checker::with_opts(defs, Opts::default());
    let mut rng = StdRng::seed_from_u64(seed);
    let pool: Vec<Name> = p.free_names().union(&q.free_names()).to_vec();
    // The empty context is by far the most likely refuter, so it goes
    // first, before any context is drawn.
    let empty = StaticContext::hole();
    if !checker.bisimilar(v, &empty.apply(p), &empty.apply(q)) {
        return Err(empty);
    }
    let contexts: Vec<StaticContext> = (0..samples)
        .map(|_| StaticContext::random(&mut rng, &pool, 2))
        .collect();
    for ctx in contexts {
        if !checker.bisimilar(v, &ctx.apply(p), &ctx.apply(q)) {
            return Err(ctx);
        }
    }
    Ok(())
}

/// The tester `T` of Lemma 5: for channels `M = fn(p, q)` and fresh
/// `c`, `T = Σ_{a∈M} a(x).c̄' + c̄`. Running `p ‖ T` under weak *barbed*
/// observation recovers step-equivalence information: `T` converts
/// received broadcasts into fresh barbs. Returns `(T, c, c')`.
pub fn lemma5_tester(fnames: &NameSet) -> (P, Name, Name) {
    let mut avoid = fnames.clone();
    let c = pick_fresh("tc", &mut avoid);
    let c2 = pick_fresh("tc'", &mut avoid);
    let x = pick_fresh("tx", &mut avoid);
    let summands: Vec<P> = fnames
        .iter()
        .map(|a| inp(a, [x], out_(c2, [])))
        .chain(std::iter::once(out_(c, [])))
        .collect();
    (sum_of(summands), c, c2)
}

fn pick_fresh(base: &str, avoid: &mut NameSet) -> Name {
    let mut s = base.to_owned();
    loop {
        let n = Name::intern_raw(&s);
        if !avoid.contains(n) {
            avoid.insert(n);
            return n;
        }
        s.push('\'');
    }
}

/// The saturating context `C₁` of Theorem 3:
/// `C₁[·] = u(z₁)…u(zₙ).([·] + Σᵢ zᵢ(x).v̄)` where `z₁…zₙ` rebind the
/// free names of the plugged processes. Feeding it all tuples of names
/// realises the ∀σ quantification of `~c` inside barbed congruence.
/// Returns a closure that plugs a process, together with `(u, v)`.
pub fn theorem3_context(fnames: &NameSet) -> (impl Fn(&P) -> P, Name, Name) {
    let free: Vec<Name> = fnames.to_vec();
    let mut avoid = fnames.clone();
    let u = pick_fresh("cu", &mut avoid);
    let v = pick_fresh("cv", &mut avoid);
    let x = pick_fresh("cx", &mut avoid);
    let plug = move |p: &P| {
        let mut body_summands = vec![p.clone()];
        for &z in &free {
            body_summands.push(inp(z, [x], out_(v, [])));
        }
        let mut cur = sum_of(body_summands);
        // u(z₁)…u(zₙ). — rebinding each free name in turn.
        for &z in free.iter().rev() {
            cur = inp(u, [z], cur);
        }
        cur
    };
    (plug, u, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bisim::{strong_barbed_bisimilar, Variant};

    fn d() -> Defs {
        Defs::new()
    }

    #[test]
    fn context_application_shapes() {
        let [a, x] = names(["a", "x"]);
        // Layers are pushed outside-in: par_right is outermost here.
        let ctx = StaticContext::hole().par_right(out_(a, [])).restrict(x);
        let p = inp_(a, [x]);
        let applied = ctx.apply(&p);
        assert_eq!(applied.to_string(), "new x. a(x) | a<>");
        // And the other nesting order:
        let ctx2 = StaticContext::hole().restrict(x).par_right(out_(a, []));
        assert_eq!(ctx2.apply(&p).to_string(), "new x. (a(x) | a<>)");
    }

    #[test]
    fn sampled_equivalence_accepts_congruent_pairs() {
        let defs = d();
        let [a, b] = names(["a", "b"]);
        // p ‖ nil vs p — congruent, no context distinguishes.
        let p = out(a, [], out_(b, []));
        let pn = par(p.clone(), nil());
        assert!(sampled_equivalence(Variant::StrongBarbed, &p, &pn, &defs, 20, 42).is_ok());
        assert!(sampled_equivalence(Variant::WeakBarbed, &p, &pn, &defs, 10, 43).is_ok());
    }

    #[test]
    fn sampled_equivalence_refutes_remark1_pair() {
        // āb ~b āb.c̄d, but the restriction context νa [·] separates them
        // (Remark 1) — the sampler must find it (we seed it generously).
        let defs = d();
        let [a, b, c, e] = names(["a", "b", "c", "e"]);
        let p = out_(a, [b]);
        let q = out(a, [b], out_(c, [e]));
        assert!(strong_barbed_bisimilar(&p, &q, &defs));
        let res = sampled_equivalence(Variant::StrongBarbed, &p, &q, &defs, 200, 7);
        assert!(res.is_err(), "a distinguishing static context exists");
    }

    #[test]
    fn lemma5_tester_exposes_inputs_as_barbs() {
        // T converts p's broadcasts into c̄'-barbs: p = āb ‖ T has a weak
        // barb on c' after the broadcast.
        let defs = d();
        let [a, b] = names(["a", "b"]);
        let p = out_(a, [b]);
        let fns = p.free_names();
        let (t, c, c2) = lemma5_tester(&fns);
        let sys = par(p, t);
        let lts = bpi_semantics::Lts::new(&defs);
        let w = bpi_semantics::Weak::new(lts);
        assert!(w.has_weak_barb(&sys, c).unwrap(), "T's own barb c");
        // After the broadcast fires, T answers on c2.
        let stepped = &lts.step_transitions(&sys)[0].1;
        assert!(w.has_weak_barb(stepped, c2).unwrap());
    }

    #[test]
    fn theorem3_context_builds_rebinder() {
        let [a, b] = names(["a", "b"]);
        let p = out_(a, [b]);
        let (plug, u, _v) = theorem3_context(&p.free_names());
        let ctx_p = plug(&p);
        // Outermost prefix is an input on u.
        match &*ctx_p {
            bpi_core::syntax::Process::Act(bpi_core::syntax::Prefix::Input(ch, _), _) => {
                assert_eq!(*ch, u);
            }
            other => panic!("expected input on u, got {other:?}"),
        }
    }
}
