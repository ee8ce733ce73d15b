//! §6 expressiveness: a uniform encoding of a core π-calculus into bπ.
//!
//! The paper states that "we can give an 'uniform' encoding adequate
//! with respect to barbed equivalence of the π-calculus into the
//! bπ-calculus" (while the converse — broadcast into point-to-point —
//! is impossible by their earlier expressiveness result \[3\]). This
//! module realises such an encoding and checks adequacy on examples.
//!
//! The challenge is that a π output is a **handshake with exactly one
//! receiver**, while a bπ output reaches every listener. The encoding
//! arbitrates through a private *lock* channel, using broadcast itself
//! as the arbiter:
//!
//! ```text
//! ⟦x̄⟨y⟩.P⟧ = νl ( x̄⟨y,l⟩ ‖ l(w).⟦P⟧ )
//! ⟦x(z).Q⟧ = R  where  R = x(z,l).( νm l̄⟨m⟩.⟦Q⟧  +  l(o).R )
//! ⟦P‖Q⟧, ⟦νx P⟧, ⟦0⟧ homomorphic
//! ```
//!
//! Every current listener hears `⟨y, l⟩` and races to claim the lock:
//! the first claim `l̄⟨m⟩` is *broadcast*, so the sender proceeds and
//! every losing contender hears the claim on `l` and silently returns to
//! listening state. If there is no receiver the sender blocks on `l`
//! forever — matching the blocking π output. The encoding is uniform
//! (compositional, no central coordinator) and adequate for may-barbs,
//! which we test against a reference point-to-point interpreter.

use bpi_core::builder::*;
use bpi_core::name::{Name, NameSet};
use bpi_core::syntax::{Defs, Ident, P};
use bpi_semantics::{Lts, Simulator, Weak};
use std::collections::{BTreeSet, HashMap};

/// A core π-calculus process (monadic, no sum, no replication).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Pi {
    Nil,
    /// `x̄⟨y⟩.P`
    Out(String, String, Box<Pi>),
    /// `x(z).P`
    In(String, String, Box<Pi>),
    Par(Box<Pi>, Box<Pi>),
    /// `νx P`
    New(String, Box<Pi>),
}

impl Pi {
    pub fn out(c: &str, m: &str, p: Pi) -> Pi {
        Pi::Out(c.into(), m.into(), Box::new(p))
    }
    pub fn inp(c: &str, x: &str, p: Pi) -> Pi {
        Pi::In(c.into(), x.into(), Box::new(p))
    }
    pub fn par(l: Pi, r: Pi) -> Pi {
        Pi::Par(Box::new(l), Box::new(r))
    }
    pub fn new(x: &str, p: Pi) -> Pi {
        Pi::New(x.into(), Box::new(p))
    }

    fn subst(&self, from: &str, to: &str) -> Pi {
        match self {
            Pi::Nil => Pi::Nil,
            Pi::Out(c, m, p) => Pi::Out(
                rename(c, from, to),
                rename(m, from, to),
                Box::new(p.subst(from, to)),
            ),
            Pi::In(c, x, p) => {
                let c2 = rename(c, from, to);
                if x == from {
                    Pi::In(c2, x.clone(), p.clone())
                } else {
                    // `to` is always globally fresh in our interpreter, so
                    // binder capture cannot occur.
                    Pi::In(c2, x.clone(), Box::new(p.subst(from, to)))
                }
            }
            Pi::Par(l, r) => Pi::Par(Box::new(l.subst(from, to)), Box::new(r.subst(from, to))),
            Pi::New(x, p) => {
                if x == from {
                    Pi::New(x.clone(), p.clone())
                } else {
                    Pi::New(x.clone(), Box::new(p.subst(from, to)))
                }
            }
        }
    }
}

fn rename(n: &str, from: &str, to: &str) -> String {
    if n == from {
        to.to_string()
    } else {
        n.to_string()
    }
}

/// A flattened π state: restricted names + parallel components (each
/// component is `Out`/`In`/`Nil` rooted).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct PiState {
    restricted: BTreeSet<String>,
    comps: Vec<Pi>,
}

fn flatten(p: Pi, state: &mut PiState, fresh: &mut usize) {
    match p {
        Pi::Nil => {}
        Pi::Par(l, r) => {
            flatten(*l, state, fresh);
            flatten(*r, state, fresh);
        }
        Pi::New(x, body) => {
            *fresh += 1;
            let nx = format!("{x}%{fresh}");
            state.restricted.insert(nx.clone());
            flatten(body.subst(&x, &nx), state, fresh);
        }
        other => state.comps.push(other),
    }
}

/// Reference π semantics: the set of *may-barbs* — output subjects
/// (non-restricted) observable in any state reachable by handshakes —
/// up to `budget` explored states.
pub fn pi_may_barbs(p: &Pi, budget: usize) -> BTreeSet<String> {
    let mut fresh = 0usize;
    let mut init = PiState {
        restricted: BTreeSet::new(),
        comps: Vec::new(),
    };
    flatten(p.clone(), &mut init, &mut fresh);
    let mut seen = BTreeSet::new();
    let mut work = vec![init];
    let mut barbs = BTreeSet::new();
    while let Some(st) = work.pop() {
        if seen.len() >= budget {
            break;
        }
        let mut key = st.clone();
        key.comps
            .sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        if !seen.insert(format!("{key:?}")) {
            continue;
        }
        for c in &st.comps {
            if let Pi::Out(ch, _, _) = c {
                if !st.restricted.contains(ch) {
                    barbs.insert(ch.clone());
                }
            }
        }
        // Handshakes: every (output, input) pair on the same channel.
        for (i, c1) in st.comps.iter().enumerate() {
            let Pi::Out(ch, msg, pcont) = c1 else {
                continue;
            };
            for (j, c2) in st.comps.iter().enumerate() {
                if i == j {
                    continue;
                }
                let Pi::In(ch2, x, qcont) = c2 else { continue };
                if ch != ch2 {
                    continue;
                }
                let mut next = PiState {
                    restricted: st.restricted.clone(),
                    comps: st
                        .comps
                        .iter()
                        .enumerate()
                        .filter(|(k, _)| *k != i && *k != j)
                        .map(|(_, c)| c.clone())
                        .collect(),
                };
                flatten((**pcont).clone(), &mut next, &mut fresh);
                flatten(qcont.subst(x, msg), &mut next, &mut fresh);
                work.push(next);
            }
        }
    }
    barbs
}

struct PiEncoder {
    env: HashMap<String, Name>,
    fresh: usize,
}

fn pi_chan(s: &str) -> Name {
    Name::intern_raw(&format!("pi_{s}"))
}

impl PiEncoder {
    fn fresh(&mut self, base: &str) -> Name {
        self.fresh += 1;
        Name::intern_raw(&format!("{base}{}", self.fresh))
    }

    fn name(&self, s: &str) -> Name {
        self.env.get(s).copied().unwrap_or_else(|| pi_chan(s))
    }

    fn enc(&mut self, p: &Pi) -> P {
        match p {
            Pi::Nil => nil(),
            Pi::Out(c, m, cont) => {
                let l = self.fresh("lk");
                let w = self.fresh("lw");
                let cn = self.name(c);
                let mn = self.name(m);
                let k = self.enc(cont);
                new(l, par(out_(cn, [mn, l]), inp(l, [w], k)))
            }
            Pi::In(c, x, cont) => {
                // R = c(x,l).( νm l̄⟨m⟩.⟦cont⟧ + l(o).R⟨fv⟩ )
                self.fresh += 1;
                let id = Ident::new(&format!("PiRecv{}", self.fresh));
                let xb = self.fresh("pz");
                let l = self.fresh("pl");
                let m = self.fresh("pm");
                let o = self.fresh("po");
                let saved = self.env.insert(x.clone(), xb);
                let k = self.enc(cont);
                match saved {
                    Some(v) => {
                        self.env.insert(x.clone(), v);
                    }
                    None => {
                        self.env.remove(x);
                    }
                }
                let cn = self.name(c);
                // Parameters: all free names of the rec body.
                let body_probe = inp(
                    cn,
                    [xb, l],
                    sum(new(m, out(l, [m], k.clone())), inp(l, [o], nil())),
                );
                let mut fv: Vec<Name> = body_probe.free_names().to_vec();
                fv.sort();
                let body = inp(
                    cn,
                    [xb, l],
                    sum(new(m, out(l, [m], k)), inp(l, [o], var(id, fv.clone()))),
                );
                rec(id, fv.clone(), body, fv)
            }
            Pi::Par(l, r) => par(self.enc(l), self.enc(r)),
            Pi::New(x, cont) => {
                let xn = self.fresh(&format!("nu_{x}_"));
                let saved = self.env.insert(x.clone(), xn);
                let k = self.enc(cont);
                match saved {
                    Some(v) => {
                        self.env.insert(x.clone(), v);
                    }
                    None => {
                        self.env.remove(x);
                    }
                }
                new(xn, k)
            }
        }
    }
}

/// Encodes a π process into bπ.
pub fn encode_pi(p: &Pi) -> (P, Defs) {
    let mut enc = PiEncoder {
        env: HashMap::new(),
        fresh: 0,
    };
    (enc.enc(p), Defs::new())
}

/// The bπ-side may-barbs of the encoding: output subjects reachable
/// through step moves, restricted to π channel names, mapped back to
/// their labels.
pub fn encoded_may_barbs(p: &Pi, budget: usize) -> BTreeSet<String> {
    let (q, defs) = encode_pi(p);
    let lts = Lts::new(&defs);
    let w = Weak::with_budget(lts, budget);
    let mut out = BTreeSet::new();
    // Budget exhaustion degrades to the barbs found so far (empty set):
    // may-testing treats "could not certify" as "not observed".
    for n in &w.weak_step_barbs(&q).unwrap_or_default() {
        let s = n.spelling();
        if let Some(orig) = s.strip_prefix("pi_") {
            out.insert(orig.to_string());
        }
    }
    out
}

/// Mutual exclusion check: in every random run, at most one of the two
/// observation channels fires — the encoded handshake delivers to
/// exactly one receiver.
pub fn runs_are_exclusive(p: &Pi, a: &str, b: &str, seeds: std::ops::Range<u64>) -> bool {
    let (q, defs) = encode_pi(p);
    for seed in seeds {
        let mut sim = Simulator::new(&defs, seed);
        let tr = sim.run(&q, 300);
        let ca = tr.count_outputs_on(pi_chan(a));
        let cb = tr.count_outputs_on(pi_chan(b));
        if ca + cb > 1 {
            return false;
        }
    }
    true
}

/// Adequacy on one subject: the π may-barbs coincide with the encoded
/// may-barbs.
pub fn barb_adequate(p: &Pi, budget: usize) -> bool {
    let lhs = pi_may_barbs(p, budget);
    let rhs = encoded_may_barbs(p, budget);
    lhs == rhs
}

/// `NameSet` of the π-channel names used; handy in diagnostics.
pub fn pi_channels(p: &Pi) -> NameSet {
    fn go(p: &Pi, out: &mut NameSet) {
        match p {
            Pi::Nil => {}
            Pi::Out(c, m, k) => {
                out.insert(pi_chan(c));
                out.insert(pi_chan(m));
                go(k, out);
            }
            Pi::In(c, _, k) => {
                out.insert(pi_chan(c));
                go(k, out);
            }
            Pi::Par(l, r) => {
                go(l, out);
                go(r, out);
            }
            Pi::New(_, k) => go(k, out),
        }
    }
    let mut s = NameSet::new();
    go(p, &mut s);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_interpreter_handshakes() {
        // x̄⟨y⟩ ‖ x(z).z̄⟨z⟩ → ȳ⟨y⟩ : barbs {x, y}.
        let p = Pi::par(
            Pi::out("x", "y", Pi::Nil),
            Pi::inp("x", "z", Pi::out("z", "z", Pi::Nil)),
        );
        let barbs = pi_may_barbs(&p, 1000);
        assert_eq!(barbs, BTreeSet::from(["x".to_string(), "y".to_string()]));
    }

    #[test]
    fn adequacy_simple_handshake() {
        let p = Pi::par(
            Pi::out("x", "y", Pi::Nil),
            Pi::inp("x", "z", Pi::out("z", "z", Pi::Nil)),
        );
        assert!(barb_adequate(&p, 4000));
    }

    #[test]
    fn adequacy_blocked_output() {
        // x̄⟨y⟩.w̄ with no receiver: w never fires in π; the encoded
        // sender blocks on its lock the same way.
        let p = Pi::out("x", "y", Pi::out("w", "w", Pi::Nil));
        let lhs = pi_may_barbs(&p, 1000);
        assert_eq!(lhs, BTreeSet::from(["x".to_string()]));
        assert!(barb_adequate(&p, 4000));
    }

    #[test]
    fn adequacy_competing_receivers() {
        // x̄⟨a⟩ ‖ x(u).ū ‖ x(v).c̄ : both continuations are possible,
        // but mutually exclusive in any single run.
        let p = Pi::par(
            Pi::out("x", "a", Pi::Nil),
            Pi::par(
                Pi::inp("x", "u", Pi::out("u", "u", Pi::Nil)),
                Pi::inp("x", "v", Pi::out("c", "c", Pi::Nil)),
            ),
        );
        assert!(barb_adequate(&p, 6000));
        assert!(runs_are_exclusive(&p, "a", "c", 0..50));
    }

    #[test]
    fn adequacy_restricted_channel() {
        // νx (x̄⟨a⟩ ‖ x(u).ū): only the continuation barb a is visible.
        let p = Pi::new(
            "x",
            Pi::par(
                Pi::out("x", "a", Pi::Nil),
                Pi::inp("x", "u", Pi::out("u", "u", Pi::Nil)),
            ),
        );
        let lhs = pi_may_barbs(&p, 1000);
        assert_eq!(lhs, BTreeSet::from(["a".to_string()]));
        assert!(barb_adequate(&p, 4000));
    }

    #[test]
    fn adequacy_sequenced_outputs() {
        // Handshake chains: x̄a.b̄b ‖ x(z).z̄z : barbs {x, a, b}.
        let p = Pi::par(
            Pi::out("x", "a", Pi::out("b", "b", Pi::Nil)),
            Pi::inp("x", "z", Pi::out("z", "z", Pi::Nil)),
        );
        assert!(barb_adequate(&p, 6000));
    }
}
