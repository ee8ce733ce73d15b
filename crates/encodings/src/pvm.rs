//! Example 3: semantics of PVM-like group communication primitives.
//!
//! The paper gives a compositional translation `{P}_a` of a small
//! imperative task language with dynamic process groups into the
//! bπ-calculus:
//!
//! ```text
//! I ::= send(a,m) | bcast(g,m) | x = receive() | g = newgroup()
//!     | joingroup(g) | leavegroup(g) | x = spawn(Q)
//! P ::= I; P | STOP
//! ```
//!
//! Each task owns a *mailbox*: a `Pool` listening on the task's address
//! (and one extra `Pool` per joined group), forking a `Cell` per stored
//! message. `receive` broadcasts a private return channel on `r`; every
//! cell hears it and the cells *arbitrate by broadcast* — the first one
//! to answer is heard by all the others, which silently re-arm:
//!
//! ```text
//! Pool⟨a,r,k⟩ ≝ k().nil + a(x).(Pool⟨a,r,k⟩ ‖ Cell⟨r,x⟩)
//! Cell⟨r,x⟩  ≝ r(c).(c̄x + c(y).Cell⟨r,x⟩)
//! ```
//!
//! Group membership is fully dynamic: `joingroup(g)` simply spawns
//! another pool listening on `g` (with a private kill channel so
//! `leavegroup` can retract it), and `newgroup` mints a fresh group
//! name — the reconfigurable-broadcast combination the paper argues CBS
//! cannot express.
//!
//! Fidelity note: as in the paper, a `receive` on an *empty* mailbox
//! loses its request (no cell heard the return channel) and blocks; the
//! tests schedule around this exactly as a PVM programmer would.

use bpi_core::builder::*;
use bpi_core::name::Name;
use bpi_core::syntax::{Defs, Ident, P};
use bpi_semantics::{explore, ExploreOpts, Simulator};
use std::collections::HashMap;

/// A name-valued expression: a literal channel/message label or a
/// program variable bound by `receive`, `newgroup` or `spawn`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expr {
    Const(String),
    Var(String),
}

impl Expr {
    pub fn c(s: &str) -> Expr {
        Expr::Const(s.to_string())
    }
    pub fn v(s: &str) -> Expr {
        Expr::Var(s.to_string())
    }
}

/// One instruction of the task language.
#[derive(Clone, Debug)]
pub enum Instr {
    /// `send(a, m)` — point-to-point: deposit `m` in task `a`'s mailbox.
    Send(Expr, Expr),
    /// `bcast(g, m)` — deposit `m` in the mailbox of every member of `g`.
    Bcast(Expr, Expr),
    /// `x = receive()` — take some message from the own mailbox.
    Receive(String),
    /// `g = newgroup()`.
    NewGroup(String),
    /// `joingroup(g)`.
    JoinGroup(Expr),
    /// `leavegroup(g)` — retracts the most recently joined group.
    LeaveGroup(Expr),
    /// `x = spawn(Q)` — start child task `Q`; its address is bound to
    /// the variable `child`.
    Spawn(Program),
}

/// A straight-line task program (`STOP` is implicit at the end).
#[derive(Clone, Debug, Default)]
pub struct Program {
    pub instrs: Vec<Instr>,
}

impl Program {
    pub fn new(instrs: Vec<Instr>) -> Program {
        Program { instrs }
    }
}

/// A system of named tasks.
#[derive(Clone, Debug, Default)]
pub struct System {
    /// (address label, program) pairs.
    pub tasks: Vec<(String, Program)>,
}

fn label_name(s: &str) -> Name {
    Name::intern_raw(&format!("c_{s}"))
}

struct Encoder {
    /// Program variables in scope → the bπ binder carrying them.
    env: HashMap<String, Name>,
    fresh: usize,
}

impl Encoder {
    fn fresh(&mut self, base: &str) -> Name {
        self.fresh += 1;
        Name::intern_raw(&format!("{base}{}", self.fresh))
    }

    fn eval(&self, e: &Expr) -> Name {
        match e {
            Expr::Const(s) => label_name(s),
            Expr::Var(v) => *self
                .env
                .get(v)
                .unwrap_or_else(|| panic!("unbound program variable {v}")),
        }
    }

    /// `Pool⟨a, r, k⟩`.
    fn pool(&mut self, a: Name, r: Name, k: Name) -> P {
        let id = Ident::new("PvmPool");
        let x = self.fresh("px");
        let cell = self.cell(r, x);
        let body = sum(
            inp(k, [], nil()),
            inp(a, [x], par(var(id, [a, r, k]), cell)),
        );
        rec(id, [a, r, k], body, [a, r, k])
    }

    /// `Cell⟨r, x⟩`.
    fn cell(&mut self, r: Name, x: Name) -> P {
        let id = Ident::new("PvmCell");
        let c = self.fresh("pc");
        let y = self.fresh("py");
        let body = inp(r, [c], sum(out_(c, [x]), inp(c, [y], var(id, [r, x]))));
        rec(id, [r, x], body, [r, x])
    }

    /// `[P]_{r,M}` — `pools` carries the kill channels of the joined
    /// groups (the `M` of the paper), released at STOP.
    fn body(&mut self, prog: &[Instr], r: Name, pools: &mut Vec<Name>) -> P {
        let Some((instr, rest)) = prog.split_first() else {
            // [STOP] = k̄g₁ … k̄gₙ. τ. nil
            let mut cont = tau_();
            for k in pools.iter().rev() {
                cont = out(*k, [], cont);
            }
            return cont;
        };
        match instr {
            Instr::Send(a, m) | Instr::Bcast(a, m) => {
                // νt (ām.t̄ ‖ t().[P]) — identical translations; the
                // difference is only how many pools listen on the subject.
                let t = self.fresh("st");
                let an = self.eval(a);
                let mn = self.eval(m);
                let cont = self.body(rest, r, pools);
                new(t, par(out(an, [mn], out_(t, [])), inp(t, [], cont)))
            }
            Instr::Receive(x) => {
                // νt (r̄t ‖ t(x).[P])
                let t = self.fresh("rt");
                let xb = self.fresh("rx");
                let saved = self.env.insert(x.clone(), xb);
                let cont = self.body(rest, r, pools);
                restore(&mut self.env, x, saved);
                new(t, par(out_(r, [t]), inp(t, [xb], cont)))
            }
            Instr::NewGroup(g) => {
                // νt νg νk_g (t̄g.t̄k_g.Pool⟨g,r,k_g⟩ ‖ t(g).t(k_g).[P])
                let t = self.fresh("gt");
                let gn = self.fresh("grp");
                let kg = self.fresh("kg");
                let gb = self.fresh("gv");
                let kb = self.fresh("kv");
                let saved = self.env.insert(g.clone(), gb);
                pools.push(kb);
                let cont = self.body(rest, r, pools);
                pools.pop();
                restore(&mut self.env, g, saved);
                let pool = self.pool(gn, r, kg);
                new_many(
                    [t, gn, kg],
                    par(
                        out(t, [gn], out(t, [kg], pool)),
                        inp(t, [gb], inp(t, [kb], cont)),
                    ),
                )
            }
            Instr::JoinGroup(g) => {
                // νt νk_g (t̄k_g.Pool⟨g,r,k_g⟩ ‖ t(k).[P])
                let t = self.fresh("jt");
                let kg = self.fresh("kg");
                let kb = self.fresh("kv");
                let gn = self.eval(g);
                pools.push(kb);
                let cont = self.body(rest, r, pools);
                pools.pop();
                let pool = self.pool(gn, r, kg);
                new_many([t, kg], par(out(t, [kg], pool), inp(t, [kb], cont)))
            }
            Instr::LeaveGroup(_g) => {
                // νt (k̄g.t̄ ‖ t().[P]) — retract the most recent pool.
                let k = pools
                    .pop()
                    .expect("leavegroup without a matching joingroup");
                let t = self.fresh("lt");
                let cont = self.body(rest, r, pools);
                pools.push(k); // restore for sibling branches
                let inner = new(t, par(out(k, [], out_(t, [])), inp(t, [], cont)));
                // the popped kill channel belongs to the *continuation*'s
                // scope bookkeeping only; pools is restored above.
                inner
            }
            Instr::Spawn(q) => {
                // νa νt ({Q}_a ‖ t̄a ‖ t(x).[P]) with x = "child".
                let a = self.fresh("addr");
                let t = self.fresh("pt");
                let xb = self.fresh("xv");
                let child = self.task(a, q);
                let saved = self.env.insert("child".to_string(), xb);
                let cont = self.body(rest, r, pools);
                restore(&mut self.env, "child", saved);
                new_many([a, t], par(child, par(out_(t, [a]), inp(t, [xb], cont))))
            }
        }
    }

    /// `{P}_a = νr νk (Pool⟨a,r,k⟩ ‖ [P]_{r,∅})`.
    fn task(&mut self, addr: Name, prog: &Program) -> P {
        let r = self.fresh("mbox");
        let k = self.fresh("kill");
        let pool = self.pool(addr, r, k);
        let mut pools = Vec::new();
        let body = self.body(&prog.instrs, r, &mut pools);
        new_many([r, k], par(pool, body))
    }
}

fn restore(env: &mut HashMap<String, Name>, key: &str, saved: Option<Name>) {
    match saved {
        Some(v) => {
            env.insert(key.to_string(), v);
        }
        None => {
            env.remove(key);
        }
    }
}

/// Encodes a whole system of tasks into one bπ process.
pub fn encode_system(sys: &System) -> (P, Defs) {
    let mut enc = Encoder {
        env: HashMap::new(),
        fresh: 0,
    };
    let tasks: Vec<P> = sys
        .tasks
        .iter()
        .map(|(addr, prog)| enc.task(label_name(addr), prog))
        .collect();
    (par_of(tasks), Defs::new())
}

/// Convenience observation: broadcasts `m` on the global channel
/// `obs_<tag>` — a `bcast` to a group nobody joins, so the broadcast
/// itself is the observable barb.
pub fn observe(tag: &str, m: Expr) -> Instr {
    Instr::Bcast(Expr::c(&format!("obs_{tag}")), m)
}

/// The observation channel name for [`observe`].
pub fn obs_chan(tag: &str) -> Name {
    label_name(&format!("obs_{tag}"))
}

/// Runs the encoded system with many seeds, collecting the distinct
/// value tuples seen on the given observation channel across runs.
pub fn observed_values(
    sys: &System,
    chan: Name,
    seeds: std::ops::Range<u64>,
    steps: usize,
) -> Vec<Vec<Name>> {
    let (p, defs) = encode_system(sys);
    let mut out = Vec::new();
    for seed in seeds {
        let mut sim = Simulator::new(&defs, seed);
        let trace = sim.run(&p, steps);
        for objs in trace.outputs_on(chan) {
            if !out.contains(&objs) {
                out.push(objs);
            }
        }
    }
    out
}

/// Whether an output on `chan` is reachable at all (exhaustive up to the
/// state budget; `None` = budget exceeded without finding one).
pub fn reachable_observation(sys: &System, chan: Name, max_states: usize) -> Option<bool> {
    let (p, defs) = encode_system(sys);
    let g = explore(&p, &defs, ExploreOpts { max_states });
    if g.can_output_on(chan) {
        Some(true)
    } else if g.truncated {
        None
    } else {
        Some(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_receive_roundtrip() {
        // A sends "m" to B; B receives and republishes it on obs_b.
        let sys = System {
            tasks: vec![
                (
                    "A".into(),
                    Program::new(vec![Instr::Send(Expr::c("B"), Expr::c("m"))]),
                ),
                (
                    "B".into(),
                    Program::new(vec![Instr::Receive("x".into()), observe("b", Expr::v("x"))]),
                ),
            ],
        };
        let vals = observed_values(&sys, obs_chan("b"), 0..25, 300);
        assert!(
            vals.contains(&vec![label_name("m")]),
            "B never received m: {vals:?}"
        );
    }

    #[test]
    fn bcast_reaches_all_members() {
        // B and C join group g; A broadcasts v to g; both republish.
        let member = |tag: &str| {
            Program::new(vec![
                Instr::JoinGroup(Expr::c("g")),
                Instr::Receive("x".into()),
                observe(tag, Expr::v("x")),
            ])
        };
        let sys = System {
            tasks: vec![
                (
                    "A".into(),
                    Program::new(vec![Instr::Bcast(Expr::c("g"), Expr::c("v"))]),
                ),
                ("B".into(), member("b")),
                ("C".into(), member("c")),
            ],
        };
        let (p, defs) = encode_system(&sys);
        let mut both = false;
        for seed in 0..60 {
            let mut sim = Simulator::new(&defs, seed);
            let tr = sim.run(&p, 400);
            if tr
                .outputs_on(obs_chan("b"))
                .contains(&vec![label_name("v")])
                && tr
                    .outputs_on(obs_chan("c"))
                    .contains(&vec![label_name("v")])
            {
                both = true;
                break;
            }
        }
        assert!(both, "no schedule delivered the broadcast to both members");
    }

    #[test]
    fn leave_group_stops_delivery() {
        // B joins then immediately leaves; with no other sender, B's
        // receive can never complete: the observation is unreachable in
        // the full state space.
        let sys = System {
            tasks: vec![(
                "B".into(),
                Program::new(vec![
                    Instr::JoinGroup(Expr::c("g")),
                    Instr::LeaveGroup(Expr::c("g")),
                    Instr::Receive("x".into()),
                    observe("left", Expr::v("x")),
                ]),
            )],
        };
        let r = reachable_observation(&sys, obs_chan("left"), 50_000);
        assert_eq!(r, Some(false));
    }

    #[test]
    fn newgroup_isolates_instances() {
        // Two tasks each create a fresh group and broadcast into it;
        // neither can ever receive the other's message.
        let maker = |tag: &str, val: &str| {
            Program::new(vec![
                Instr::NewGroup("g".into()),
                Instr::JoinGroup(Expr::v("g")),
                Instr::Bcast(Expr::v("g"), Expr::c(val)),
                Instr::Receive("x".into()),
                observe(tag, Expr::v("x")),
            ])
        };
        let sys = System {
            tasks: vec![
                ("A".into(), maker("a", "va")),
                ("B".into(), maker("b", "vb")),
            ],
        };
        let va = observed_values(&sys, obs_chan("a"), 0..40, 500);
        let vb = observed_values(&sys, obs_chan("b"), 0..40, 500);
        assert!(va.contains(&vec![label_name("va")]), "A: {va:?}");
        assert!(vb.contains(&vec![label_name("vb")]), "B: {vb:?}");
        assert!(
            !va.contains(&vec![label_name("vb")]),
            "cross-talk between private groups: {va:?}"
        );
        assert!(!vb.contains(&vec![label_name("va")]));
    }

    #[test]
    fn spawn_starts_child() {
        // A spawns a child, then messages it at the bound address.
        let child = Program::new(vec![
            Instr::Receive("y".into()),
            observe("child", Expr::v("y")),
        ]);
        let sys = System {
            tasks: vec![(
                "A".into(),
                Program::new(vec![
                    Instr::Spawn(child),
                    Instr::Send(Expr::v("child"), Expr::c("hello")),
                ]),
            )],
        };
        let vals = observed_values(&sys, obs_chan("child"), 0..40, 400);
        assert!(
            vals.contains(&vec![label_name("hello")]),
            "child never got the message: {vals:?}"
        );
    }

    #[test]
    fn mailbox_arbitration_delivers_one_message_per_receive() {
        // Two messages in the mailbox, one receive: at most one value
        // delivered per run (cells arbitrate over the private channel).
        let sys = System {
            tasks: vec![
                (
                    "S1".into(),
                    Program::new(vec![Instr::Send(Expr::c("B"), Expr::c("m1"))]),
                ),
                (
                    "S2".into(),
                    Program::new(vec![Instr::Send(Expr::c("B"), Expr::c("m2"))]),
                ),
                (
                    "B".into(),
                    Program::new(vec![
                        Instr::Receive("x".into()),
                        observe("got", Expr::v("x")),
                    ]),
                ),
            ],
        };
        let (p, defs) = encode_system(&sys);
        let mut seen_any = false;
        for seed in 0..40 {
            let mut sim = Simulator::new(&defs, seed);
            let tr = sim.run(&p, 500);
            let got = tr.outputs_on(obs_chan("got"));
            assert!(got.len() <= 1, "double delivery in one run: {got:?}");
            if got.len() == 1 {
                seen_any = true;
                assert!(
                    got[0] == vec![label_name("m1")] || got[0] == vec![label_name("m2")],
                    "unexpected value {got:?}"
                );
            }
        }
        assert!(seen_any, "no schedule completed the receive");
    }
}
