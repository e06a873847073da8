//! Hand-coded Paxos: the native performance baseline.
//!
//! The paper notes that even the compiled broadcast service "remains one
//! order of magnitude slower than a hand-coded Paxos". This module is that
//! hand-coded Paxos: the same multi-decree Synod protocol as
//! [`crate::synod`], speaking the *same wire messages*, but implemented as
//! native processes with typed state (`BTreeMap`s instead of
//! association-list `Value`s, direct dispatch instead of combinator
//! evaluation).
//!
//! Wire compatibility is tested: a hand-coded acceptor can serve a
//! spec-generated leader and vice versa.

use crate::synod::{
    SynodConfig, DECISION_HEADER, P1A_HEADER, P1B_HEADER, P2A_HEADER, P2B_HEADER, PROPOSE_HEADER,
    REQUEST_HEADER, RESCOUT_BACKOFF, RESCOUT_HEADER, START_HEADER,
};
use crate::{decide_body, vmap, DECIDE_HEADER};
use shadowdb_eventml::process::HasherAdapter;
use shadowdb_eventml::{cached_header, fxhash, Ctx, FxHashMap, Msg, Process, SendInstr, Value};
use shadowdb_loe::Loc;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};

/// A ballot: `(round, leader)`, ordered lexicographically.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ballot {
    /// Monotone per-leader round number.
    pub round: i64,
    /// The leader that owns the ballot.
    pub leader: Loc,
}

impl Ballot {
    /// The ballot below all real ballots.
    pub const fn bottom() -> Ballot {
        Ballot {
            round: -1,
            leader: Loc::new(0),
        }
    }

    fn to_value(self) -> Value {
        Value::pair(Value::Int(self.round), Value::Loc(self.leader))
    }

    fn from_value(v: &Value) -> Ballot {
        let (r, l) = v.unpair();
        Ballot {
            round: r.int(),
            leader: l.loc(),
        }
    }
}

// ---------------------------------------------------------------------------
// Acceptor
// ---------------------------------------------------------------------------

/// A native Synod acceptor.
#[derive(Clone, Debug, Default)]
pub struct HandAcceptor {
    ballot: Option<Ballot>,
    accepted: BTreeMap<i64, (Ballot, Value)>,
}

impl HandAcceptor {
    /// Creates an acceptor with empty state.
    pub fn new() -> HandAcceptor {
        HandAcceptor::default()
    }

    fn cur(&self) -> Ballot {
        self.ballot.unwrap_or(Ballot::bottom())
    }

    fn accepted_value(&self) -> Value {
        let mut map = vmap::empty();
        for (slot, (b, cmd)) in &self.accepted {
            map = vmap::set(
                &map,
                Value::Int(*slot),
                Value::pair(b.to_value(), cmd.clone()),
            );
        }
        map
    }
}

impl Process for HandAcceptor {
    fn step_into(&mut self, ctx: &Ctx, msg: &Msg, out: &mut Vec<SendInstr>) {
        // Dispatch on the interned symbol: one integer comparison per arm.
        let h = msg.header;
        if h == cached_header!(P1A_HEADER) {
            let (leader, b) = msg.body.unpair();
            let b = Ballot::from_value(b);
            if b > self.cur() {
                self.ballot = Some(b);
            }
            out.push(SendInstr::now(
                leader.loc(),
                Msg::new(
                    cached_header!(P1B_HEADER),
                    Value::pair(
                        Value::Loc(ctx.slf),
                        Value::pair(self.cur().to_value(), self.accepted_value()),
                    ),
                ),
            ));
        } else if h == cached_header!(P2A_HEADER) {
            let (leader, rest) = msg.body.unpair();
            let (b, sc) = rest.unpair();
            let (slot, cmd) = sc.unpair();
            let b = Ballot::from_value(b);
            if b >= self.cur() {
                self.ballot = Some(b);
                self.accepted.insert(slot.int(), (b, cmd.clone()));
            }
            out.push(SendInstr::now(
                leader.loc(),
                Msg::new(
                    cached_header!(P2B_HEADER),
                    Value::pair(
                        Value::Loc(ctx.slf),
                        Value::pair(self.cur().to_value(), slot.clone()),
                    ),
                ),
            ));
        }
    }
    fn clone_box(&self) -> Box<dyn Process> {
        Box::new(self.clone())
    }
    fn digest(&self, hasher: &mut dyn Hasher) {
        let mut h = HasherAdapter(hasher);
        self.ballot.hash(&mut h);
        self.accepted.hash(&mut h);
    }
}

// ---------------------------------------------------------------------------
// Leader
// ---------------------------------------------------------------------------

/// An in-progress scout: the acceptors still awaited and the accepted
/// pvalues (slot → highest-ballot command) gathered so far.
type ScoutState = (BTreeSet<Loc>, BTreeMap<i64, (Ballot, Value)>);

/// A native Synod leader with folded scout/commander sub-state.
#[derive(Clone, Debug)]
pub struct HandLeader {
    config: SynodConfig,
    round: i64,
    active: bool,
    proposals: BTreeMap<i64, Value>,
    scout: Option<ScoutState>,
    commanders: BTreeMap<i64, BTreeSet<Loc>>,
}

impl HandLeader {
    /// Creates a leader for the given deployment.
    pub fn new(config: SynodConfig) -> HandLeader {
        HandLeader {
            config,
            round: -1,
            active: false,
            proposals: BTreeMap::new(),
            scout: None,
            commanders: BTreeMap::new(),
        }
    }

    fn ballot(&self, slf: Loc) -> Ballot {
        Ballot {
            round: self.round,
            leader: slf,
        }
    }

    fn spawn_scout(&mut self, slf: Loc, outs: &mut Vec<SendInstr>) {
        self.scout = Some((
            self.config.acceptors.iter().copied().collect(),
            BTreeMap::new(),
        ));
        for a in &self.config.acceptors {
            outs.push(SendInstr::now(
                *a,
                Msg::new(
                    cached_header!(P1A_HEADER),
                    Value::pair(Value::Loc(slf), self.ballot(slf).to_value()),
                ),
            ));
        }
    }

    fn spawn_commander(&mut self, slf: Loc, slot: i64, cmd: &Value, outs: &mut Vec<SendInstr>) {
        self.commanders
            .insert(slot, self.config.acceptors.iter().copied().collect());
        for a in &self.config.acceptors {
            outs.push(SendInstr::now(
                *a,
                Msg::new(
                    cached_header!(P2A_HEADER),
                    Value::pair(
                        Value::Loc(slf),
                        Value::pair(
                            self.ballot(slf).to_value(),
                            Value::pair(Value::Int(slot), cmd.clone()),
                        ),
                    ),
                ),
            ));
        }
    }

    fn preempt(&mut self, slf: Loc, seen: Ballot, outs: &mut Vec<SendInstr>) {
        self.round = seen.round.max(self.round) + 1;
        self.active = false;
        self.scout = None;
        self.commanders.clear();
        outs.push(SendInstr::after(
            RESCOUT_BACKOFF,
            slf,
            Msg::new(cached_header!(RESCOUT_HEADER), Value::Unit),
        ));
    }

    fn majority(&self) -> usize {
        self.config.acceptors.len() / 2 + 1
    }
}

impl Process for HandLeader {
    fn step_into(&mut self, ctx: &Ctx, msg: &Msg, out: &mut Vec<SendInstr>) {
        let slf = ctx.slf;
        let outs = out;
        let h = msg.header;
        if h == cached_header!(START_HEADER) {
            if self.round < 0 {
                self.round = 0;
                self.spawn_scout(slf, outs);
            }
        } else if h == cached_header!(RESCOUT_HEADER) {
            if !self.active && self.scout.is_none() {
                self.spawn_scout(slf, outs);
            }
        } else if h == cached_header!(PROPOSE_HEADER) {
            let (slot, cmd) = msg.body.unpair();
            let slot = slot.int();
            if let std::collections::btree_map::Entry::Vacant(e) = self.proposals.entry(slot) {
                e.insert(cmd.clone());
                if self.active {
                    let cmd = cmd.clone();
                    self.spawn_commander(slf, slot, &cmd, outs);
                }
            }
        } else if h == cached_header!(P1B_HEADER) {
            let (acceptor, rest) = msg.body.unpair();
            let (b, accepted) = rest.unpair();
            let b = Ballot::from_value(b);
            if b == self.ballot(slf) {
                if let Some((mut waitfor, mut pvals)) = self.scout.take() {
                    for (slot, bc) in vmap::iter(accepted) {
                        let (pb, cmd) = bc.unpair();
                        let pb = Ballot::from_value(pb);
                        let slot = slot.int();
                        if pvals.get(&slot).map(|(eb, _)| pb > *eb).unwrap_or(true) {
                            pvals.insert(slot, (pb, cmd.clone()));
                        }
                    }
                    waitfor.remove(&acceptor.loc());
                    let heard = self.config.acceptors.len() - waitfor.len();
                    if heard >= self.majority() {
                        self.active = true;
                        for (slot, (_, cmd)) in &pvals {
                            self.proposals.insert(*slot, cmd.clone());
                        }
                        let proposals: Vec<(i64, Value)> = self
                            .proposals
                            .iter()
                            .map(|(s, c)| (*s, c.clone()))
                            .collect();
                        for (slot, cmd) in proposals {
                            self.spawn_commander(slf, slot, &cmd, outs);
                        }
                    } else {
                        self.scout = Some((waitfor, pvals));
                    }
                }
            } else if b > self.ballot(slf) {
                self.preempt(slf, b, outs);
            }
        } else if h == cached_header!(P2B_HEADER) {
            let (acceptor, rest) = msg.body.unpair();
            let (b, slot) = rest.unpair();
            let b = Ballot::from_value(b);
            let slot = slot.int();
            if b == self.ballot(slf) {
                if let Some(mut waitfor) = self.commanders.remove(&slot) {
                    waitfor.remove(&acceptor.loc());
                    let heard = self.config.acceptors.len() - waitfor.len();
                    if heard >= self.majority() {
                        let cmd = self
                            .proposals
                            .get(&slot)
                            .expect("commander implies proposal");
                        for r in &self.config.replicas {
                            outs.push(SendInstr::now(
                                *r,
                                Msg::new(
                                    cached_header!(DECISION_HEADER),
                                    Value::pair(Value::Int(slot), cmd.clone()),
                                ),
                            ));
                        }
                    } else {
                        self.commanders.insert(slot, waitfor);
                    }
                }
            } else if b > self.ballot(slf) {
                self.preempt(slf, b, outs);
            }
        }
    }
    fn clone_box(&self) -> Box<dyn Process> {
        Box::new(self.clone())
    }
    fn digest(&self, hasher: &mut dyn Hasher) {
        let mut h = HasherAdapter(hasher);
        (self.round, self.active).hash(&mut h);
        self.proposals.hash(&mut h);
        if let Some((w, p)) = &self.scout {
            w.hash(&mut h);
            p.hash(&mut h);
        }
        self.commanders.hash(&mut h);
    }
}

// ---------------------------------------------------------------------------
// Replica
// ---------------------------------------------------------------------------

/// A native Synod replica.
#[derive(Clone, Debug)]
pub struct HandReplica {
    config: SynodConfig,
    slot_in: i64,
    slot_out: i64,
    proposals: BTreeMap<i64, Value>,
    decisions: BTreeMap<i64, Value>,
    /// The slots of `decisions` by command hash, so the never-re-propose
    /// check costs one lookup instead of a walk over every decision.
    /// Derived from `decisions`, hence left out of the digest.
    decided: FxHashMap<u64, Vec<i64>>,
}

impl HandReplica {
    /// Creates a replica for the given deployment.
    pub fn new(config: SynodConfig) -> HandReplica {
        HandReplica {
            config,
            slot_in: 0,
            slot_out: 0,
            proposals: BTreeMap::new(),
            decisions: BTreeMap::new(),
            decided: FxHashMap::default(),
        }
    }

    /// Whether `cmd` was decided in some slot (hash lookup, then equality
    /// against the colliding slots' commands).
    fn is_decided(&self, cmd: &Value) -> bool {
        self.decided
            .get(&fxhash(cmd))
            .is_some_and(|slots| slots.iter().any(|s| self.decisions.get(s) == Some(cmd)))
    }

    fn propose(&mut self, cmd: &Value, outs: &mut Vec<SendInstr>) {
        if self.is_decided(cmd) {
            return;
        }
        while self.proposals.contains_key(&self.slot_in)
            || self.decisions.contains_key(&self.slot_in)
        {
            self.slot_in += 1;
        }
        self.proposals.insert(self.slot_in, cmd.clone());
        for l in &self.config.leaders {
            outs.push(SendInstr::now(
                *l,
                Msg::new(
                    cached_header!(PROPOSE_HEADER),
                    Value::pair(Value::Int(self.slot_in), cmd.clone()),
                ),
            ));
        }
    }
}

impl Process for HandReplica {
    fn step_into(&mut self, _ctx: &Ctx, msg: &Msg, out: &mut Vec<SendInstr>) {
        let h = msg.header;
        if h == cached_header!(REQUEST_HEADER) {
            let outstanding = self.proposals.values().any(|c| c == &msg.body);
            if !outstanding {
                let cmd = msg.body.clone();
                self.propose(&cmd, out);
            }
        } else if h == cached_header!(DECISION_HEADER) {
            let (slot, cmd) = msg.body.unpair();
            if let Entry::Vacant(e) = self.decisions.entry(slot.int()) {
                self.decided
                    .entry(fxhash(cmd))
                    .or_default()
                    .push(slot.int());
                e.insert(cmd.clone());
            }
            while let Some(decided) = self.decisions.get(&self.slot_out).cloned() {
                if let Some(ours) = self.proposals.remove(&self.slot_out) {
                    if ours != decided {
                        self.propose(&ours, out);
                    }
                }
                for learner in &self.config.learners {
                    out.push(SendInstr::now(
                        *learner,
                        Msg::new(
                            cached_header!(DECIDE_HEADER),
                            decide_body(self.slot_out, &decided),
                        ),
                    ));
                }
                self.slot_out += 1;
            }
        }
    }
    fn clone_box(&self) -> Box<dyn Process> {
        Box::new(self.clone())
    }
    fn digest(&self, hasher: &mut dyn Hasher) {
        let mut h = HasherAdapter(hasher);
        (self.slot_in, self.slot_out).hash(&mut h);
        self.proposals.hash(&mut h);
        self.decisions.hash(&mut h);
    }
}

/// Convenience: build the full set of native processes for a deployment,
/// in the location order `replicas ++ leaders ++ acceptors`.
pub fn deployment(config: &SynodConfig) -> Vec<(Loc, Box<dyn Process>)> {
    let mut procs: Vec<(Loc, Box<dyn Process>)> = Vec::new();
    for r in &config.replicas {
        procs.push((*r, Box::new(HandReplica::new(config.clone()))));
    }
    for l in &config.leaders {
        procs.push((*l, Box::new(HandLeader::new(config.clone()))));
    }
    for a in &config.acceptors {
        procs.push((*a, Box::new(HandAcceptor::new())));
    }
    procs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_decide;
    use crate::synod::{request_msg, start_msg};
    use std::collections::VecDeque;

    fn config() -> SynodConfig {
        SynodConfig {
            replicas: vec![Loc::new(0)],
            leaders: vec![Loc::new(1)],
            acceptors: vec![Loc::new(2), Loc::new(3), Loc::new(4)],
            learners: vec![Loc::new(100)],
        }
    }

    fn run(
        mut procs: Vec<(Loc, Box<dyn Process>)>,
        injections: Vec<(Loc, Msg)>,
        learner: Loc,
    ) -> Vec<(i64, Value)> {
        let mut queue: VecDeque<(Loc, Msg)> = injections.into();
        let mut decisions = Vec::new();
        let mut steps = 0;
        while let Some((dest, msg)) = queue.pop_front() {
            steps += 1;
            assert!(steps < 100_000);
            if dest == learner {
                if let Some(d) = parse_decide(&msg) {
                    decisions.push(d);
                }
                continue;
            }
            if let Some((_, p)) = procs.iter_mut().find(|(l, _)| *l == dest) {
                for o in p.step(&Ctx::at(dest), &msg) {
                    queue.push_back((o.dest, o.msg));
                }
            }
        }
        decisions
    }

    #[test]
    fn handcoded_decides_in_order() {
        let cfg = config();
        let mut inj = vec![(cfg.leaders[0], start_msg())];
        for i in 0..5 {
            inj.push((cfg.replicas[0], request_msg(Value::Int(i))));
        }
        let decisions = run(deployment(&cfg), inj, Loc::new(100));
        let slots: Vec<i64> = decisions.iter().map(|(s, _)| *s).collect();
        assert_eq!(slots, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn decided_commands_are_never_reproposed() {
        let cfg = config();
        let mut r = HandReplica::new(cfg.clone());
        let ctx = Ctx::at(cfg.replicas[0]);
        let decision = |slot: i64, cmd: Value| {
            Msg::new(
                cached_header!(DECISION_HEADER),
                Value::pair(Value::Int(slot), cmd),
            )
        };
        // Slots 0 and 1 decided, out of order, without our proposals.
        r.step(&ctx, &decision(1, Value::str("b")));
        r.step(&ctx, &decision(0, Value::str("a")));
        for cmd in ["a", "b"] {
            let out = r.step(&ctx, &request_msg(Value::str(cmd)));
            assert!(out.is_empty(), "{cmd} was decided but re-proposed");
        }
        // A fresh command goes to the next free slot.
        let out = r.step(&ctx, &request_msg(Value::str("c")));
        assert_eq!(out.len(), cfg.leaders.len());
        assert_eq!(out[0].msg.body.unpair().0, &Value::Int(2));
    }

    /// Wire compatibility: spec-generated acceptors under a hand-coded
    /// leader and replica.
    #[test]
    fn interoperates_with_spec_generated_acceptors() {
        use shadowdb_eventml::InterpretedProcess;
        let cfg = config();
        let mut procs: Vec<(Loc, Box<dyn Process>)> = vec![
            (cfg.replicas[0], Box::new(HandReplica::new(cfg.clone()))),
            (cfg.leaders[0], Box::new(HandLeader::new(cfg.clone()))),
        ];
        for a in &cfg.acceptors {
            procs.push((
                *a,
                Box::new(InterpretedProcess::compile(&crate::synod::acceptor_class(
                    &cfg,
                ))),
            ));
        }
        let inj = vec![
            (cfg.leaders[0], start_msg()),
            (cfg.replicas[0], request_msg(Value::str("mixed"))),
        ];
        let decisions = run(procs, inj, Loc::new(100));
        assert_eq!(decisions, vec![(0, Value::str("mixed"))]);
    }

    /// And the other direction: hand-coded acceptors under spec-generated
    /// leader and replica.
    #[test]
    fn spec_roles_accept_handcoded_acceptors() {
        use shadowdb_eventml::InterpretedProcess;
        let cfg = config();
        let mut procs: Vec<(Loc, Box<dyn Process>)> = vec![
            (
                cfg.replicas[0],
                Box::new(InterpretedProcess::compile(&crate::synod::replica_class(
                    &cfg,
                ))),
            ),
            (
                cfg.leaders[0],
                Box::new(InterpretedProcess::compile(&crate::synod::leader_class(
                    &cfg,
                ))),
            ),
        ];
        for a in &cfg.acceptors {
            procs.push((*a, Box::new(HandAcceptor::new())));
        }
        let inj = vec![
            (cfg.leaders[0], start_msg()),
            (cfg.replicas[0], request_msg(Value::str("mixed2"))),
        ];
        let decisions = run(procs, inj, Loc::new(100));
        assert_eq!(decisions, vec![(0, Value::str("mixed2"))]);
    }
}
