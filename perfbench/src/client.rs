//! Logical clients and the dispatch queue that feeds them.
//!
//! A logical client is a location that keeps `DbClient`'s contract: one
//! outstanding transaction, resend with jittered exponential backoff on
//! timeout, and `StaleConfig` redirects under PBR. Replicas deduplicate by
//! `(client, cseq)` high-water, so a client may never have two
//! transactions in flight. Unlike `DbClient`, it does not run a fixed
//! script: jobs come from a [`Dispatch`] queue shared with the generator.
//! An arriving job goes to an idle client (woken with one message) or waits
//! in the queue; a client that finishes takes the queue head itself. A job
//! carries the instant it was *due*, so latency includes any time it
//! queued.

use parking_lot::Mutex;
use shadowdb::client::Submission;
use shadowdb::msgs::{parse_reply, parse_stale_config, submit_msg, StaleConfig, TxnEnvelope};
use shadowdb_eventml::process::HasherAdapter;
use shadowdb_eventml::{Ctx, Msg, Process, SendInstr, Value};
use shadowdb_loe::Loc;
use shadowdb_runtime::fault::mix64;
use shadowdb_sqldb::SqlValue;
use shadowdb_tob::broadcast_msg;
use shadowdb_workloads::TxnRequest;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WAKE_HEADER: &str = "bench/wake";
const TIMEOUT_HEADER: &str = "bench/timeout";
/// Backoff ceiling as a multiple of the base timeout, as in `DbClient`.
const BACKOFF_CAP_MULT: u32 = 8;

/// Where client timestamps come from: the wall clock (tcpnet) or the
/// simulator's virtual clock. Both read as nanoseconds since an origin.
#[derive(Clone, Copy, Debug)]
pub enum Clock {
    /// Nanoseconds since this instant.
    Wall(Instant),
    /// The step context's virtual time.
    Virtual,
}

impl Clock {
    fn now_ns(&self, ctx: &Ctx) -> u64 {
        match self {
            Clock::Wall(origin) => origin.elapsed().as_nanos() as u64,
            Clock::Virtual => ctx.now.as_micros() * 1_000,
        }
    }
}

/// One transaction to run, stamped with when it was due.
#[derive(Clone, Debug)]
pub struct Job {
    /// The transaction.
    pub txn: TxnRequest,
    /// When it was due to be sent, in clock nanoseconds.
    pub due_ns: u64,
}

/// One answered transaction.
#[derive(Clone, Debug)]
pub struct Record {
    /// The transaction.
    pub txn: TxnRequest,
    /// When it was due (clock nanoseconds).
    pub due_ns: u64,
    /// When its first submission left the client.
    pub sent_ns: u64,
    /// When the first answer arrived.
    pub answered_ns: u64,
    /// Whether it committed.
    pub committed: bool,
    /// The answer's result values.
    pub result: Vec<SqlValue>,
}

impl Record {
    /// Due-to-answer latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.answered_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }
}

/// Produces the next job of a closed loop from the current clock reading.
pub type JobSource = Box<dyn FnMut(u64) -> Job + Send>;

struct State {
    pending: VecDeque<Job>,
    idle: Vec<usize>,
    parked: Vec<usize>,
    handoff: Vec<Option<Job>>,
    closed_loop: Option<JobSource>,
    records: Vec<Record>,
    dispatched: u64,
    resends: u64,
}

/// The queue between the generator and the logical clients.
pub struct Dispatch {
    state: Mutex<State>,
    clients: Mutex<Vec<Loc>>,
    clock: Clock,
}

impl Dispatch {
    /// An empty dispatch for `pool` clients, all idle.
    pub fn new(pool: usize, clock: Clock) -> Arc<Dispatch> {
        Arc::new(Dispatch {
            state: Mutex::new(State {
                pending: VecDeque::new(),
                idle: (0..pool).rev().collect(),
                parked: Vec::new(),
                handoff: vec![None; pool],
                closed_loop: None,
                records: Vec::new(),
                dispatched: 0,
                resends: 0,
            }),
            clients: Mutex::new(Vec::with_capacity(pool)),
            clock,
        })
    }

    fn register(&self, loc: Loc) -> usize {
        let mut c = self.clients.lock();
        c.push(loc);
        c.len() - 1
    }

    /// Offers an arriving job. Returns the client to wake, if one was idle;
    /// otherwise the job waits in the queue.
    pub fn arrive(&self, job: Job) -> Option<Loc> {
        let mut s = self.state.lock();
        s.dispatched += 1;
        match s.idle.pop() {
            Some(i) => {
                s.handoff[i] = Some(job);
                drop(s);
                Some(self.clients.lock()[i])
            }
            None => {
                s.pending.push_back(job);
                None
            }
        }
    }

    /// Keeps clients `active..` out of open-loop dispatch until a closed
    /// loop starts, so the open loop runs with a pool of `active`.
    pub fn park_beyond(&self, active: usize) {
        let mut s = self.state.lock();
        let (keep, park): (Vec<usize>, Vec<usize>) = s.idle.iter().partition(|&&i| i < active);
        s.idle = keep;
        s.parked = park;
    }

    /// Switches to a closed loop of `clients` clients: each takes a fresh
    /// job from `source` and takes another whenever it finishes. Call with
    /// nothing in flight. Returns the clients to wake.
    pub fn start_closed_loop(
        &self,
        mut source: JobSource,
        now_ns: u64,
        clients: usize,
    ) -> Vec<Loc> {
        let mut s = self.state.lock();
        let parked = std::mem::take(&mut s.parked);
        s.idle.extend(parked);
        s.idle.sort_unstable_by(|a, b| b.cmp(a));
        let mut woken = Vec::new();
        while woken.len() < clients {
            let Some(i) = s.idle.pop() else { break };
            s.handoff[i] = Some(source(now_ns));
            s.dispatched += 1;
            woken.push(i);
        }
        s.closed_loop = Some(source);
        drop(s);
        let locs = self.clients.lock();
        woken.into_iter().map(|i| locs[i]).collect()
    }

    /// Ends the closed loop: clients go idle as their transactions finish.
    pub fn stop_closed_loop(&self) {
        self.state.lock().closed_loop = None;
    }

    /// Transactions handed out or queued but not yet answered.
    pub fn in_flight(&self) -> u64 {
        let s = self.state.lock();
        s.dispatched - s.records.len() as u64
    }

    /// Transactions dispatched so far.
    pub fn dispatched(&self) -> u64 {
        self.state.lock().dispatched
    }

    /// Answered transactions so far.
    pub fn answered(&self) -> usize {
        self.state.lock().records.len()
    }

    /// Timeout resends so far.
    pub fn resends(&self) -> u64 {
        self.state.lock().resends
    }

    /// Calls `f` with the records answered so far, without copying them.
    pub fn with_records<T>(&self, f: impl FnOnce(&[Record]) -> T) -> T {
        f(&self.state.lock().records)
    }

    fn take_handoff(&self, i: usize) -> Option<Job> {
        self.state.lock().handoff[i].take()
    }

    /// Files `record` for client `i` and returns its next job, or marks
    /// the client idle.
    fn complete(&self, i: usize, record: Record) -> Option<Job> {
        let mut s = self.state.lock();
        let now = record.answered_ns;
        s.records.push(record);
        if let Some(job) = s.pending.pop_front() {
            return Some(job);
        }
        if let Some(source) = s.closed_loop.as_mut() {
            let job = source(now);
            s.dispatched += 1;
            return Some(job);
        }
        s.idle.push(i);
        None
    }
}

/// The message that wakes an idle client to take its handed-off job.
pub fn wake_msg() -> Msg {
    Msg::new(WAKE_HEADER, Value::Unit)
}

struct Outstanding {
    cseq: i64,
    job: Job,
    sent_ns: u64,
}

/// A logical client (see the module docs).
pub struct OpenClient {
    index: usize,
    dispatch: Arc<Dispatch>,
    submission: Submission,
    timeout: Duration,
    next_cseq: i64,
    outstanding: Option<Outstanding>,
    resend_round: u64,
    bcast_seq: i64,
    believed_primary: Option<Loc>,
    believed_reader: Option<Loc>,
    config_seq: i64,
}

impl OpenClient {
    /// A client of `dispatch` submitting through `submission` (PBR or SMR
    /// only) with the given base retransmission timeout. Call
    /// [`OpenClient::attach`] with its location once hosted.
    pub fn new(dispatch: Arc<Dispatch>, submission: Submission, timeout: Duration) -> OpenClient {
        assert!(
            !matches!(submission, Submission::Sharded { .. }),
            "the benchmark deploys unsharded groups"
        );
        OpenClient {
            index: usize::MAX,
            dispatch,
            submission,
            timeout,
            next_cseq: 0,
            outstanding: None,
            resend_round: 0,
            bcast_seq: 0,
            believed_primary: None,
            believed_reader: None,
            config_seq: -1,
        }
    }

    /// Hosts the client in `add` (which returns its location) and joins it
    /// to the dispatch pool.
    pub fn attach(mut self, add: impl FnOnce(Box<dyn Process>) -> Loc) -> Loc {
        let dispatch = self.dispatch.clone();
        let index = dispatch.clients.lock().len();
        self.index = index;
        let loc = add(Box::new(self));
        assert_eq!(dispatch.register(loc), index);
        loc
    }

    /// `DbClient`'s backoff: doubling per round up to the cap, times a
    /// deterministic jitter in `[0.75, 1.25)`.
    fn retry_delay(&self, slf: Loc, cseq: i64) -> Duration {
        let round = self.resend_round.min(16) as u32;
        let mult = (1u32 << round).min(BACKOFF_CAP_MULT);
        let h = mix64(mix64(u64::from(slf.index()) ^ ((cseq as u64) << 24)) ^ self.resend_round);
        let frac = (h >> 11) as f64 / (1u64 << 53) as f64;
        self.timeout.saturating_mul(mult).mul_f64(0.75 + 0.5 * frac)
    }

    fn start(&mut self, ctx: &Ctx, job: Job, out: &mut Vec<SendInstr>) {
        let cseq = self.next_cseq;
        self.next_cseq += 1;
        self.resend_round = 0;
        let sent_ns = self.dispatch.clock.now_ns(ctx);
        self.outstanding = Some(Outstanding { cseq, job, sent_ns });
        self.submit(ctx, false, out);
    }

    fn submit(&mut self, ctx: &Ctx, resend: bool, out: &mut Vec<SendInstr>) {
        let cseq = self.send_submits(ctx, resend, out);
        out.push(SendInstr::after(
            self.retry_delay(ctx.slf, cseq),
            ctx.slf,
            Msg::new(TIMEOUT_HEADER, Value::Int(cseq)),
        ));
    }

    fn send_submits(&mut self, ctx: &Ctx, resend: bool, out: &mut Vec<SendInstr>) -> i64 {
        let o = self
            .outstanding
            .as_ref()
            .expect("a transaction is outstanding");
        let env = TxnEnvelope::new(ctx.slf, o.cseq, o.job.txn.clone());
        match &self.submission {
            Submission::Pbr { replicas } => {
                if resend {
                    self.believed_primary = None;
                    out.extend(
                        replicas
                            .iter()
                            .map(|r| SendInstr::now(*r, submit_msg(&env))),
                    );
                } else {
                    let target = self.believed_primary.unwrap_or(replicas[0]);
                    out.push(SendInstr::now(target, submit_msg(&env)));
                }
            }
            Submission::Smr { servers, replicas } => {
                if !resend && env.read_only && !replicas.is_empty() {
                    let target = self.believed_reader.unwrap_or(replicas[0]);
                    out.push(SendInstr::now(target, submit_msg(&env)));
                } else {
                    if resend {
                        self.believed_reader = None;
                    }
                    let server = servers[self.resend_round as usize % servers.len()];
                    let msgid = self.bcast_seq;
                    self.bcast_seq += 1;
                    out.push(SendInstr::now(
                        server,
                        broadcast_msg(ctx.slf, msgid, env.to_value()),
                    ));
                }
            }
            Submission::Sharded { .. } => unreachable!("rejected in new"),
        }
        env.cseq
    }

    /// `DbClient`'s redirect: adopt a newer reported membership, chase its
    /// primary, and resubmit without arming a second timer chain.
    fn on_stale_config(&mut self, ctx: &Ctx, st: StaleConfig, out: &mut Vec<SendInstr>) {
        let Submission::Pbr { replicas } = &mut self.submission else {
            return;
        };
        let adopted = st.config.seq > self.config_seq;
        if adopted {
            let mut members = st.config.members.clone();
            members.extend(replicas.iter().filter(|r| !st.config.members.contains(r)));
            *replicas = members;
            self.config_seq = st.config.seq;
        }
        let primary = st.config.primary();
        let retarget = self.believed_primary != Some(primary);
        self.believed_primary = Some(primary);
        let ours = self.outstanding.as_ref().map(|o| o.cseq) == Some(st.cseq);
        if (adopted || retarget) && ours {
            self.send_submits(ctx, false, out);
        }
    }
}

impl Process for OpenClient {
    fn step_into(&mut self, ctx: &Ctx, msg: &Msg, out: &mut Vec<SendInstr>) {
        match msg.header.name() {
            WAKE_HEADER => {
                if self.outstanding.is_none() {
                    if let Some(job) = self.dispatch.take_handoff(self.index) {
                        self.start(ctx, job, out);
                    }
                }
            }
            TIMEOUT_HEADER => {
                let cseq = msg.body.as_int();
                if cseq.is_some() && self.outstanding.as_ref().map(|o| o.cseq) == cseq {
                    self.resend_round += 1;
                    self.dispatch.state.lock().resends += 1;
                    self.submit(ctx, true, out);
                }
            }
            _ => {
                if let Some(st) = parse_stale_config(msg) {
                    self.on_stale_config(ctx, st, out);
                    return;
                }
                let Some(reply) = parse_reply(msg) else {
                    return;
                };
                match self.submission {
                    Submission::Pbr { .. } => self.believed_primary = Some(reply.from),
                    _ => self.believed_reader = Some(reply.from),
                }
                if self.outstanding.as_ref().map(|o| o.cseq) != Some(reply.cseq) {
                    return; // a duplicate answer
                }
                let o = self.outstanding.take().expect("checked");
                let record = Record {
                    txn: o.job.txn,
                    due_ns: o.job.due_ns,
                    sent_ns: o.sent_ns,
                    answered_ns: self.dispatch.clock.now_ns(ctx),
                    committed: reply.committed,
                    result: reply.results,
                };
                if let Some(next) = self.dispatch.complete(self.index, record) {
                    self.start(ctx, next, out);
                }
            }
        }
    }

    fn clone_box(&self) -> Box<dyn Process> {
        Box::new(OpenClient {
            index: self.index,
            dispatch: self.dispatch.clone(),
            submission: self.submission.clone(),
            timeout: self.timeout,
            next_cseq: self.next_cseq,
            outstanding: self.outstanding.as_ref().map(|o| Outstanding {
                cseq: o.cseq,
                job: o.job.clone(),
                sent_ns: o.sent_ns,
            }),
            resend_round: self.resend_round,
            bcast_seq: self.bcast_seq,
            believed_primary: self.believed_primary,
            believed_reader: self.believed_reader,
            config_seq: self.config_seq,
        })
    }

    fn digest(&self, hasher: &mut dyn Hasher) {
        let mut h = HasherAdapter(hasher);
        (
            self.index,
            self.next_cseq,
            self.resend_round,
            self.bcast_seq,
        )
            .hash(&mut h);
    }
}
