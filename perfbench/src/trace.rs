//! The benchmark's runtime: tcpnet, optionally wrapped for tracing.
//!
//! [`BenchNet`] implements [`Runtime`] by delegating to a [`TcpNet`].
//! When built traced, every hosted [`Process`] is wrapped so that each
//! `step_into` records a span (location, header, start, end) and every
//! emitted message is recorded with its destination, encoded size and a
//! key over `(destination, encoded bytes)`. The analysis matches each
//! delivery to its emission on that key in FIFO order: the emitting step
//! is the delivery's causal parent, and the gap from emission to the
//! receiving step's start is the message's transit time (socket plus
//! shard queue). Spans stay in memory until the analysis reads them.

use crate::stats::Histogram;
use parking_lot::Mutex;
use shadowdb_eventml::codec::encode_msg;
use shadowdb_eventml::{Ctx, FxHasher, Header, Msg, Process, SendInstr};
use shadowdb_loe::{Loc, VTime};
use shadowdb_runtime::{PortRx, Runtime, StorageMode};
use shadowdb_tcpnet::TcpNet;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::Hasher;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Messages kept per node for the codec timing.
const SAMPLE_PER_NODE: usize = 2_000;

/// What a location is, from the deployment layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Role {
    /// A benchmark logical client.
    Client,
    /// A database replica (`core::pbr` / `core::smr`).
    Replica,
    /// A TOB server.
    TobServer,
    /// A Paxos replica, leader or acceptor.
    Consensus,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Node-to-node over a socket.
    Net,
    /// A zero-delay self-send (host inbox).
    Local,
    /// A delayed self-send (timer heap).
    Timer,
}

struct Span {
    start: u64,
    end: u64,
    key: u64,
}

struct Emit {
    at: u64,
    key: u64,
    bytes: u32,
    kind: Kind,
    header: Header,
    /// For `px/decision` the slot, for `tob/deliver` the sequence number,
    /// for `px/p1a` a hash of the ballot.
    tag: Option<i64>,
}

#[derive(Default)]
struct NodeTrace {
    spans: Vec<Span>,
    emits: Vec<Emit>,
    sample: Vec<Msg>,
}

/// Where traced processes record.
pub struct Sink {
    on: AtomicBool,
    origin: Instant,
    nodes: Mutex<Vec<(Loc, Arc<Mutex<NodeTrace>>)>>,
}

impl Sink {
    fn ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Turns recording on or off; returns the instant of the switch.
    pub fn set(&self, on: bool) -> Instant {
        self.on.store(on, Ordering::SeqCst);
        Instant::now()
    }
}

fn key_of(dest: Loc, encoded: &[u8]) -> u64 {
    let mut h = FxHasher::new();
    h.write_u32(dest.index());
    h.write(encoded);
    h.finish()
}

fn tag_of(msg: &Msg) -> Option<i64> {
    match msg.header.name() {
        "px/decision" | "tob/deliver" => msg.body.fst().and_then(|v| v.as_int()),
        "px/p1a" => {
            let mut h = FxHasher::new();
            h.write(&encode_msg(msg));
            Some(h.finish() as i64)
        }
        _ => None,
    }
}

struct Traced {
    inner: Box<dyn Process>,
    node: Arc<Mutex<NodeTrace>>,
    sink: Arc<Sink>,
}

impl Process for Traced {
    fn step_into(&mut self, ctx: &Ctx, msg: &Msg, out: &mut Vec<SendInstr>) {
        if !self.sink.on.load(Ordering::Relaxed) {
            return self.inner.step_into(ctx, msg, out);
        }
        let before = out.len();
        let start = self.sink.ns();
        self.inner.step_into(ctx, msg, out);
        let end = self.sink.ns();
        let key = key_of(ctx.slf, &encode_msg(msg));
        let mut node = self.node.lock();
        node.spans.push(Span { start, end, key });
        for o in &out[before..] {
            let kind = if o.delay > Duration::ZERO {
                Kind::Timer
            } else if o.dest == ctx.slf {
                Kind::Local
            } else {
                Kind::Net
            };
            let encoded = encode_msg(&o.msg);
            node.emits.push(Emit {
                at: end,
                key: key_of(o.dest, &encoded),
                bytes: encoded.len() as u32,
                kind,
                header: o.msg.header,
                tag: tag_of(&o.msg),
            });
            if kind == Kind::Net && node.sample.len() < SAMPLE_PER_NODE {
                node.sample.push(o.msg.clone());
            }
        }
    }

    fn halted(&self) -> bool {
        self.inner.halted()
    }

    fn take_step_cost(&mut self) -> Duration {
        self.inner.take_step_cost()
    }

    fn clone_box(&self) -> Box<dyn Process> {
        Box::new(Traced {
            inner: self.inner.clone_box(),
            node: self.node.clone(),
            sink: self.sink.clone(),
        })
    }

    fn digest(&self, hasher: &mut dyn Hasher) {
        self.inner.digest(hasher)
    }
}

/// tcpnet, optionally tracing every hosted process.
pub struct BenchNet {
    /// The socket runtime.
    pub net: TcpNet,
    sink: Option<Arc<Sink>>,
}

impl BenchNet {
    /// A tcpnet with `shards` event loops, traced or not. Tracing starts
    /// switched off.
    pub fn spawn(shards: usize, seed: u64, traced: bool) -> BenchNet {
        BenchNet {
            net: TcpNet::builder().seeded(seed).shards(shards).spawn(),
            sink: traced.then(|| {
                Arc::new(Sink {
                    on: AtomicBool::new(false),
                    origin: Instant::now(),
                    nodes: Mutex::new(Vec::new()),
                })
            }),
        }
    }

    /// The trace sink (traced nets only).
    pub fn sink(&self) -> Option<&Arc<Sink>> {
        self.sink.as_ref()
    }

    fn wrap(&self, loc: Loc, process: Box<dyn Process>) -> Box<dyn Process> {
        match &self.sink {
            None => process,
            Some(sink) => {
                let node = Arc::new(Mutex::new(NodeTrace::default()));
                sink.nodes.lock().push((loc, node.clone()));
                Box::new(Traced {
                    inner: process,
                    node,
                    sink: sink.clone(),
                })
            }
        }
    }

    /// Stops every thread of the runtime and waits for them.
    pub fn shutdown(self) {
        self.net.shutdown();
    }
}

impl Runtime for BenchNet {
    fn add_node(&mut self, process: Box<dyn Process>) -> Loc {
        let loc = Loc::new(self.net.node_count());
        let process = self.wrap(loc, process);
        let got = self.net.add_node(process);
        assert_eq!(got, loc, "locations are allocated in order");
        got
    }

    fn node_count(&self) -> u32 {
        self.net.node_count()
    }

    fn now(&self) -> VTime {
        self.net.now()
    }

    fn send_at(&mut self, at: VTime, dest: Loc, msg: Msg) {
        self.net.send_at(at, dest, msg);
    }

    fn crash_at(&mut self, at: VTime, loc: Loc) {
        self.net.crash_at(at, loc);
    }

    fn restart_at(&mut self, at: VTime, loc: Loc, process: Box<dyn Process>) {
        let process = self.wrap(loc, process);
        self.net.restart_at(at, loc, process);
    }

    fn port(&mut self) -> (Loc, PortRx) {
        Runtime::port(&mut self.net)
    }

    fn run_for(&mut self, duration: Duration) {
        std::thread::sleep(duration);
    }

    fn storage_mode(&self) -> StorageMode {
        Runtime::storage_mode(&self.net)
    }
}

/// Per-role totals from the traced interval.
#[derive(Default)]
pub struct RoleTotals {
    /// Steps taken.
    pub steps: u64,
    /// Time inside `step_into`, nanoseconds.
    pub busy_ns: u64,
    /// Node-to-node messages emitted.
    pub net_msgs: u64,
    /// Their encoded bytes.
    pub net_bytes: u64,
    /// Step durations, nanoseconds.
    pub step_ns: Histogram,
}

/// What the traced interval recorded.
#[derive(Default)]
pub struct TraceReport {
    /// Totals per role.
    pub roles: HashMap<Role, RoleTotals>,
    /// Emission-to-step transit of node-to-node messages, nanoseconds.
    pub transit_ns: Histogram,
    /// Distinct Paxos ballots started (`px/p1a` bodies).
    pub ballots: u64,
    /// Distinct slots decided (`px/decision`).
    pub slots: u64,
    /// Distinct TOB sequence numbers delivered (`tob/deliver`).
    pub delivered: u64,
    /// A sample of the node-to-node messages, for codec timing.
    pub sample: Vec<Msg>,
}

impl TraceReport {
    /// The totals of `role` (zeros if it never stepped).
    pub fn role(&self, role: Role) -> &RoleTotals {
        &self.roles[&role]
    }
}

/// Analyses everything the sink recorded; `role_of` maps locations to
/// roles (unknown locations are skipped).
pub fn analyse(sink: &Sink, role_of: impl Fn(Loc) -> Option<Role>) -> TraceReport {
    let mut report = TraceReport::default();
    for role in [
        Role::Client,
        Role::Replica,
        Role::TobServer,
        Role::Consensus,
    ] {
        report.roles.insert(role, RoleTotals::default());
    }
    // Every emission and every step start, in time order; an emission
    // sorts before a step start at the same nanosecond.
    enum Ev {
        Emit { key: u64, kind: Kind },
        Step { key: u64 },
    }
    let mut events: Vec<(u64, u8, Ev)> = Vec::new();
    let (mut ballots, mut slots, mut delivered) = (HashSet::new(), HashSet::new(), HashSet::new());
    for (loc, node) in sink.nodes.lock().iter() {
        let node = node.lock();
        let Some(role) = role_of(*loc) else { continue };
        let totals = report.roles.get_mut(&role).expect("every role is present");
        let mut steps = Histogram::default();
        for s in &node.spans {
            steps.record(s.end.saturating_sub(s.start));
            events.push((s.start, 1, Ev::Step { key: s.key }));
        }
        totals.steps += steps.count();
        totals.busy_ns += steps.sum() as u64;
        totals.step_ns.merge(&steps);
        for e in &node.emits {
            if e.kind == Kind::Net {
                totals.net_msgs += 1;
                totals.net_bytes += u64::from(e.bytes);
            }
            match (e.header.name(), e.tag) {
                ("px/p1a", Some(t)) => drop(ballots.insert(t)),
                ("px/decision", Some(t)) => drop(slots.insert(t)),
                ("tob/deliver", Some(t)) => drop(delivered.insert(t)),
                _ => {}
            }
            events.push((
                e.at,
                0,
                Ev::Emit {
                    key: e.key,
                    kind: e.kind,
                },
            ));
        }
        report.sample.extend(node.sample.iter().cloned());
    }
    events.sort_unstable_by_key(|(t, order, _)| (*t, *order));
    let mut queues: HashMap<u64, VecDeque<(u64, Kind)>> = HashMap::new();
    for (t, _, ev) in events {
        match ev {
            Ev::Emit { key, kind } => queues.entry(key).or_default().push_back((t, kind)),
            Ev::Step { key } => {
                let parent = queues.get_mut(&key).and_then(|q| q.pop_front());
                if let Some((at, Kind::Net)) = parent {
                    report.transit_ns.record(t - at);
                }
            }
        }
    }
    report.ballots = ballots.len() as u64;
    report.slots = slots.len() as u64;
    report.delivered = delivered.len() as u64;
    report
}
