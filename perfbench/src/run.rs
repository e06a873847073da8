//! One benchmark run: set-up, the open-loop and closed-loop phases, the
//! failover cycles, output checks, and (traced) the per-layer numbers.

use crate::client::{wake_msg, Clock, Job, Record};
use crate::layers;
use crate::model;
use crate::schedule::{Mix, Poisson, TxnSource, ACCOUNTS};
use crate::stats::{median, quantile};
use crate::trace::{analyse, BenchNet, Role};
use crate::workload::{Deployed, Design, Workload};
use shadowdb::msgs::{config_query_msg, parse_config_reply};
use shadowdb::serializability::{check_bank_history_concurrent, Observation};
use shadowdb_loe::{Loc, VTime};
use shadowdb_runtime::Runtime;
use shadowdb_workloads::tpcc::TpccTxn;
use shadowdb_workloads::TxnRequest;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Deployments set up per run; `setup_s` is their median.
pub const SETUPS: usize = 15;
/// Clients of the closed loop that measures capacity.
pub const CAPACITY_POOL: usize = 16;
/// Open-loop warm-up before the measured window.
const WARM: Duration = Duration::from_millis(500);
/// Slice of the capacity window whose throughput is one sample.
const CAPACITY_SLICE_NS: u64 = 250_000_000;
/// Closed-loop warm-up before the capacity window.
const CAPACITY_WARM: Duration = Duration::from_millis(500);
/// How long a phase waits for its last answers.
const DRAIN: Duration = Duration::from_secs(10);
/// Failover: traffic before the crash, and after it.
const FAILOVER_WARM: Duration = Duration::from_millis(500);
const FAILOVER_AFTER: Duration = Duration::from_millis(2_000);
/// Failover: the post-recovery window starts this long after the first
/// commit following the crash, past the backlog the outage left.
const POST_RECOVERY_SKIP_NS: u64 = 200_000_000;
/// A generator later than this at its 99th percentile did not offer the
/// stated load: the run is invalid.
const MAX_GEN_LAG_P99_MS: f64 = 50.0;
/// Initial balance of every bank account (`workloads::bank::load`).
const INITIAL_BALANCE: i64 = 1_000;

/// What one invocation runs.
#[derive(Clone, Copy, Debug)]
pub struct Settings {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// tcpnet shard (event-loop thread) count.
    pub shards: usize,
    /// Fixed offered rate of the open loop, txn/s.
    pub rate: f64,
    /// Logical clients serving the open loop.
    pub pool: usize,
}

/// A metric as printed.
pub struct Metric {
    /// Name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one run.
pub struct Outcome {
    /// Every output check passed and the generator kept its schedule.
    pub correct: bool,
    /// Transactions dispatched.
    pub attempted: u64,
    /// Transactions without an acceptable answer.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
}

/// Whether an answer is acceptable: a commit, or the rollback TPC-C
/// prescribes for a NewOrder naming the invalid item 0.
pub fn ok_answer(r: &Record) -> bool {
    r.committed
        || matches!(&r.txn, TxnRequest::Tpcc(TpccTxn::NewOrder { lines, .. })
            if lines.iter().any(|l| l.item == 0))
}

/// Checks the answered history of a bank or kv run for strict
/// serializability. The checker's bounds and monotonicity constraints
/// relate only operations on one account, so it runs per account.
fn check_history(records: &[Record]) -> Result<(), String> {
    let mut by_account: HashMap<i64, Vec<Observation>> = HashMap::new();
    for r in records.iter().filter(|r| r.committed) {
        let account = match &r.txn {
            TxnRequest::BankDeposit { account, .. } | TxnRequest::BankRead { account } => *account,
            _ => continue,
        };
        by_account.entry(account).or_default().push(Observation {
            submitted: VTime::from_micros(r.sent_ns / 1_000),
            answered: VTime::from_micros(r.answered_ns.div_ceil(1_000)),
            txn: r.txn.clone(),
            result: r.result.clone(),
        });
    }
    for (account, obs) in by_account {
        check_bank_history_concurrent(&obs, INITIAL_BALANCE)
            .map_err(|v| format!("account {account}: {v}"))?;
    }
    Ok(())
}

/// Process CPU time (user + system), seconds.
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    // utime and stime (fields 14 and 15 of proc(5); the fields after the
    // command name start at field 3), in clock ticks of 1/100 s.
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// CPU time of every live thread of this process, in seconds, from the
/// scheduler's per-task accounting (nanosecond resolution).
fn thread_cpu_seconds() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    let ns: u64 = tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum();
    ns as f64 / 1e9
}

/// Polls `done` every millisecond until it holds or `timeout` passes.
fn wait_until(timeout: Duration, done: impl Fn() -> bool) -> bool {
    let t = Instant::now();
    while !done() {
        if t.elapsed() > timeout {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

/// A live deployment on tcpnet.
struct Live {
    net: BenchNet,
    dep: Deployed,
    origin: Instant,
}

impl Live {
    /// Deploys, loads and waits for the first committed answer. Returns
    /// the deployment and the CPU seconds that took, summed over threads.
    /// The set-up's few milliseconds of wall time mostly wait for thread
    /// wake-ups, which on a shared host vary twofold from minute to minute;
    /// its CPU time is the work a change could move into set-up.
    fn setup(s: &Settings, traced: bool, first: TxnRequest) -> (Live, f64) {
        let cpu0 = thread_cpu_seconds();
        let t0 = Instant::now();
        let mut net = BenchNet::spawn(s.shards, s.seed, traced);
        let origin = t0;
        let dep = s
            .workload
            .deploy(&mut net, s.pool.max(CAPACITY_POOL), Clock::Wall(origin));
        dep.dispatch.park_beyond(s.pool);
        let live = Live { net, dep, origin };
        live.arrive(first, live.now_ns());
        assert!(
            wait_until(DRAIN * 3, || live.dep.dispatch.answered() > 0),
            "no answer within {:?} of deployment",
            DRAIN * 3
        );
        // Threads started by the set-up count from zero; none has exited.
        let cpu = thread_cpu_seconds() - cpu0;
        (
            live,
            if cpu > 0.0 {
                cpu
            } else {
                t0.elapsed().as_secs_f64()
            },
        )
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn arrive(&self, txn: TxnRequest, due_ns: u64) {
        if let Some(c) = self.dep.dispatch.arrive(Job { txn, due_ns }) {
            self.net.net.send(c, wake_msg());
        }
    }

    fn drain(&self) -> bool {
        wait_until(DRAIN, || self.dep.dispatch.in_flight() == 0)
    }

    /// Closed-loop capacity: acceptable answers per second from
    /// [`CAPACITY_POOL`] clients over `span`, after a warm-up.
    fn capacity(&self, s: &Settings, seed: u64, span: Duration) -> f64 {
        let mut src = TxnSource::new(s.workload.mix, seed ^ 0xca9, CAPACITY_POOL, 1_001);
        let woken = self.dep.dispatch.start_closed_loop(
            Box::new(move |now| Job {
                txn: src.next_txn(),
                due_ns: now,
            }),
            self.now_ns(),
            CAPACITY_POOL,
        );
        for c in woken {
            self.net.net.send(c, wake_msg());
        }
        std::thread::sleep(CAPACITY_WARM);
        let t0 = Instant::now();
        std::thread::sleep(span);
        let t1 = Instant::now();
        self.dep.dispatch.stop_closed_loop();
        self.drain();
        // Throughput of each quarter-second slice; the median slice.
        let (a, b) = (self.ns_of(t0), self.ns_of(t1));
        let slices = ((b - a) / CAPACITY_SLICE_NS).max(1);
        let mut counts = vec![0u64; slices as usize];
        self.dep.dispatch.with_records(|rs| {
            for r in rs.iter().filter(|r| ok_answer(r) && r.answered_ns >= a) {
                if let Some(c) = counts.get_mut(((r.answered_ns - a) / CAPACITY_SLICE_NS) as usize)
                {
                    *c += 1;
                }
            }
        });
        let slice_s = (b - a) as f64 / slices as f64 / 1e9;
        let mut rates: Vec<f64> = counts.iter().map(|&c| c as f64 / slice_s).collect();
        median(&mut rates)
    }

    /// Bank and kv: reads every account back through the system, so the
    /// history check also covers every deposit's effect.
    fn read_back(&self) {
        for account in 0..ACCOUNTS as i64 {
            self.arrive(TxnRequest::BankRead { account }, self.now_ns());
        }
        self.drain();
    }

    /// Checks the answered history. Returns `(correct, attempted, failed)`.
    fn verdict(&self, mix: Mix) -> (bool, u64, u64) {
        let attempted = self.dep.dispatch.dispatched();
        let (ok, checked) = self.dep.dispatch.with_records(|rs| {
            let ok = rs.iter().filter(|r| ok_answer(r)).count() as u64;
            let checked = match mix {
                Mix::Tpcc => Ok(()),
                Mix::BankDeposits | Mix::YcsbB => check_history(rs),
            };
            (ok, checked)
        });
        if let Err(v) = &checked {
            eprintln!("perfbench: history check failed: {v}");
        }
        (checked.is_ok(), attempted, attempted - ok)
    }

    fn shutdown(self) {
        self.net.shutdown();
    }
}

/// The seeded open-loop generator: one thread, sleeping until each
/// arrival is due.
struct OpenLoop {
    schedule: Poisson,
    src: TxnSource,
    start: Instant,
    next: Instant,
    /// `(due, lag)` per arrival, nanoseconds.
    lags: Vec<(u64, u64)>,
}

impl OpenLoop {
    fn new(s: &Settings, seed: u64, start: Instant) -> OpenLoop {
        let mut schedule = Poisson::new(seed, s.rate);
        let first = schedule.next().expect("endless");
        OpenLoop {
            schedule,
            src: TxnSource::new(s.workload.mix, seed, s.pool, 1),
            start,
            next: start + first,
            lags: Vec::new(),
        }
    }

    /// Offers every arrival due before `end`, then sleeps until `end`.
    /// `tick` runs between arrivals.
    fn run_until(&mut self, live: &Live, end: Instant, tick: &mut dyn FnMut()) {
        while self.next < end {
            let now = Instant::now();
            if self.next > now {
                std::thread::sleep(self.next - now);
            }
            let lag = Instant::now().saturating_duration_since(self.next);
            let due = live.ns_of(self.next);
            self.lags.push((due, lag.as_nanos() as u64));
            live.arrive(self.src.next_txn(), due);
            self.next = self.start + self.schedule.next().expect("endless");
            tick();
        }
        let now = Instant::now();
        if end > now {
            std::thread::sleep(end - now);
        }
    }

    /// 99th-percentile lag (ms) of arrivals due in `[a, b)`.
    fn lag_p99_ms(&self, a: u64, b: u64) -> f64 {
        let mut v: Vec<f64> = self
            .lags
            .iter()
            .filter(|(due, _)| *due >= a && *due < b)
            .map(|(_, lag)| *lag as f64 / 1e6)
            .collect();
        quantile(&mut v, 0.99)
    }
}

/// Latencies (ms) of acceptable answers to transactions due in `[a, b)`,
/// in due order: all of them, and the ordered (non-read-only) ones.
fn latencies(live: &Live, a: u64, b: u64) -> (Vec<f64>, Vec<f64>) {
    let mut due: Vec<(u64, bool, f64)> = live.dep.dispatch.with_records(|rs| {
        rs.iter()
            .filter(|r| ok_answer(r) && r.due_ns >= a && r.due_ns < b)
            .map(|r| (r.due_ns, r.txn.is_read_only(), r.latency_ms()))
            .collect()
    });
    due.sort_unstable_by_key(|(d, _, _)| *d);
    (
        due.iter().map(|(_, _, l)| *l).collect(),
        due.iter()
            .filter(|(_, ro, _)| !ro)
            .map(|(_, _, l)| *l)
            .collect(),
    )
}

/// Samples per group in [`grouped_quantile`].
const GROUP: usize = 2_000;

/// The `q`-quantile of each consecutive group of [`GROUP`] samples (the
/// last group absorbs the remainder), and the median of those. A stall
/// of the shared host that lands in a few groups moves this less than it
/// moves the quantile of the whole sample.
fn grouped_quantile(samples: &[f64], q: f64) -> f64 {
    let groups = (samples.len() / GROUP).max(1);
    let size = samples.len() / groups;
    let mut per: Vec<f64> = (0..groups)
        .map(|g| {
            let end = if g + 1 == groups {
                samples.len()
            } else {
                (g + 1) * size
            };
            quantile(&mut samples[g * size..end].to_vec(), q)
        })
        .collect();
    median(&mut per)
}

/// Acceptable answers received in `[a, b)`.
fn answered_between(live: &Live, a: u64, b: u64) -> u64 {
    live.dep.dispatch.with_records(|rs| {
        rs.iter()
            .filter(|r| ok_answer(r) && r.answered_ns >= a && r.answered_ns < b)
            .count() as u64
    })
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// An open-loop window at the fixed rate: its bounds (ns) and the
/// process CPU seconds it took.
struct Window {
    a: u64,
    b: u64,
    cpu_s: f64,
}

fn measure_window(
    live: &Live,
    gen: &mut OpenLoop,
    span: Duration,
    tick: &mut dyn FnMut(),
) -> Window {
    let t0 = Instant::now();
    let c0 = cpu_seconds();
    gen.run_until(live, t0 + span, tick);
    let c1 = cpu_seconds();
    Window {
        a: live.ns_of(t0),
        b: live.now_ns(),
        cpu_s: c1 - c0,
    }
}

impl Window {
    fn cpu_us_per_txn(&self, live: &Live) -> f64 {
        self.cpu_s * 1e6 / answered_between(live, self.a, self.b).max(1) as f64
    }
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

/// Failover cycles per run: about one per measured second.
fn failover_cycles(seconds: f64) -> usize {
    (seconds.round() as usize).max(2)
}

/// One failover cycle's measurements.
struct Cycle {
    outage_ms: f64,
    /// Process CPU seconds from the crash to the end of the cycle's
    /// traffic, and the acceptable answers in that span.
    cpu_s: f64,
    answered: u64,
    post_ms: Vec<f64>,
    reconfig_ms: f64,
    lag_p99_ms: f64,
}

/// Runs traffic at the fixed rate, crashes the primary, and keeps the
/// traffic going through detection, reconfiguration and recovery.
/// `poll_config` also times when the new configuration becomes visible.
fn failover_cycle(live: &mut Live, s: &Settings, seed: u64, poll_config: bool) -> Cycle {
    let mut gen = OpenLoop::new(s, seed, Instant::now());
    gen.run_until(live, Instant::now() + FAILOVER_WARM, &mut || {});
    let primary = live.dep.replicas[0];
    let crash = Instant::now();
    let cpu0 = cpu_seconds();
    let now = live.net.net.now();
    live.net.net.crash_at(now, primary);
    let crash_ns = live.ns_of(crash);
    let (port, rx) = if poll_config {
        let (p, rx) = Runtime::port(&mut live.net);
        (Some(p), Some(rx))
    } else {
        (None, None)
    };
    let survivors: Vec<Loc> = live.dep.replicas[1..].to_vec();
    let mut reconfig: Option<Instant> = None;
    let mut last_poll = crash;
    let end = crash + FAILOVER_AFTER;
    {
        let live_ref: &Live = live;
        let mut tick = || {
            let (Some(port), Some(rx)) = (port, rx.as_ref()) else {
                return;
            };
            if reconfig.is_some() {
                return;
            }
            for m in rx.drain() {
                if let Some(rep) = parse_config_reply(&m) {
                    if rep.config.seq > 0 && !rep.config.contains(primary) {
                        reconfig = Some(Instant::now());
                    }
                }
            }
            if last_poll.elapsed() >= Duration::from_millis(5) {
                last_poll = Instant::now();
                for r in &survivors {
                    live_ref.net.net.send(*r, config_query_msg(port));
                }
            }
        };
        gen.run_until(live_ref, end, &mut tick);
    }
    let cpu_s = cpu_seconds() - cpu0;
    let end_ns = live.ns_of(end);
    live.drain();
    let resume_ns = live.dep.dispatch.with_records(|rs| {
        rs.iter()
            .filter(|r| ok_answer(r) && r.due_ns >= crash_ns)
            .map(|r| r.answered_ns)
            .min()
            .unwrap_or(end_ns)
    });
    let (post_ms, _) = latencies(live, resume_ns + POST_RECOVERY_SKIP_NS, end_ns);
    Cycle {
        outage_ms: (resume_ns - crash_ns) as f64 / 1e6,
        cpu_s,
        answered: answered_between(live, crash_ns, end_ns),
        post_ms,
        reconfig_ms: reconfig.map_or(0.0, |t| (t - crash).as_secs_f64() * 1e3),
        lag_p99_ms: gen.lag_p99_ms(0, end_ns),
    }
}

/// The end-to-end run (`--trace 0`).
pub fn end_to_end(s: &Settings) -> Outcome {
    let wl = s.workload;
    if wl.failover {
        return failover_end_to_end(s);
    }
    let mut first = TxnSource::new(wl.mix, s.seed ^ 0xf157, 1, 900);
    let mut setups = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        let (live, t) = Live::setup(s, false, first.next_txn());
        setups.push(t);
        if i + 1 < SETUPS {
            live.shutdown();
        } else {
            kept = Some(live);
        }
    }
    let live = kept.expect("at least one set-up");
    let mut gen = OpenLoop::new(s, s.seed, Instant::now());
    gen.run_until(&live, Instant::now() + WARM, &mut || {});
    let w = measure_window(&live, &mut gen, secs(s.seconds), &mut || {});
    let cpu_us_per_txn = w.cpu_us_per_txn(&live);
    live.drain();
    if wl.mix != Mix::Tpcc {
        live.read_back();
    }
    let (mut correct, attempted, failed) = live.verdict(wl.mix);
    correct &= on_schedule(gen.lag_p99_ms(w.a, w.b));
    let metrics = vec![
        metric("setup_s", median(&mut setups), "s"),
        metric("cpu_us_per_txn", cpu_us_per_txn, "us"),
    ];
    live.shutdown();
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
    }
}

/// Whether a generator with this lag p99 kept its schedule.
fn on_schedule(lag_p99_ms: f64) -> bool {
    if lag_p99_ms > MAX_GEN_LAG_P99_MS {
        eprintln!(
            "perfbench: generator fell behind schedule (lag p99 {lag_p99_ms:.1} ms): run invalid"
        );
    }
    lag_p99_ms <= MAX_GEN_LAG_P99_MS
}

fn failover_end_to_end(s: &Settings) -> Outcome {
    let mut first = TxnSource::new(s.workload.mix, s.seed ^ 0xf157, 1, 900);
    let mut setups = Vec::new();
    let (mut cpu_s, mut answered) = (0.0, 0);
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    for cycle in 0..failover_cycles(s.seconds) {
        let (mut live, t) = Live::setup(s, false, first.next_txn());
        setups.push(t);
        let c = failover_cycle(&mut live, s, s.seed.wrapping_add(cycle as u64), false);
        cpu_s += c.cpu_s;
        answered += c.answered;
        live.read_back();
        let (ok, a, f) = live.verdict(s.workload.mix);
        correct &= ok && on_schedule(c.lag_p99_ms);
        attempted += a;
        failed += f;
        live.shutdown();
    }
    Outcome {
        correct,
        attempted,
        failed,
        metrics: vec![
            metric("setup_s", median(&mut setups), "s"),
            metric("cpu_us_per_txn", cpu_s * 1e6 / answered.max(1) as f64, "us"),
        ],
    }
}

/// Accumulates bytes appended to the replicas' synced logs, across the
/// truncations snapshots make.
#[derive(Default)]
struct WalMeter {
    last: HashMap<usize, u64>,
    bytes: u64,
}

impl WalMeter {
    fn sample(&mut self, dep: &Deployed) {
        for (i, d) in dep.disks.iter().enumerate() {
            let now = d.synced_len() as u64;
            let last = self.last.insert(i, now).unwrap_or(now);
            self.bytes += if now >= last { now - last } else { now };
        }
    }
}

/// The traced run (`--trace 1`): the per-layer metrics.
pub fn traced(s: &Settings, scratch: &std::path::Path) -> Outcome {
    let wl = s.workload;
    let mut first = TxnSource::new(wl.mix, s.seed ^ 0xf157, 1, 900);
    let (mut live, _) = Live::setup(s, true, first.next_txn());
    let sink = live.net.sink().expect("traced").clone();
    let roles = role_map(&live.dep);

    // Untraced, then traced, at the fixed rate on the same deployment.
    let span = secs(s.seconds * if wl.failover { 0.2 } else { 0.3 });
    let mut gen = OpenLoop::new(s, s.seed, Instant::now());
    gen.run_until(&live, Instant::now() + WARM, &mut || {});
    let plain = measure_window(&live, &mut gen, span, &mut || {});
    let mut lag = gen.lag_p99_ms(plain.a, plain.b);
    let (plain_lat, plain_writes) = latencies(&live, plain.a, plain.b);
    let syncs0 = live.dep.wal_syncs();
    let mut meter = WalMeter::default();
    meter.sample(&live.dep);
    let on = sink.set(true);
    let (traced_w, cycle) = if wl.failover {
        let c = failover_cycle(&mut live, s, s.seed ^ 0xfa11, true);
        lag = lag.max(c.lag_p99_ms);
        (None, Some(c))
    } else {
        let dep_ref = &live.dep;
        let mut last = Instant::now();
        let mut tick = || {
            if last.elapsed() >= Duration::from_millis(5) {
                last = Instant::now();
                meter.sample(dep_ref);
            }
        };
        let w = measure_window(&live, &mut gen, span, &mut tick);
        lag = lag.max(gen.lag_p99_ms(w.a, w.b));
        (Some(w), None)
    };
    let off = sink.set(false);
    meter.sample(&live.dep);
    let syncs1 = live.dep.wal_syncs();
    live.drain();
    let (t_a, t_b) = (live.ns_of(on), live.ns_of(off));
    let committed = answered_between(&live, t_a, t_b).max(1) as f64;
    let capacity = if wl.failover {
        0.0
    } else {
        live.capacity(s, s.seed, secs(s.seconds * 0.2))
    };
    if wl.mix != Mix::Tpcc {
        live.read_back();
    }
    let (mut correct, attempted, failed) = live.verdict(wl.mix);
    correct &= on_schedule(lag);
    let resends = live.dep.dispatch.resends();
    let (answered, aborted) = live.dep.dispatch.with_records(|rs| {
        (
            rs.len() as f64,
            rs.iter().filter(|r| !r.committed).count() as f64,
        )
    });
    // Failover has no comparable traced window: its traced part holds
    // the crash, so no overhead is reported there.
    let overhead_pct = traced_w.as_ref().map_or(0.0, |w| {
        (w.cpu_us_per_txn(&live) / plain.cpu_us_per_txn(&live) - 1.0) * 100.0
    });
    let reconnects = live.net.net.link_stats().reconnects;
    let replicas = live.dep.replicas.len().max(1) as f64;
    let report = analyse(&sink, |l| roles.get(&l).copied());
    live.shutdown();

    let per = |x: f64| x / committed;
    let replica = report.role(Role::Replica);
    let tob = report.role(Role::TobServer);
    let consensus = report.role(Role::Consensus);
    let net_msgs: u64 = report.roles.values().map(|r| r.net_msgs).sum();
    let net_bytes: u64 = report.roles.values().map(|r| r.net_bytes).sum();
    let txns_per_slot = if report.slots == 0 {
        0.0
    } else {
        report.delivered as f64 / report.slots as f64
    };
    let (encode_ns, decode_ns) = layers::codec_ns(&report.sample);
    let group = match wl.design {
        Design::Pbr => 1,
        Design::Smr => txns_per_slot.round().max(1.0) as usize,
    };
    let (exec_us, read_us) = layers::sqldb_us(wl.mix, s.seed, group);
    let (wal_per_sync, wal_bytes, wal_p50, wal_p99) = if wl.wal {
        let syncs = (syncs1 - syncs0) as f64 / replicas;
        let per_sync = if syncs > 0.0 { committed / syncs } else { 0.0 };
        let (p50, p99) = layers::wal_commit_us(
            wl.mix,
            s.seed,
            per_sync.round().max(1.0) as usize,
            &scratch.join("wal"),
        );
        (per_sync, per(meter.bytes as f64 / replicas), p50, p99)
    } else {
        (0.0, 0.0, 0.0, 0.0)
    };
    // Latency at the fixed rate without tracing; after recovery on
    // failover.
    let (reconfig_ms, resume_ms, lat, writes) = match &cycle {
        Some(c) => (
            c.reconfig_ms,
            c.outage_ms,
            c.post_ms.clone(),
            c.post_ms.clone(),
        ),
        None => (0.0, 0.0, plain_lat, plain_writes),
    };
    let measured_p50 = grouped_quantile(&lat, 0.5);
    let prediction = model::predict(s);
    let p50_ratio = ratio(prediction.p50_ms, measured_p50);
    let capacity_ratio = ratio(prediction.capacity_tps, capacity);
    for (what, r) in [("p50", p50_ratio), ("capacity", capacity_ratio)] {
        if r > 0.0 && !(0.5..=2.0).contains(&r) {
            eprintln!(
                "perfbench: finding: simnet predicts {what} at {r:.2}x the measured value on {}",
                wl.name
            );
        }
    }
    let step_p99_us = replica.step_ns.quantile(0.99) / 1e3;
    let metrics = vec![
        metric(
            "core.replica.busy_us_per_txn",
            per(replica.busy_ns as f64 / 1e3),
            "us",
        ),
        metric(
            "core.replica.steps_per_txn",
            per(replica.steps as f64),
            "count",
        ),
        metric("core.replica.step_p99_us", step_p99_us, "us"),
        metric(
            "core.client.resends_per_ktxn",
            resends as f64 * 1e3 / answered.max(1.0),
            "count",
        ),
        metric("core.failover.reconfig_ms", reconfig_ms, "ms"),
        metric("core.failover.resume_ms", resume_ms, "ms"),
        metric("tob.busy_us_per_txn", per(tob.busy_ns as f64 / 1e3), "us"),
        metric("tob.txns_per_slot", txns_per_slot, "count"),
        metric(
            "consensus.busy_us_per_txn",
            per(consensus.busy_ns as f64 / 1e3),
            "us",
        ),
        metric(
            "consensus.msgs_per_txn",
            per(consensus.net_msgs as f64),
            "count",
        ),
        metric("consensus.ballots", report.ballots as f64, "count"),
        metric("tcpnet.msgs_per_txn", per(net_msgs as f64), "count"),
        metric("tcpnet.bytes_per_txn", per(net_bytes as f64), "bytes"),
        metric(
            "tcpnet.transit_p50_us",
            report.transit_ns.quantile(0.5) / 1e3,
            "us",
        ),
        metric(
            "tcpnet.transit_p99_us",
            report.transit_ns.quantile(0.99) / 1e3,
            "us",
        ),
        metric("tcpnet.reconnects", reconnects as f64, "count"),
        metric("eventml.encode_ns_per_msg", encode_ns, "ns"),
        metric("eventml.decode_ns_per_msg", decode_ns, "ns"),
        metric("sqldb.exec_us_per_txn", exec_us, "us"),
        metric("sqldb.read_us", read_us, "us"),
        metric("sqldb.abort_frac", aborted / answered.max(1.0), "ratio"),
        metric("wal.txns_per_sync", wal_per_sync, "count"),
        metric("wal.bytes_per_txn", wal_bytes, "bytes"),
        metric("wal.commit_p50_us", wal_p50, "us"),
        metric("wal.commit_p99_us", wal_p99, "us"),
        metric("e2e.p50_ms", measured_p50, "ms"),
        metric("e2e.p99_ms", grouped_quantile(&lat, 0.99), "ms"),
        metric("e2e.write_p50_ms", grouped_quantile(&writes, 0.5), "ms"),
        metric("e2e.capacity_tps", capacity, "txn/s"),
        metric("bench.gen_lag_p99_ms", lag, "ms"),
        metric("bench.trace_overhead_pct", overhead_pct, "%"),
        metric("simnet.p50_ratio", p50_ratio, "ratio"),
        metric("simnet.capacity_ratio", capacity_ratio, "ratio"),
        metric(
            "failed_frac",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
    ];
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
    }
}

fn ratio(predicted: f64, measured: f64) -> f64 {
    if predicted > 0.0 && measured > 0.0 {
        predicted / measured
    } else {
        0.0
    }
}

/// Every traced location's role, from the deployment layout.
fn role_map(dep: &Deployed) -> HashMap<Loc, Role> {
    let mut roles = HashMap::new();
    for (i, l) in dep.service_locs.iter().enumerate() {
        // Per machine: TOB server, then the Paxos replica, leader, acceptor.
        let role = if i % 4 == 0 {
            Role::TobServer
        } else {
            Role::Consensus
        };
        roles.insert(*l, role);
    }
    for r in &dep.replicas {
        roles.insert(*r, Role::Replica);
    }
    for c in &dep.clients {
        roles.insert(*c, Role::Client);
    }
    roles
}
