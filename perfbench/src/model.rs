//! The simulator's prediction for the same workload: the same
//! `DeployOptions`, the same logical clients and dispatch, the same seeded
//! schedule, run on `simnet` in virtual time with instant delivery (as
//! loopback has no injected delay) and the repository's CPU cost model.

use crate::client::{wake_msg, Clock, Dispatch, Job, Record};
use crate::run::{ok_answer, Settings, CAPACITY_POOL};
use crate::schedule::{Poisson, TxnSource};
use crate::stats::median;
use parking_lot::Mutex;
use shadowdb_eventml::{Ctx, Msg, Process, SendInstr, Value};
use shadowdb_loe::VTime;
use shadowdb_simnet::{NetworkConfig, SimBuilder, Simulation};
use std::collections::VecDeque;
use std::hash::Hasher;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Virtual time of the open-loop part; the first quarter is warm-up.
const HORIZON: Duration = Duration::from_secs(2);
/// Virtual time of the closed-loop capacity part, after 0.2 s of warm-up.
const CAPACITY_SPAN: Duration = Duration::from_secs(1);
/// Wall-clock budget for the whole prediction.
const WALL_BUDGET: Duration = Duration::from_secs(12);

/// Hands each arrival to the dispatch at its scheduled virtual instant.
struct Arrivals {
    dispatch: Arc<Dispatch>,
    jobs: Arc<Mutex<VecDeque<Job>>>,
}

impl Process for Arrivals {
    fn step_into(&mut self, _ctx: &Ctx, _msg: &Msg, out: &mut Vec<SendInstr>) {
        let Some(job) = self.jobs.lock().pop_front() else {
            return;
        };
        if let Some(c) = self.dispatch.arrive(job) {
            out.push(SendInstr::now(c, wake_msg()));
        }
    }

    fn clone_box(&self) -> Box<dyn Process> {
        Box::new(Arrivals {
            dispatch: self.dispatch.clone(),
            jobs: self.jobs.clone(),
        })
    }

    fn digest(&self, _hasher: &mut dyn Hasher) {}
}

/// The model's prediction.
pub struct Prediction {
    /// Median latency (ms) at the offered rate; for failover, after
    /// recovery.
    pub p50_ms: f64,
    /// Closed-loop committed txn/s (zero for failover, which measures
    /// none).
    pub capacity_tps: f64,
}

/// Runs the simulator until `until`, in slices, giving up on the wall
/// budget.
fn run_to(sim: &mut Simulation, until: VTime, started: Instant) {
    while sim.now() < until && started.elapsed() < WALL_BUDGET {
        let next = VTime::from_micros((sim.now().as_micros() + 50_000).min(until.as_micros()));
        sim.run_until(next);
    }
}

fn vt(ns: u64) -> VTime {
    VTime::from_micros(ns / 1_000)
}

/// Predicts the workload's `p50_ms` and `capacity_tps` on the simulator.
pub fn predict(s: &Settings) -> Prediction {
    let started = Instant::now();
    let wl = s.workload;
    let mut sim = SimBuilder::new(s.seed)
        .network(NetworkConfig::instant())
        .build();
    let dep = wl.deploy(&mut sim, s.pool.max(CAPACITY_POOL), Clock::Virtual);
    dep.dispatch.park_beyond(s.pool);
    let jobs = Arc::new(Mutex::new(VecDeque::new()));
    let arrivals = sim.add_node(Box::new(Arrivals {
        dispatch: dep.dispatch.clone(),
        jobs: jobs.clone(),
    }));
    let mut src = TxnSource::new(wl.mix, s.seed, s.pool, 1);
    let horizon_ns = HORIZON.as_nanos() as u64;
    for off in Poisson::new(s.seed, s.rate) {
        let due_ns = off.as_nanos() as u64 + 1_000_000;
        if due_ns >= horizon_ns {
            break;
        }
        jobs.lock().push_back(Job {
            txn: src.next_txn(),
            due_ns,
        });
        sim.send_at(vt(due_ns), arrivals, Msg::new("bench/arrive", Value::Unit));
    }
    let crash_ns = horizon_ns / 4;
    if wl.failover {
        sim.crash_at(vt(crash_ns), dep.replicas[0]);
    }
    run_to(&mut sim, vt(horizon_ns + 2_000_000_000), started);
    let mut lat: Vec<f64> = dep.dispatch.with_records(|rs| {
        let ok: Vec<&Record> = rs.iter().filter(|r| ok_answer(r)).collect();
        let from_ns = if wl.failover {
            let resume = ok
                .iter()
                .filter(|r| r.due_ns >= crash_ns)
                .map(|r| r.answered_ns)
                .min()
                .unwrap_or(horizon_ns);
            resume + 200_000_000
        } else {
            horizon_ns / 4
        };
        ok.iter()
            .filter(|r| r.due_ns >= from_ns && r.due_ns < horizon_ns)
            .map(|r| r.latency_ms())
            .collect()
    });
    let p50_ms = median(&mut lat);
    if wl.failover {
        return Prediction {
            p50_ms,
            capacity_tps: 0.0,
        };
    }

    let t0 = sim.now();
    let mut cap_src = TxnSource::new(wl.mix, s.seed ^ 0xca9, CAPACITY_POOL, 1_001);
    let woken = dep.dispatch.start_closed_loop(
        Box::new(move |now| Job {
            txn: cap_src.next_txn(),
            due_ns: now,
        }),
        t0.as_micros() * 1_000,
        CAPACITY_POOL,
    );
    for c in woken {
        sim.send_at(t0, c, wake_msg());
    }
    let warm = VTime::from_micros(t0.as_micros() + 200_000);
    run_to(&mut sim, warm, started);
    let a0 = dep.dispatch.answered();
    let end = VTime::from_micros(warm.as_micros() + CAPACITY_SPAN.as_micros() as u64);
    run_to(&mut sim, end, started);
    let span = (sim.now().as_micros() - warm.as_micros()) as f64 / 1e6;
    let capacity_tps = if span > 0.0 {
        (dep.dispatch.answered() - a0) as f64 / span
    } else {
        0.0
    };
    Prediction {
        p50_ms,
        capacity_tps,
    }
}
