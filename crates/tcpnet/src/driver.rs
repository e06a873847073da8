//! Driver threads: the unit of CPU. A [`Shard`] is the unit of state —
//! its poller, listeners, connections, hosts and timers — and a driver
//! thread runs one or more shards. There is one driver per shard; driver
//! `i` is the *home* of shard `i` and starts out running only it.
//!
//! A driver that runs several shards registers each shard's poller in a
//! driver poller (nested epoll, level-triggered), blocks once with the
//! minimum of the shards' timeouts, and dispatches whichever shard is
//! ready. Messages between shards on one driver still cross loopback
//! sockets, but no longer wake a second thread.
//!
//! Every [`WINDOW`] a driver measures how busy it was: the share of the
//! window it spent outside its poller wait.
//!
//! * **Merge.** A driver that stayed below [`MERGE_BELOW`] for
//!   [`MERGE_AFTER`] windows hands all its shards to the lowest-numbered
//!   running driver that is below [`MERGE_BELOW`] too, then parks on a
//!   blocking receive, which costs no CPU.
//! * **Split.** A driver running several shards that is busier than
//!   [`SPLIT_ABOVE`] hands one foreign shard back to that shard's home
//!   driver, which unparks.
//!
//! The gap between the two thresholds is the hysteresis: two drivers
//! that merge run together at no more than twice [`MERGE_BELOW`], well
//! under [`SPLIT_ABOVE`], and two drivers that split each carry more than
//! [`MERGE_BELOW`]. A running driver always holds its home shard and a
//! parked one holds none, so a split always finds its home thread waiting.
//!
//! Hand-offs are serialized by one mutex that also guards the shutdown
//! flag: once shutdown is set no shard moves, and every driver — running
//! or parked — receives [`Handoff::Exit`].
//!
//! The `poll(2)` fallback cannot nest pollers ([`Poller::CAN_NEST`]), so
//! there every shard keeps its own driver.

use crate::poll::{PollEvent, Poller};
use crate::registry::Registry;
use crate::shard::{Shard, Waker, TICK};
use crossbeam::channel::{self, Receiver, SendError, Sender};
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The span a driver's busy fraction is measured over.
const WINDOW: Duration = Duration::from_millis(100);
/// Below this busy fraction a driver counts as mostly idle.
const MERGE_BELOW: f64 = 0.25;
/// Consecutive idle windows before a driver offers its shards.
const MERGE_AFTER: u32 = 3;
/// Above this busy fraction a driver running several shards splits.
const SPLIT_ABOVE: f64 = 0.75;

/// What one driver sends another.
enum Handoff {
    /// Run these shards too.
    Shards(Vec<Shard>),
    /// The net is shutting down: drop every shard held and return.
    Exit,
}

/// The shared view of one driver thread.
struct Slot {
    tx: Sender<Handoff>,
    /// Wakes the driver while it runs: it always holds its home shard,
    /// and this is that shard's wake pipe.
    wake: Waker,
    /// Shards the driver runs; 0 while parked.
    held: AtomicUsize,
    /// Busy fraction of the driver's last window, in millionths.
    busy_ppm: AtomicU32,
}

impl Slot {
    fn busy(&self) -> f64 {
        self.busy_ppm.load(Ordering::Relaxed) as f64 / 1e6
    }
}

/// The driver threads' shared state.
pub struct Plane {
    registry: Arc<Registry>,
    slots: Vec<Slot>,
    /// Serializes hand-offs with each other and with shutdown.
    handoff: Mutex<()>,
    merges: AtomicU64,
    splits: AtomicU64,
    /// Test hook: overrides the load policy (see [`force`]).
    #[cfg(test)]
    pub(crate) force: std::sync::atomic::AtomicU8,
}

/// Test-only policy overrides, applied every [`force::WINDOW`].
#[cfg(test)]
pub(crate) mod force {
    /// The load policy decides.
    pub const OFF: u8 = 0;
    /// Merge whenever possible, never split.
    pub const MERGE: u8 = 1;
    /// Alternate: a driver running one shard merges, one running several
    /// splits.
    pub const CHURN: u8 = 2;
    /// The window while an override is on.
    pub const WINDOW: std::time::Duration = std::time::Duration::from_millis(2);
}

/// A snapshot of the event-loop plane: which driver threads run how many
/// shards, how often shards moved, and how busy each driver was.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LoopStats {
    /// Driver threads currently running at least one shard.
    pub active_drivers: usize,
    /// Shards each driver thread runs, by thread index (0 while parked).
    pub shards_per_driver: Vec<usize>,
    /// Times an idle driver handed its shards to another and parked.
    pub merges: u64,
    /// Times a busy driver handed a shard back to its home driver.
    pub splits: u64,
    /// Share of its last window each driver spent outside its poller
    /// wait (0 while parked).
    pub busy: Vec<f64>,
}

impl fmt::Display for LoopStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let busy: Vec<String> = self.busy.iter().map(|b| format!("{b:.2}")).collect();
        write!(
            f,
            "{}/{} drivers active, shards per driver {:?}, {} merges, {} splits, busy [{}]",
            self.active_drivers,
            self.shards_per_driver.len(),
            self.shards_per_driver,
            self.merges,
            self.splits,
            busy.join(", ")
        )
    }
}

impl Plane {
    /// Spawns one driver per shard, driver `i` running shard `i`; each
    /// waker is that shard's wake pipe.
    pub fn spawn(
        registry: Arc<Registry>,
        shards: Vec<(Shard, Waker)>,
    ) -> (Arc<Plane>, Vec<JoinHandle<()>>) {
        let mut slots = Vec::with_capacity(shards.len());
        let mut homes = Vec::with_capacity(shards.len());
        for (shard, wake) in shards {
            let (tx, rx) = channel::unbounded();
            slots.push(Slot {
                tx,
                wake,
                held: AtomicUsize::new(1),
                busy_ppm: AtomicU32::new(0),
            });
            homes.push((shard, rx));
        }
        let plane = Arc::new(Plane {
            registry,
            slots,
            handoff: Mutex::new(()),
            merges: AtomicU64::new(0),
            splits: AtomicU64::new(0),
            #[cfg(test)]
            force: std::sync::atomic::AtomicU8::new(force::OFF),
        });
        let joins = homes
            .into_iter()
            .enumerate()
            .map(|(id, (home, rx))| {
                let plane = plane.clone();
                std::thread::spawn(move || Driver::new(id, plane, rx).run(home))
            })
            .collect();
        (plane, joins)
    }

    /// Snapshot of the plane's counters.
    pub fn stats(&self) -> LoopStats {
        let shards_per_driver: Vec<usize> = self
            .slots
            .iter()
            .map(|s| s.held.load(Ordering::Relaxed))
            .collect();
        LoopStats {
            active_drivers: shards_per_driver.iter().filter(|&&n| n > 0).count(),
            shards_per_driver,
            merges: self.merges.load(Ordering::Relaxed),
            splits: self.splits.load(Ordering::Relaxed),
            busy: self.slots.iter().map(Slot::busy).collect(),
        }
    }

    /// Sets the shutdown flag, which stops hand-offs and link connects,
    /// then tells every driver to exit and wakes the running ones.
    pub fn shutdown(&self) {
        {
            let _g = self.handoff.lock();
            self.registry.shutdown.store(true, Ordering::SeqCst);
        }
        for slot in &self.slots {
            let _ = slot.tx.send(Handoff::Exit);
            slot.wake.wake();
        }
    }

    fn window(&self) -> Duration {
        #[cfg(test)]
        if self.force.load(Ordering::Relaxed) != force::OFF {
            return force::WINDOW;
        }
        WINDOW
    }
}

/// What a driver does at the end of a window.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Stay,
    /// Hand all shards to a running driver; `any_load` skips its
    /// idleness check.
    Merge {
        any_load: bool,
    },
    Split,
}

/// One driver thread's own state.
struct Driver {
    id: usize,
    plane: Arc<Plane>,
    rx: Receiver<Handoff>,
    shards: Vec<Shard>,
    /// Watches every held shard's poller while the driver holds more
    /// than one.
    nest: Option<Poller>,
    ready: Vec<PollEvent>,
    window_start: Instant,
    /// Time spent blocked in a poller wait this window.
    waited: Duration,
    /// Consecutive windows below [`MERGE_BELOW`].
    idle_windows: u32,
}

impl Driver {
    fn new(id: usize, plane: Arc<Plane>, rx: Receiver<Handoff>) -> Driver {
        Driver {
            id,
            plane,
            rx,
            shards: Vec::new(),
            nest: None,
            ready: Vec::new(),
            window_start: Instant::now(),
            waited: Duration::ZERO,
            idle_windows: 0,
        }
    }

    /// Drives `home` (and whatever joins it) until shutdown, parking
    /// whenever every shard has been handed away.
    fn run(mut self, home: Shard) {
        let mut incoming = vec![home];
        loop {
            self.adopt(incoming);
            if !self.drive() {
                return;
            }
            // Parked: blocks without CPU until a split returns the home
            // shard or shutdown arrives.
            match self.rx.recv() {
                Ok(Handoff::Shards(shards)) => incoming = shards,
                Ok(Handoff::Exit) | Err(_) => return,
            }
        }
    }

    /// Runs the held shards turn by turn. Returns `true` once they have
    /// all been handed away (park), `false` on shutdown.
    fn drive(&mut self) -> bool {
        self.window_start = Instant::now();
        self.waited = Duration::ZERO;
        self.idle_windows = 0;
        loop {
            while let Ok(handoff) = self.rx.try_recv() {
                match handoff {
                    Handoff::Shards(shards) => self.adopt(shards),
                    Handoff::Exit => return false,
                }
            }
            let mut timeout = TICK;
            for shard in &mut self.shards {
                shard.prepare();
                timeout = timeout.min(shard.poll_timeout());
            }
            let before = Instant::now();
            let after;
            if let [only] = self.shards.as_mut_slice() {
                only.wait(timeout);
                after = Instant::now();
                only.dispatch();
            } else {
                self.ready.clear();
                let nest = self.nest.as_mut().expect("several shards are nested");
                let _ = nest.wait(Some(timeout), &mut self.ready);
                after = Instant::now();
                for ev in &self.ready {
                    if let Some(shard) = self.shards.iter_mut().find(|s| s.id == ev.token) {
                        shard.wait(Duration::ZERO);
                        shard.dispatch();
                    }
                }
            }
            self.waited += after - before;
            // Work done after `after` counts toward the next window.
            if after - self.window_start >= self.plane.window() && self.end_window(after) {
                return true;
            }
        }
    }

    /// Publishes the window's busy fraction and applies the policy.
    /// Returns whether the driver handed all its shards away.
    fn end_window(&mut self, now: Instant) -> bool {
        let span = (now - self.window_start).as_secs_f64();
        let busy = (1.0 - self.waited.as_secs_f64() / span).clamp(0.0, 1.0);
        self.plane.slots[self.id]
            .busy_ppm
            .store((busy * 1e6) as u32, Ordering::Relaxed);
        self.window_start = now;
        self.waited = Duration::ZERO;
        match self.verdict(busy) {
            Verdict::Stay => false,
            Verdict::Split => {
                self.split();
                false
            }
            Verdict::Merge { any_load } => self.merge(any_load),
        }
    }

    fn verdict(&mut self, busy: f64) -> Verdict {
        if !Poller::CAN_NEST {
            return Verdict::Stay;
        }
        let several = self.shards.len() > 1;
        // Shards only ever merge downward, so driver 0 never parks.
        let can_merge = self.id > 0;
        #[cfg(test)]
        match self.plane.force.load(Ordering::Relaxed) {
            force::CHURN if several => return Verdict::Split,
            force::MERGE | force::CHURN if can_merge => return Verdict::Merge { any_load: true },
            force::MERGE | force::CHURN => return Verdict::Stay,
            _ => {}
        }
        if several && busy > SPLIT_ABOVE {
            self.idle_windows = 0;
            return Verdict::Split;
        }
        if busy < MERGE_BELOW {
            self.idle_windows += 1;
        } else {
            self.idle_windows = 0;
        }
        if can_merge && self.idle_windows >= MERGE_AFTER {
            Verdict::Merge { any_load: false }
        } else {
            Verdict::Stay
        }
    }

    /// Hands every held shard to the lowest-numbered running driver that
    /// is idle too (any running one with `any_load`) and wakes it.
    /// Returns whether the shards went.
    fn merge(&mut self, any_load: bool) -> bool {
        let plane = self.plane.clone();
        let _g = plane.handoff.lock();
        if plane.registry.shutdown.load(Ordering::SeqCst) {
            return false;
        }
        let Some(target) = (0..self.id).find(|&i| {
            let slot = &plane.slots[i];
            slot.held.load(Ordering::Relaxed) > 0 && (any_load || slot.busy() < MERGE_BELOW)
        }) else {
            return false;
        };
        // Shards handed here before the lock was taken go along. No Exit
        // can be queued: it follows the shutdown flag, set under this lock.
        while let Ok(Handoff::Shards(shards)) = self.rx.try_recv() {
            self.shards.extend(shards);
        }
        let shards = std::mem::take(&mut self.shards);
        self.held_changed();
        let slot = &plane.slots[target];
        if let Err(SendError(Handoff::Shards(back))) = slot.tx.send(Handoff::Shards(shards)) {
            // The target thread is gone (it panicked): keep driving.
            self.adopt(back);
            return false;
        }
        slot.wake.wake();
        plane.slots[self.id].busy_ppm.store(0, Ordering::Relaxed);
        plane.merges.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Hands one foreign shard back to its home driver, which is parked.
    fn split(&mut self) {
        let plane = self.plane.clone();
        let _g = plane.handoff.lock();
        if plane.registry.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Some(idx) = self.shards.iter().rposition(|s| s.id != self.id) else {
            return;
        };
        let shard = self.shards.remove(idx);
        self.held_changed();
        let home = &plane.slots[shard.id];
        home.held.store(1, Ordering::Relaxed);
        if let Err(SendError(Handoff::Shards(back))) = home.tx.send(Handoff::Shards(vec![shard])) {
            home.held.store(0, Ordering::Relaxed);
            self.adopt(back);
            return;
        }
        plane.splits.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes over `incoming`.
    fn adopt(&mut self, incoming: Vec<Shard>) {
        self.shards.extend(incoming);
        self.held_changed();
    }

    /// Publishes the held count after a hand-off and rebuilds the driver
    /// poller over the held shards' pollers; a driver holding one shard
    /// waits on it directly. Hand-offs are rare, so a fresh poller is
    /// cheaper to reason about than patching the old one.
    fn held_changed(&mut self) {
        self.nest = (self.shards.len() > 1).then(|| {
            let mut nest = Poller::new().expect("driver poller");
            for shard in &self.shards {
                nest.nest(&shard.poller, shard.id)
                    .expect("nest a shard poller");
            }
            nest
        });
        self.plane.slots[self.id]
            .held
            .store(self.shards.len(), Ordering::Relaxed);
    }
}
