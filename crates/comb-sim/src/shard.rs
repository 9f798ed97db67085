//! Conservative sharded execution: several [`Simulation`] instances — one
//! per shard of nodes — advancing in parallel under a lookahead bound.
//!
//! # Model
//!
//! A [`ShardedSimulation`] owns `S` ordinary simulations, each with its own
//! slab arena, three-region queue, clock, and process set. Intra-shard
//! events are scheduled exactly as in the serial kernel — same code path,
//! zero coordination. The only cross-shard channel is a [`Router`] of
//! per-`(src, dst)` mailboxes, used when code running on one shard's
//! thread (an event closure or a process of that shard) schedules through a
//! handle that belongs to another shard.
//!
//! Execution proceeds in *epochs*. With `m` the minimum next-event time
//! across all shards and `L` the lookahead (the minimum latency of any
//! cross-shard interaction — for comb-hw topologies, the link latency plus
//! the NIC's per-packet send time, see `HwConfig::lookahead`), every shard
//! can safely execute all events in `[m, m + L)` without hearing from its
//! peers: any cross-shard effect of an event at `t ≥ m` arrives no earlier
//! than `t + L ≥ m + L`, strictly after the window. The router checks that
//! bound on every cross-shard event, in release builds too.
//!
//! The thread that calls [`ShardedSimulation::run`] (the caller) runs
//! shard 0 itself; shards `1..S` each get a worker thread. Each epoch
//! the caller releases the workers to run until `m + L − 1` (inclusive),
//! runs shard 0 to the same deadline, waits for the `S − 1` workers at a
//! barrier, then merges the mailboxes. Shard 0's processes therefore live
//! on the caller's thread, like a serial simulation's.
//!
//! # Determinism
//!
//! The merge is the whole trick. Every cross-shard event carries the fire
//! time `t` and the *source* shard's clock reading `sched` at the moment it
//! was scheduled. Per destination, the batch is drained in `(t, sched,
//! src-shard, mailbox-index)` order and injected with
//! `EventQueue::schedule_keyed`, which preserves `sched` as the middle
//! component of the queue's `(time, sched, seq)` ordering key. Because the
//! serial kernel orders same-time events by schedule order and its clock is
//! monotone, `(time, sched)` reproduces the serial order exactly whenever
//! the pair is unique — and injected events always slot among the
//! destination's local events precisely where the serial kernel would have
//! put them. Residual ties (equal fire time *and* equal schedule time
//! across shards) fall back to local-before-injected, then source-shard
//! order; the comb-hw workloads cannot produce them because each
//! destination NIC has a single peer and distinct wire arrivals are
//! serialized by the link model. The golden-CSV and shard-matrix
//! determinism tests pin this down end to end.
//!
//! Epochs advance virtual time by at least `L` each round (all remaining
//! events after an epoch are `≥ m + L`), so the caller always makes
//! progress; a tripped per-shard watchdog or process panic aborts the run
//! with the first error in shard-index order.

use crate::event::{EventId, EventKind, KernelStats};
use crate::kernel::{Probe, SimError, SimHandle, SimShared, Simulation, WatchdogConfig};
use crate::process::{ProcCtx, ProcId};
use crate::time::{SimDuration, SimTime};
use parking_lot::Mutex;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};

thread_local! {
    /// Which shard the current thread is executing, if any. Set on shard
    /// worker threads, which run their shard's event loop and resume its
    /// processes, and on the calling thread while it runs shard 0's slice
    /// of an epoch; `None` otherwise (build phase, epoch merges, serial
    /// runs), where every handle is safe to schedule on directly.
    static CURRENT_SHARD: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Shard executing on the current thread (`None` = not a shard thread).
pub(crate) fn current_shard() -> Option<usize> {
    CURRENT_SHARD.with(|c| c.get())
}

/// Tag the current thread as executing `shard` (see [`current_shard`]).
pub(crate) fn set_current_shard(shard: Option<usize>) {
    CURRENT_SHARD.with(|c| c.set(shard));
}

/// A shard's identity within its [`ShardedSimulation`]: stored in
/// [`SimShared`] so any `SimHandle` can tell which shard it belongs to and
/// reach the router.
pub(crate) struct ShardSlot {
    /// Index of this shard.
    pub id: usize,
    /// The cross-shard event router shared by all shards.
    pub router: Arc<Router>,
}

/// One cross-shard event in flight: fire time, the source shard's clock at
/// schedule time (the determinism key), and the payload.
struct CrossEvent {
    time: SimTime,
    sched: SimTime,
    kind: EventKind,
}

/// Initial capacity of each `(src, dst)` mailbox. Mailboxes are drained
/// (not dropped) every epoch, so the backing storage is allocated once and
/// reused for the life of the run.
const MAILBOX_CAP: usize = 64;

/// Cross-shard event router: a dense `S × S` matrix of mailboxes plus weak
/// back-references to each shard's clock.
///
/// Holds [`Weak`] references because each shard's [`SimShared`] owns a
/// [`ShardSlot`] that owns an `Arc<Router>` — strong back-references would
/// cycle and leak every simulation.
pub(crate) struct Router {
    lookahead: SimDuration,
    clocks: OnceLock<Vec<Weak<SimShared>>>,
    /// `mailboxes[src][dst]`; only `src != dst` cells are ever used.
    mailboxes: Vec<Vec<Mutex<Vec<CrossEvent>>>>,
}

impl Router {
    fn new(shards: usize, lookahead: SimDuration) -> Router {
        Router {
            lookahead,
            clocks: OnceLock::new(),
            mailboxes: (0..shards)
                .map(|_| {
                    (0..shards)
                        .map(|_| Mutex::new(Vec::with_capacity(MAILBOX_CAP)))
                        .collect()
                })
                .collect(),
        }
    }

    /// The source shard's current clock reading.
    pub(crate) fn src_now(&self, src: usize) -> SimTime {
        let clocks = self
            .clocks
            .get()
            .expect("shard router used before its clocks were wired");
        let shared = clocks[src]
            .upgrade()
            .expect("source shard's simulation was dropped mid-run");
        SimTime::from_nanos(shared.clock.load(Ordering::Relaxed))
    }

    /// Enqueue a cross-shard event firing at `time` on shard `dst`,
    /// scheduled from shard `src` *now*. The caller must respect the
    /// lookahead contract: `time` at least one lookahead ahead of the
    /// source clock (comb-hw guarantees this structurally — every
    /// cross-node interaction is a packet that pays the NIC's send time
    /// and then the link latency). Panics when it does not: a model that
    /// broke the bound would otherwise misorder events silently. The panic
    /// ends the run as a [`SimError::ProcessPanicked`].
    ///
    /// The returned id is [`EventId::CROSS_SHARD`]: cancelling it is a
    /// guaranteed no-op, matching the fire-and-forget use of the only
    /// cross-shard call sites (wire deliveries are never cancelled).
    pub(crate) fn push(&self, src: usize, dst: usize, time: SimTime, kind: EventKind) -> EventId {
        let sched = self.src_now(src);
        assert!(
            time.as_nanos() >= sched.as_nanos() + self.lookahead.as_nanos(),
            "cross-shard event violates the lookahead horizon: \
             fires at {time} but scheduled at {sched} with lookahead {:?}",
            self.lookahead
        );
        self.mailboxes[src][dst]
            .lock()
            .push(CrossEvent { time, sched, kind });
        EventId::CROSS_SHARD
    }

    /// Drain every mailbox into its destination queue, in deterministic
    /// `(time, sched, src-shard, mailbox-index)` order per destination.
    /// Called at epoch barriers while all shard workers are parked, so the
    /// queues are safe to touch from the calling thread: each borrow claims
    /// a shard its thread released when its epoch ended.
    fn merge(&self, shareds: &[Arc<SimShared>]) {
        let n = shareds.len();
        let mut batch: Vec<(SimTime, SimTime, usize, usize, EventKind)> = Vec::new();
        for (dst, shared) in shareds.iter().enumerate() {
            for src in 0..n {
                if src == dst {
                    continue;
                }
                let mut mb = self.mailboxes[src][dst].lock();
                batch.extend(
                    mb.drain(..)
                        .enumerate()
                        .map(|(idx, ev)| (ev.time, ev.sched, src, idx, ev.kind)),
                );
            }
            if batch.is_empty() {
                continue;
            }
            batch.sort_by_key(|a| (a.0, a.1, a.2, a.3));
            let now = SimTime::from_nanos(shared.clock.load(Ordering::Relaxed));
            let mut queue = shared.queue();
            for (time, sched, _, _, kind) in batch.drain(..) {
                // The lookahead bound puts every injected event strictly
                // beyond the epoch the destination just finished, so the
                // injection is always in the destination's future and never
                // takes the zero-delay lane.
                assert!(time > now, "cross-shard event inside the finished epoch");
                queue.schedule_keyed(now, time, sched, kind);
            }
        }
    }

    /// True when no cross-shard event is in flight (termination check).
    fn is_empty(&self) -> bool {
        self.mailboxes
            .iter()
            .flatten()
            .all(|mb| mb.lock().is_empty())
    }
}

/// Shared state between the calling thread and the shard workers. All
/// synchronization is spin-based: epochs are released about a thousand
/// times per run and the workers' epoch bodies are typically tens of
/// microseconds, so parking on an OS primitive per epoch would dominate.
/// The caller runs shard 0 between releasing the workers and waiting for
/// them, so it only spins once its own slice is done.
struct EpochSync {
    /// Bumped by the caller to release the workers into an epoch.
    epoch: AtomicU64,
    /// Inclusive virtual-time deadline of the current epoch.
    deadline: AtomicU64,
    /// Workers that have finished the current epoch.
    arrived: AtomicUsize,
    /// Set (before the final `epoch` bump) to tell workers to exit.
    done: AtomicBool,
}

/// Spin until `a` moves away from `seen`; returns the new value.
fn wait_change(a: &AtomicU64, seen: u64) -> u64 {
    let mut spins = 0u32;
    loop {
        let v = a.load(Ordering::Acquire);
        if v != seen {
            return v;
        }
        spins = spins.wrapping_add(1);
        if spins.is_multiple_of(64) {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Spin until at least `n` workers (`S − 1` per epoch) have arrived.
fn wait_arrived(a: &AtomicUsize, n: usize) {
    let mut spins = 0u32;
    while a.load(Ordering::Acquire) < n {
        spins = spins.wrapping_add(1);
        if spins.is_multiple_of(64) {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// How the epoch loop ended.
enum Outcome {
    /// All queues and mailboxes drained.
    Clean,
    /// A shard (the caller's shard 0 or a worker's) returned an error; the
    /// first one in shard-index order is reported.
    ShardError,
    /// The caller saw the next epoch start past the watchdog deadline.
    Deadline(SimTime),
}

/// A deterministic parallel simulation: `S` shards advancing under
/// conservative lookahead synchronization, producing bit-for-bit the same
/// per-shard event order as running each shard's workload in the serial
/// kernel.
///
/// Build with [`ShardedSimulation::new`], place processes and hardware on
/// shards via [`ShardedSimulation::handle`] / [`ShardedSimulation::spawn`],
/// then [`ShardedSimulation::run`]. The calling thread runs shard 0 and
/// each other shard gets a worker thread of its own. With one shard this
/// is exactly a [`Simulation`] — same code path, no worker threads, no
/// barriers.
///
/// ```
/// use comb_sim::{ShardedSimulation, SimDuration, SimTime};
///
/// let lookahead = SimDuration::from_micros(5);
/// let mut sim = ShardedSimulation::new(2, lookahead);
/// let h1 = sim.handle(1);
/// let probe = sim.probe::<u64>();
/// let p = probe.clone();
/// sim.spawn(0, "sender", move |ctx| {
///     ctx.hold(SimDuration::from_micros(1));
///     // Cross-shard: at least one lookahead ahead of this shard's clock.
///     let t = ctx.now() + lookahead;
///     let p = p.clone();
///     h1.schedule_at(t, move || p.set(t.as_nanos()));
/// });
/// sim.run().unwrap();
/// assert_eq!(probe.get(), Some(6_000));
/// ```
pub struct ShardedSimulation {
    sims: Vec<Simulation>,
    router: Arc<Router>,
    /// Epochs run so far, counted by the caller.
    epochs: u64,
}

impl ShardedSimulation {
    /// Create `shards` shard simulations coupled by `lookahead`: the
    /// minimum virtual-time distance of any cross-shard interaction (for
    /// comb-hw topologies, `HwConfig::lookahead`).
    ///
    /// Panics if `shards` is zero or `lookahead` is zero — a zero
    /// lookahead admits no safe epoch window.
    pub fn new(shards: usize, lookahead: SimDuration) -> ShardedSimulation {
        assert!(shards >= 1, "a sharded simulation needs at least one shard");
        assert!(
            lookahead.as_nanos() >= 1,
            "conservative synchronization requires a non-zero lookahead"
        );
        let router = Arc::new(Router::new(shards, lookahead));
        let sims: Vec<Simulation> = (0..shards)
            .map(|id| {
                Simulation::new_sharded(ShardSlot {
                    id,
                    router: Arc::clone(&router),
                })
            })
            .collect();
        router
            .clocks
            .set(
                sims.iter()
                    .map(|s| Arc::downgrade(s.shared_arc()))
                    .collect(),
            )
            .unwrap_or_else(|_| unreachable!("router clocks wired twice"));
        ShardedSimulation {
            sims,
            router,
            epochs: 0,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.sims.len()
    }

    /// A scheduling handle for `shard`. Used from that shard's own code it
    /// schedules locally; used from another shard's code it routes
    /// through the epoch mailboxes (the caller must then respect the
    /// lookahead contract — see [`ShardedSimulation::new`]).
    pub fn handle(&self, shard: usize) -> SimHandle {
        self.sims[shard].handle()
    }

    /// Convenience constructor for a result [`Probe`].
    pub fn probe<T>(&self) -> Probe<T> {
        Probe::new()
    }

    /// Spawn a simulated process on `shard` (see [`Simulation::spawn`]).
    pub fn spawn<F>(&mut self, shard: usize, name: &str, f: F) -> ProcId
    where
        F: FnOnce(&ProcCtx) + Send + 'static,
    {
        self.sims[shard].spawn(name, f)
    }

    /// Run all shards to completion. Returns the fire time of the last
    /// event executed on any shard — the same value the serial kernel
    /// would return for the merged workload.
    pub fn run(&mut self) -> Result<SimTime, SimError> {
        self.run_inner(None)
    }

    /// [`ShardedSimulation::run`] under watchdog limits, applied per
    /// shard: the stall detector works unchanged (a zero-delay livelock
    /// never leaves its epoch), the virtual-time deadline is enforced both
    /// inside epochs and by the caller between them, and the
    /// `max_events` budget bounds each shard's events *per epoch* rather
    /// than the whole run.
    pub fn run_with_watchdog(&mut self, wd: &WatchdogConfig) -> Result<SimTime, SimError> {
        self.run_inner(Some(wd))
    }

    /// Aggregated kernel counters: sums across shards, except
    /// `arena_high_water` which is the max (arenas are per-shard).
    pub fn kernel_stats(&self) -> KernelStats {
        let mut total = KernelStats::default();
        for sim in &self.sims {
            let s = sim.handle().kernel_stats();
            total.scheduled += s.scheduled;
            total.fired += s.fired;
            total.cancelled += s.cancelled;
            total.arena_high_water = total.arena_high_water.max(s.arena_high_water);
            total.lane_scheduled += s.lane_scheduled;
            total.boxed_calls += s.boxed_calls;
        }
        total
    }

    /// Total events executed across all shards.
    pub fn events_executed(&self) -> u64 {
        self.sims.iter().map(|s| s.handle().events_executed()).sum()
    }

    /// Epochs (barrier rounds) run so far. A one-shard simulation runs the
    /// serial kernel and no epochs, so this stays 0 there.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    fn run_inner(&mut self, wd: Option<&WatchdogConfig>) -> Result<SimTime, SimError> {
        if self.sims.len() == 1 {
            // One shard is exactly the serial kernel; skip the worker
            // threads and the barriers entirely.
            return match wd {
                Some(wd) => self.sims[0].run_with_watchdog(wd),
                None => self.sims[0].run(),
            };
        }
        let n = self.sims.len();
        let lookahead = self.router.lookahead;
        let router = Arc::clone(&self.router);
        let shareds: Vec<Arc<SimShared>> = self
            .sims
            .iter()
            .map(|s| Arc::clone(s.shared_arc()))
            .collect();
        let errors: Vec<Mutex<Option<SimError>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let sync = EpochSync {
            epoch: AtomicU64::new(0),
            deadline: AtomicU64::new(0),
            arrived: AtomicUsize::new(0),
            done: AtomicBool::new(false),
        };
        let mut outcome = Outcome::Clean;
        let (first, rest) = self
            .sims
            .split_first_mut()
            .unwrap_or_else(|| unreachable!("a sharded simulation has at least one shard"));
        std::thread::scope(|scope| {
            for (i, sim) in (1..).zip(rest.iter_mut()) {
                let sync = &sync;
                let errors = &errors;
                scope.spawn(move || {
                    set_current_shard(Some(i));
                    let mut seen = 0u64;
                    loop {
                        seen = wait_change(&sync.epoch, seen);
                        if sync.done.load(Ordering::Acquire) {
                            break;
                        }
                        let deadline = SimTime::from_nanos(sync.deadline.load(Ordering::Acquire));
                        run_epoch(i, sim, deadline, wd, &errors[i]);
                        // The epoch's run has released this shard, so the
                        // caller may claim it once everyone arrives.
                        sync.arrived.fetch_add(1, Ordering::AcqRel);
                    }
                });
            }
            // Sends the workers home when the epoch loop ends, also when it
            // unwinds: the scope joins them before it returns.
            let _release = ReleaseWorkers(&sync);
            // The epoch loop, on the calling thread, which runs shard 0
            // itself. Between barriers every worker is parked in
            // `wait_change`, so the shard queues are safe to inspect and
            // inject into from here.
            loop {
                let mut next: Option<SimTime> = None;
                for shared in &shareds {
                    if let Some(t) = shared.queue().peek_time() {
                        next = Some(next.map_or(t, |cur| cur.min(t)));
                    }
                }
                let Some(m) = next else {
                    debug_assert!(router.is_empty(), "mailboxes survived an epoch merge");
                    break;
                };
                if let Some(wd) = wd {
                    if let Some(dl) = wd.deadline {
                        if m > dl {
                            outcome = Outcome::Deadline(dl);
                            break;
                        }
                    }
                }
                // The epoch window is [m, m + L); run_until's deadline is
                // inclusive, hence the −1.
                let epoch_end = SimTime::from_nanos(m.as_nanos() + lookahead.as_nanos() - 1);
                sync.deadline.store(epoch_end.as_nanos(), Ordering::Release);
                sync.arrived.store(0, Ordering::Release);
                sync.epoch.fetch_add(1, Ordering::Release);
                // Shard 0's slice: tagged as shard 0, so its schedules on
                // other shards' handles route through the mailboxes.
                set_current_shard(Some(0));
                run_epoch(0, first, epoch_end, wd, &errors[0]);
                set_current_shard(None);
                wait_arrived(&sync.arrived, n - 1);
                self.epochs += 1;
                if errors.iter().any(|e| e.lock().is_some()) {
                    outcome = Outcome::ShardError;
                    break;
                }
                router.merge(&shareds);
            }
        });
        match outcome {
            Outcome::ShardError => {
                for e in &errors {
                    if let Some(err) = e.lock().take() {
                        return Err(err);
                    }
                }
                unreachable!("shard-error outcome without a stored error")
            }
            Outcome::Deadline(deadline) => Err(SimError::WatchdogDeadline {
                deadline,
                unfinished: self
                    .sims
                    .iter()
                    .flat_map(|s| s.unfinished_procs())
                    .collect(),
            }),
            Outcome::Clean => {
                // All queues are empty; a final serial `run` per shard
                // performs the deadlock check (and flushes stats) without
                // executing anything. Parked names are unioned in shard
                // order so the diagnostic is deterministic.
                let mut parked = Vec::new();
                let mut end = SimTime::ZERO;
                for sim in &mut self.sims {
                    match sim.run() {
                        Ok(_) => {}
                        Err(SimError::Deadlock { parked: p }) => parked.extend(p),
                        Err(e) => return Err(e),
                    }
                    end = end.max(sim.last_event_time());
                }
                if parked.is_empty() {
                    Ok(end)
                } else {
                    Err(SimError::Deadlock { parked })
                }
            }
        }
    }
}

/// Run shard `i`'s `sim` through the epoch ending at `deadline`
/// (inclusive), storing any error in `slot`. Used by the caller for shard
/// 0 and by each worker for its own shard.
///
/// Event-closure panics are caught here (process panics are already
/// converted by the kernel): a shard that unwound out of its epoch would
/// never arrive at the barrier and would hang every other shard with it.
fn run_epoch(
    i: usize,
    sim: &mut Simulation,
    deadline: SimTime,
    wd: Option<&WatchdogConfig>,
    slot: &Mutex<Option<SimError>>,
) {
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        sim.run_until_wd(deadline, wd)
    }));
    let error = match run {
        Ok(Ok(_)) => return,
        Ok(Err(e)) => e,
        Err(payload) => SimError::ProcessPanicked {
            name: format!("shard-{i} event closure"),
            message: crate::kernel::panic_message(payload.as_ref()),
        },
    };
    *slot.lock() = Some(error);
}

impl Drop for ShardedSimulation {
    fn drop(&mut self) {
        // A run stopped by a shard's error leaves the events routed during
        // its last epoch in the mailboxes, and what they own (a wire
        // delivery owns its NIC, whose handle holds its shard, which holds
        // this router) would keep them alive in a cycle. Drop them before
        // the shards, whose drops then empty their queues, and outside the
        // mailbox locks: their captures may schedule.
        for mailbox in self.router.mailboxes.iter().flatten() {
            let stranded = std::mem::take(&mut *mailbox.lock());
            drop(stranded);
        }
    }
}

/// Tells the shard workers to exit when dropped.
struct ReleaseWorkers<'a>(&'a EpochSync);

impl Drop for ReleaseWorkers<'_> {
    fn drop(&mut self) {
        self.0.done.store(true, Ordering::Release);
        self.0.epoch.fetch_add(1, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Signal;

    const L: SimDuration = SimDuration::from_micros(5);

    #[test]
    fn cross_shard_event_fires_at_the_requested_time() {
        let mut sim = ShardedSimulation::new(2, L);
        let h1 = sim.handle(1);
        let probe = sim.probe::<u64>();
        let p = probe.clone();
        sim.spawn(0, "sender", move |ctx| {
            ctx.hold(SimDuration::from_micros(1));
            let t = ctx.now() + L;
            let p = p.clone();
            h1.schedule_at(t, move || p.set(t.as_nanos()));
        });
        let end = sim.run().unwrap();
        assert_eq!(probe.get(), Some(6_000));
        assert_eq!(end.as_nanos(), 6_000);
    }

    /// Cancelling the id of a cross-shard schedule is a no-op that leaves
    /// the other shard's queue, which its own worker holds, alone.
    #[test]
    fn cancelling_a_cross_shard_id_touches_no_queue() {
        use std::sync::mpsc;
        use std::time::Duration;
        let mut sim = ShardedSimulation::new(2, L);
        let h1 = sim.handle(1);
        let probe = sim.probe::<u64>();
        let p = probe.clone();
        let (ready_tx, ready_rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel();
        sim.spawn(0, "canceller", move |ctx| {
            ctx.hold(SimDuration::from_micros(1));
            // Shard 1's worker is mid-epoch, inside its process, now.
            ready_rx.recv().expect("shard 1 reports in");
            let t = ctx.now() + L;
            let p = p.clone();
            let id = h1.schedule_at(t, move || p.set(t.as_nanos()));
            h1.cancel(id);
            let _ = done_tx.send(());
        });
        sim.spawn(1, "holder", move |ctx| {
            ctx.hold(SimDuration::from_micros(1));
            ready_tx.send(()).expect("shard 0 listens");
            // Bounded, so a canceller that panics cannot hang the test.
            let _ = done_rx.recv_timeout(Duration::from_secs(5));
        });
        sim.run().unwrap();
        assert_eq!(probe.get(), Some(6_000), "the routed event still fires");
        for shard in 0..2 {
            assert_eq!(
                sim.handle(shard).kernel_stats().cancelled,
                0,
                "shard {shard}"
            );
        }
    }

    #[test]
    fn schedule_in_routes_cross_shard_with_the_source_clock() {
        let mut sim = ShardedSimulation::new(2, L);
        let h1 = sim.handle(1);
        let probe = sim.probe::<u64>();
        let p = probe.clone();
        sim.spawn(0, "sender", move |ctx| {
            ctx.hold(SimDuration::from_micros(2));
            let h = h1.clone();
            let p = p.clone();
            // Delay is relative to the *source* shard's clock.
            h1.schedule_in(L, move || p.set(h.now().as_nanos()));
        });
        sim.run().unwrap();
        assert_eq!(probe.get(), Some(7_000));
    }

    /// Ping-pong across the shard boundary: each side schedules the next
    /// hop on the other side's handle, one lookahead ahead. Exercises many
    /// epochs and both mailbox directions.
    #[test]
    fn cross_shard_ping_pong_round_trips() {
        let mut sim = ShardedSimulation::new(2, L);
        let handles = [sim.handle(0), sim.handle(1)];
        let log: Arc<Mutex<Vec<(u64, usize)>>> = Arc::new(Mutex::new(Vec::new()));

        fn hop(handles: &[SimHandle; 2], log: &Arc<Mutex<Vec<(u64, usize)>>>, side: usize, n: u32) {
            if n == 0 {
                return;
            }
            let t = handles[1 - side].now() + L;
            // Runs on the current side's thread, targets the other side.
            let h2 = handles.clone();
            let l2 = Arc::clone(log);
            handles[side].schedule_at(t, move || {
                l2.lock().push((h2[side].now().as_nanos(), side));
                hop(&h2, &l2, 1 - side, n - 1);
            });
        }

        {
            let h2 = handles.clone();
            let l2 = Arc::clone(&log);
            sim.spawn(0, "kickoff", move |_ctx| hop(&h2, &l2, 1, 6));
        }
        sim.run().unwrap();
        let got = log.lock().clone();
        assert_eq!(
            got,
            (1..=6)
                .map(|i| (i * L.as_nanos(), if i % 2 == 1 { 1 } else { 0 }))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn single_shard_matches_plain_simulation() {
        let run = |sharded: bool| -> (u64, u64) {
            let (end, fired) = if sharded {
                let mut sim = ShardedSimulation::new(1, L);
                for p in 0..3 {
                    sim.spawn(0, &format!("p{p}"), move |ctx| {
                        for i in 0..40 {
                            ctx.hold(SimDuration::from_nanos((p as u64 + 1) * (i + 1)));
                        }
                    });
                }
                let end = sim.run().unwrap();
                (end, sim.events_executed())
            } else {
                let mut sim = Simulation::new();
                for p in 0..3 {
                    sim.spawn(&format!("p{p}"), move |ctx| {
                        for i in 0..40 {
                            ctx.hold(SimDuration::from_nanos((p as u64 + 1) * (i + 1)));
                        }
                    });
                }
                let end = sim.run().unwrap();
                (end, sim.handle().events_executed())
            };
            (end.as_nanos(), fired)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn deadlock_reports_parked_processes_across_shards_in_shard_order() {
        let mut sim = ShardedSimulation::new(2, L);
        for (shard, name) in [(1usize, "stuck-b"), (0usize, "stuck-a")] {
            let h = sim.handle(shard);
            sim.spawn(shard, name, move |ctx| {
                let sig = Signal::new(&h);
                sig.wait(ctx);
            });
        }
        match sim.run() {
            Err(SimError::Deadlock { parked }) => {
                assert_eq!(parked, vec!["stuck-a".to_string(), "stuck-b".to_string()]);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn zero_delay_livelock_trips_the_stall_watchdog_in_sharded_mode() {
        let mut sim = ShardedSimulation::new(2, L);
        // Shard 1 has an honest workload; shard 0 livelocks at t = 0.
        sim.spawn(1, "honest", |ctx| ctx.hold(SimDuration::from_micros(50)));
        let h = sim.handle(0);
        fn spin(h: SimHandle) {
            let h2 = h.clone();
            h.schedule_in(SimDuration::ZERO, move || spin(h2));
        }
        {
            let h = h.clone();
            sim.spawn(0, "spinner", move |_ctx| spin(h));
        }
        let wd = WatchdogConfig {
            max_stalled_events: 500,
            deadline: None,
            max_events: 0,
        };
        match sim.run_with_watchdog(&wd) {
            Err(SimError::WatchdogStalled { at, .. }) => assert_eq!(at.as_nanos(), 0),
            other => panic!("expected stall abort, got {other:?}"),
        }
    }

    #[test]
    fn deadline_watchdog_trips_between_epochs_with_unioned_unfinished() {
        let mut sim = ShardedSimulation::new(2, L);
        for shard in 0..2 {
            sim.spawn(shard, &format!("turtle{shard}"), |ctx| {
                for _ in 0..1_000 {
                    ctx.hold(SimDuration::from_micros(10));
                }
            });
        }
        let wd = WatchdogConfig::lenient().with_deadline(SimTime::from_nanos(100_000));
        match sim.run_with_watchdog(&wd) {
            Err(SimError::WatchdogDeadline { unfinished, .. }) => {
                assert_eq!(
                    unfinished,
                    vec!["turtle0".to_string(), "turtle1".to_string()]
                );
            }
            other => panic!("expected deadline abort, got {other:?}"),
        }
    }

    #[test]
    fn process_panic_on_a_shard_is_reported() {
        let mut sim = ShardedSimulation::new(2, L);
        sim.spawn(0, "honest", |ctx| ctx.hold(SimDuration::from_micros(50)));
        sim.spawn(1, "boom", |ctx| {
            ctx.hold(SimDuration::from_micros(10));
            panic!("kaboom");
        });
        match sim.run() {
            Err(SimError::ProcessPanicked { name, message }) => {
                assert_eq!(name, "boom");
                assert!(message.contains("kaboom"));
            }
            other => panic!("expected panic error, got {other:?}"),
        }
    }

    #[test]
    fn event_closure_panic_during_a_hold_is_reported_for_its_shard() {
        // Shard 0 runs on the calling thread, shard 1 on a worker: both
        // contain the panic and report it.
        for bad in 0..2 {
            let mut sim = ShardedSimulation::new(2, L);
            sim.spawn(1 - bad, "honest", |ctx| {
                ctx.hold(SimDuration::from_micros(50))
            });
            let h = sim.handle(bad);
            sim.spawn(bad, "host", move |ctx| {
                h.schedule_in(SimDuration::from_micros(1), || panic!("closure kaboom"));
                // The shard's loop fires the closure while this process parks.
                ctx.hold(SimDuration::from_micros(10));
            });
            match sim.run() {
                Err(SimError::ProcessPanicked { name, message }) => {
                    assert_eq!(name, format!("shard-{bad} event closure"));
                    assert!(message.contains("closure kaboom"));
                }
                other => panic!("expected panic error, got {other:?}"),
            }
        }
    }

    /// The lookahead contract holds in release builds too: a cross-shard
    /// schedule one nanosecond inside the horizon fails the run instead of
    /// being misordered, and the barrier does not hang on it.
    #[test]
    fn a_cross_shard_event_inside_the_horizon_fails_the_run() {
        let mut sim = ShardedSimulation::new(2, L);
        let h1 = sim.handle(1);
        sim.spawn(1, "honest", |ctx| ctx.hold(SimDuration::from_micros(50)));
        sim.spawn(0, "eager", move |ctx| {
            ctx.hold(SimDuration::from_micros(1));
            h1.schedule_at(ctx.now() + L - SimDuration::from_nanos(1), || {});
        });
        match sim.run() {
            Err(SimError::ProcessPanicked { name, message }) => {
                assert_eq!(name, "eager");
                assert!(message.contains("lookahead horizon"), "{message}");
            }
            other => panic!("expected the horizon check to fail the run, got {other:?}"),
        }
    }

    /// The calling thread runs shard 0 itself; shard 1 runs on a worker.
    #[test]
    fn shard_zero_runs_on_the_calling_thread_and_shard_one_does_not() {
        use std::thread::ThreadId;
        let mut sim = ShardedSimulation::new(2, L);
        let probes: Vec<Probe<ThreadId>> = (0..2).map(|_| sim.probe()).collect();
        for (shard, probe) in probes.iter().enumerate() {
            let probe = probe.clone();
            sim.spawn(shard, &format!("p{shard}"), move |ctx| {
                ctx.hold(SimDuration::from_micros(1));
                probe.set(std::thread::current().id());
            });
        }
        sim.run().unwrap();
        let caller = std::thread::current().id();
        assert_eq!(probes[0].get(), Some(caller));
        let worker = probes[1].get().expect("shard 1's process ran");
        assert_ne!(worker, caller);
        assert_eq!(sim.epochs(), 1, "both holds end inside the first epoch");
    }

    #[test]
    fn kernel_stats_sum_counts_and_max_arena() {
        let mut sim = ShardedSimulation::new(2, L);
        for shard in 0..2 {
            sim.spawn(shard, &format!("p{shard}"), move |ctx| {
                for _ in 0..(10 * (shard + 1)) {
                    ctx.hold(SimDuration::from_micros(1));
                }
            });
        }
        sim.run().unwrap();
        let total = sim.kernel_stats();
        let per: Vec<KernelStats> = (0..2).map(|i| sim.handle(i).kernel_stats()).collect();
        assert_eq!(total.fired, per[0].fired + per[1].fired);
        assert_eq!(total.scheduled, per[0].scheduled + per[1].scheduled);
        assert_eq!(
            total.arena_high_water,
            per[0].arena_high_water.max(per[1].arena_high_water)
        );
        assert_eq!(sim.events_executed(), total.fired);
    }

    #[test]
    fn repeated_sharded_runs_are_identical() {
        fn build_and_run() -> (u64, u64, Vec<(u64, usize)>) {
            let mut sim = ShardedSimulation::new(3, L);
            let handles: Vec<SimHandle> = (0..3).map(|i| sim.handle(i)).collect();
            type RunLog = Arc<Mutex<Vec<(u64, usize)>>>;
            let logs: Vec<RunLog> = (0..3).map(|_| Arc::new(Mutex::new(Vec::new()))).collect();
            for shard in 0..3usize {
                let h_next = handles[(shard + 1) % 3].clone();
                let log = Arc::clone(&logs[shard]);
                let log_next = Arc::clone(&logs[(shard + 1) % 3]);
                sim.spawn(shard, &format!("p{shard}"), move |ctx| {
                    for i in 0..20u64 {
                        ctx.hold(SimDuration::from_nanos((shard as u64 + 1) * 700 + i));
                        log.lock().push((ctx.now().as_nanos(), shard));
                        if i % 3 == 0 {
                            let t = ctx.now() + L;
                            let l = Arc::clone(&log_next);
                            let dst = (shard + 1) % 3;
                            h_next.schedule_at(t, move || l.lock().push((t.as_nanos(), dst)));
                        }
                    }
                });
            }
            let end = sim.run().unwrap();
            let merged: Vec<(u64, usize)> = logs.iter().flat_map(|l| l.lock().clone()).collect();
            (end.as_nanos(), sim.events_executed(), merged)
        }
        assert_eq!(build_and_run(), build_and_run());
    }
}

#[cfg(test)]
mod serial_equivalence {
    //! The determinism property, tested directly: run an identical
    //! randomized workload once in the serial kernel and once sharded, and
    //! demand that each shard's observed event order equals the serial
    //! run's order restricted to that shard's entities.
    //!
    //! Workload construction keeps the `(time, sched)` merge key unique
    //! wherever the serial kernel's order depends on cross-shard schedule
    //! interleaving (which no deterministic merge could reproduce):
    //! build-phase local events fire at even times, cross-shard arrivals at
    //! odd times, and each shard receives cross events from exactly one
    //! peer (a ring), mirroring the one-peer-per-NIC structure of the real
    //! comb-hw topologies.

    use super::*;
    use proptest::prelude::*;

    const LOOKAHEAD_NS: u64 = 4_000;

    /// One build-phase local event on a shard's entity.
    #[derive(Debug, Clone, Copy)]
    struct LocalEv {
        /// Fire time (forced even).
        t: u64,
        /// Cross-send to the ring successor: odd extra delay beyond the
        /// lookahead, or `None`.
        cross: Option<u64>,
        /// Whether the cross *arrival* schedules a local follow-up on the
        /// destination (at an even time again).
        follow: bool,
    }

    type Log = Arc<Mutex<Vec<(u64, usize, i64)>>>;
    /// End time plus each shard's observed event log.
    type RunOutcome = (u64, Vec<Vec<(u64, usize, i64)>>);

    /// Install the scripted workload on `handles[i]` per shard, logging
    /// into `logs[i]`. `handles`/`logs` have one entry per shard for the
    /// sharded run and can alias a single simulation for the serial run.
    fn install(script: &[Vec<LocalEv>], handles: &[SimHandle], logs: &[Log]) {
        let shards = script.len();
        for (shard, evs) in script.iter().enumerate() {
            let dst = (shard + 1) % shards;
            for (j, ev) in evs.iter().enumerate() {
                let log = Arc::clone(&logs[shard]);
                let log_dst = Arc::clone(&logs[dst]);
                let h_dst = handles[dst].clone();
                let ev = *ev;
                handles[shard].schedule_at(SimTime::from_nanos(ev.t), move || {
                    log.lock().push((ev.t, shard, j as i64));
                    if let Some(extra) = ev.cross {
                        // Odd arrival time: even t + odd (lookahead + extra).
                        let t_arr = ev.t + LOOKAHEAD_NS + extra;
                        let l = Arc::clone(&log_dst);
                        let h2 = h_dst.clone();
                        h_dst.schedule_at(SimTime::from_nanos(t_arr), move || {
                            l.lock().push((t_arr, dst, -(j as i64) - 1));
                            if ev.follow {
                                // Odd arrival + odd delta = even follow-up,
                                // scheduled locally on the destination.
                                let t_f = t_arr + 3;
                                let l2 = Arc::clone(&l);
                                h2.schedule_at(SimTime::from_nanos(t_f), move || {
                                    l2.lock().push((t_f, dst, -1_000_000 - j as i64));
                                });
                            }
                        });
                    }
                });
            }
        }
    }

    fn run_serial(script: &[Vec<LocalEv>]) -> RunOutcome {
        let shards = script.len();
        let mut sim = Simulation::new();
        let handles: Vec<SimHandle> = (0..shards).map(|_| sim.handle()).collect();
        let logs: Vec<Log> = (0..shards)
            .map(|_| Arc::new(Mutex::new(Vec::new())))
            .collect();
        install(script, &handles, &logs);
        let end = sim.run().unwrap();
        (
            end.as_nanos(),
            logs.iter().map(|l| l.lock().clone()).collect(),
        )
    }

    fn run_sharded(script: &[Vec<LocalEv>]) -> RunOutcome {
        let shards = script.len();
        let mut sim = ShardedSimulation::new(shards, SimDuration::from_nanos(LOOKAHEAD_NS));
        let handles: Vec<SimHandle> = (0..shards).map(|i| sim.handle(i)).collect();
        let logs: Vec<Log> = (0..shards)
            .map(|_| Arc::new(Mutex::new(Vec::new())))
            .collect();
        install(script, &handles, &logs);
        let end = sim.run().unwrap();
        (
            end.as_nanos(),
            logs.iter().map(|l| l.lock().clone()).collect(),
        )
    }

    fn to_script(shards: usize, raw: &[(u64, u8, bool)]) -> Vec<Vec<LocalEv>> {
        let mut script = vec![Vec::new(); shards];
        for (i, &(t, cross, follow)) in raw.iter().enumerate() {
            script[i % shards].push(LocalEv {
                t: (t % 50_000) * 2, // even, may collide across entities
                cross: (cross % 4 != 0).then_some(((cross as u64 % 8) * 2 + 1) * 250 * 2 + 1),
                follow,
            });
        }
        script
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Sharded per-shard event order equals the serial kernel's order
        /// restricted to that shard, for random schedules at 2–4 shards.
        #[test]
        fn epoch_merge_reproduces_serial_order(
            shards in 2usize..5,
            raw in proptest::collection::vec((0u64..50_000, any::<u8>(), any::<bool>()), 1..60)
        ) {
            let script = to_script(shards, &raw);
            let (serial_end, serial_logs) = run_serial(&script);
            let (sharded_end, sharded_logs) = run_sharded(&script);
            prop_assert_eq!(serial_end, sharded_end, "final virtual time diverged");
            for (shard, (s, p)) in serial_logs.iter().zip(sharded_logs.iter()).enumerate() {
                prop_assert_eq!(s, p, "event order diverged on shard {}", shard);
            }
        }
    }

    /// Same-time cross arrivals from one source preserve their push order,
    /// and arrivals interleave with local events by `(time, sched)` — a
    /// deterministic pinned case on top of the property test.
    #[test]
    fn pinned_same_time_arrivals_keep_push_order() {
        let script: Vec<Vec<LocalEv>> = vec![
            vec![
                // Both cross sends arrive at 10_000 + 4_001 = 14_001.
                LocalEv {
                    t: 10_000,
                    cross: Some(1),
                    follow: true,
                },
                LocalEv {
                    t: 10_000,
                    cross: Some(1),
                    follow: false,
                },
            ],
            vec![LocalEv {
                t: 14_000,
                cross: None,
                follow: false,
            }],
        ];
        let serial = run_serial(&script);
        let sharded = run_sharded(&script);
        assert_eq!(serial, sharded);
        // Destination shard saw: its local event, then the two arrivals in
        // push order, then the follow-up.
        assert_eq!(
            sharded.1[1],
            vec![
                (14_000, 1, 0),
                (14_001, 1, -1),
                (14_001, 1, -2),
                (14_004, 1, -1_000_000),
            ]
        );
    }
}
