//! The simulation kernel: shared state, scheduling handle, and the
//! event loop.
//!
//! The event loop runs on the thread that calls [`Simulation::run`] (a
//! shard worker, in a sharded run), on that thread's own stack, and never
//! leaves it: a process resume switches into the process's coroutine until
//! it parks again (see `process.rs`). The process table therefore lives in
//! [`Simulation`] itself; [`SimShared`] holds only what event closures and
//! processes reach through a [`SimHandle`].
//!
//! The event queue sits in an [`OwnedCell`] rather than behind a lock: the
//! loop claims the simulation's [`Owner`] once per run, so each schedule,
//! cancel and pop on its thread costs a plain load of the owner word and a
//! few non-atomic writes (see `cell.rs`).

use crate::cell::{OwnedCell, Owner, SimRefMut};
use crate::event::{EventId, EventKind, EventQueue, InlineCall, KernelStats, Trip};
use crate::process::{Proc, ProcCtx, ProcId, ShutdownToken};
use crate::time::{SimDuration, SimTime};
use parking_lot::Mutex;
use std::fmt;
use std::panic;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// State shared between the kernel, process contexts, and event closures.
pub(crate) struct SimShared {
    /// The thread that may touch this simulation's cells right now.
    pub owner: Owner,
    /// Reached only through [`SimShared::queue`], with `owner`.
    queue: OwnedCell<EventQueue>,
    /// Current virtual time in nanoseconds; written only by the event loop.
    pub clock: AtomicU64,
    /// Set when this simulation is one shard of a
    /// [`crate::ShardedSimulation`]: the shard's index and the router that
    /// carries cross-shard events. `None` for plain simulations, which
    /// keeps the serial scheduling hot path to a single branch.
    pub shard: Option<crate::shard::ShardSlot>,
    /// Where the event loop is suspended while one of this simulation's
    /// processes runs: the running process switches back to it when it
    /// parks. Written by the process on every resume, so it is only read
    /// and written on the loop's own thread.
    pub loop_sp: AtomicUsize,
}

impl SimShared {
    /// Borrow the event queue. Panics if another thread holds the
    /// simulation.
    #[inline(always)]
    pub(crate) fn queue(&self) -> SimRefMut<'_, EventQueue> {
        // SAFETY: the queue is only ever borrowed here, with the owner it
        // sits next to.
        unsafe { self.queue.borrow(&self.owner) }
    }
}

/// Cloneable, `Send` handle for interacting with a running simulation:
/// reading the clock, scheduling and cancelling events, creating signals.
///
/// Handles stay valid for the life of the [`Simulation`]; scheduling after
/// the run has finished is allowed (the events simply never fire).
#[derive(Clone)]
pub struct SimHandle {
    pub(crate) shared: Arc<SimShared>,
}

impl SimHandle {
    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.shared.clock.load(Ordering::Relaxed))
    }

    /// When this handle belongs to a shard of a sharded simulation and the
    /// calling thread is executing a *different* shard, return the
    /// `(src, slot)` pair describing the required cross-shard route.
    #[inline]
    fn cross_route(&self) -> Option<(usize, &crate::shard::ShardSlot)> {
        let slot = self.shared.shard.as_ref()?;
        let src = crate::shard::current_shard()?;
        (src != slot.id).then_some((src, slot))
    }

    /// Schedule `f` to run after delay `d`, on the event loop's stack.
    #[inline]
    pub fn schedule_in<F: FnOnce() + Send + 'static>(&self, d: SimDuration, f: F) -> EventId {
        if let Some((src, slot)) = self.cross_route() {
            let t = slot.router.src_now(src) + d;
            return slot.router.push(src, slot.id, t, Self::wrap(f));
        }
        let now = self.now();
        self.schedule_kind(now, now + d, Self::wrap(f))
    }

    /// Schedule `f` to run at absolute time `t`, on the event loop's
    /// stack. Panics if `t` is in the virtual past.
    ///
    /// Closures small enough for the inline fast path are stored directly
    /// in the event arena; only larger captures cost a heap allocation.
    ///
    /// Called from another shard of a sharded simulation, the event is
    /// routed through the epoch mailboxes instead and the returned id is a
    /// sentinel whose cancellation is a guaranteed no-op; `t` must then be
    /// at least one lookahead ahead of the source shard's clock.
    #[inline]
    pub fn schedule_at<F: FnOnce() + Send + 'static>(&self, t: SimTime, f: F) -> EventId {
        if let Some((src, slot)) = self.cross_route() {
            return slot.router.push(src, slot.id, t, Self::wrap(f));
        }
        let now = self.now();
        assert!(t >= now, "cannot schedule an event in the past");
        self.schedule_kind(now, t, Self::wrap(f))
    }

    #[inline]
    fn wrap<F: FnOnce() + Send + 'static>(f: F) -> EventKind {
        match InlineCall::try_new(f) {
            Ok(ic) => EventKind::Inline(ic),
            Err(f) => EventKind::Call(Box::new(f)),
        }
    }

    #[inline]
    fn schedule_kind(&self, now: SimTime, t: SimTime, kind: EventKind) -> EventId {
        self.shared.queue().schedule(now, t, kind)
    }

    /// Cancel a scheduled event. No-op if it already fired.
    ///
    /// Called from another shard of a sharded simulation, the only id it
    /// can hold for this shard is the [`EventId::CROSS_SHARD`] sentinel
    /// that `schedule_at` returned, and cancelling it does nothing: this
    /// shard's queue belongs to its own worker thread.
    pub fn cancel(&self, id: EventId) {
        if self.cross_route().is_some() {
            debug_assert_eq!(
                id,
                EventId::CROSS_SHARD,
                "cancelling another shard's event from this shard"
            );
            return;
        }
        self.shared.queue().cancel(id);
    }

    /// Move the scheduled event `id` to the later instant `t`: it fires as,
    /// and is counted as, the event that cancelling it and scheduling the
    /// same closure at `t` now would give, including its order among other
    /// events at `t`. O(1); the id stays valid. A computation that is
    /// interrupted pushes its completion back this way.
    ///
    /// Panics unless `id` is a pending event of this shard's queue, for a
    /// later instant than the one it was scheduled at, and `t` is later
    /// than its time.
    pub fn postpone(&self, id: EventId, t: SimTime) {
        assert!(
            self.cross_route().is_none(),
            "postponing another shard's event"
        );
        self.shared.queue().postpone(self.now(), id, t);
    }

    /// Schedule a process resume at absolute time `t` (internal; used by the
    /// wait/notify primitives). Processes are pinned to their shard, so a
    /// resume must never cross a shard boundary — wait/notify primitives
    /// are node-local by construction (the only cross-shard channel is the
    /// fabric wire, which carries closures, not resumes).
    pub(crate) fn schedule_resume(&self, pid: ProcId, t: SimTime) -> EventId {
        debug_assert!(
            self.cross_route().is_none(),
            "cross-shard process resume: a wait/notify primitive leaked \
             across a shard boundary"
        );
        self.shared
            .queue()
            .schedule(self.now(), t, EventKind::Resume(pid))
    }

    /// Run `events` would-be events in place: if the event loop would pop
    /// them next, advance the clock to `t`, charge them to the kernel
    /// counters and the run's limits exactly as if they had fired, and
    /// return true. The caller then carries on as it would after the last
    /// of them, with no schedule, no park and no stack switch.
    ///
    /// The events are a chain: the first fires at `t` and was scheduled
    /// now, and each later one is scheduled by the one before it for the
    /// same instant (a `Cpu` computation's completion and the resume it
    /// schedules, say). Only a running process may make the call, for
    /// events that wake nothing but itself.
    ///
    /// Returns false, changing nothing, when anything is queued at or
    /// before `t`, or when one of the events would trip a limit of the run
    /// (its event limit, a watchdog limit, `run_until`'s deadline or a
    /// shard's epoch end); the caller must then schedule the events as
    /// usual, and the loop trips at the same event with the same error.
    /// Panics if `t` is in the virtual past.
    #[inline]
    pub fn advance_in_place(&self, t: SimTime, events: u64) -> bool {
        debug_assert!(
            self.cross_route().is_none(),
            "running another shard's events in place"
        );
        let now = self.now();
        assert!(t >= now, "cannot advance into the past");
        if events == 0 || !self.shared.queue().skip(now, t, events) {
            return false;
        }
        self.shared.clock.store(t.as_nanos(), Ordering::Relaxed);
        true
    }

    /// Number of events executed so far (diagnostics).
    pub fn events_executed(&self) -> u64 {
        self.shared.queue().stats.fired
    }

    /// Snapshot of this simulation's kernel hot-path counters.
    pub fn kernel_stats(&self) -> KernelStats {
        self.shared.queue().stats
    }
}

/// Why a simulation run stopped abnormally.
#[derive(Debug)]
pub enum SimError {
    /// The event queue drained but some processes never finished — they are
    /// parked forever.
    Deadlock {
        /// Names of the processes still parked.
        parked: Vec<String>,
    },
    /// A simulated process panicked.
    ProcessPanicked {
        /// Name of the panicking process.
        name: String,
        /// The panic message.
        message: String,
    },
    /// `run_with_limit` executed more events than allowed.
    EventLimitExceeded {
        /// The limit that was exceeded.
        limit: u64,
    },
    /// The watchdog saw too many events execute without virtual time
    /// advancing — a zero-delay event loop (livelock), e.g. a timer that
    /// re-arms itself at the current instant forever.
    WatchdogStalled {
        /// Events executed at the stalled instant before the abort.
        events: u64,
        /// The virtual time the clock was stuck at.
        at: SimTime,
    },
    /// The watchdog saw virtual time pass the configured deadline — the
    /// run never terminates on its own (e.g. an abandoned retry protocol
    /// slowly re-arming forever), or is wildly slower than its budget.
    WatchdogDeadline {
        /// The virtual-time deadline that was exceeded.
        deadline: SimTime,
        /// Names of processes that had not finished at the abort.
        unfinished: Vec<String>,
    },
}

impl SimError {
    /// True for the two watchdog aborts ([`SimError::WatchdogStalled`] and
    /// [`SimError::WatchdogDeadline`]).
    pub fn is_watchdog(&self) -> bool {
        matches!(
            self,
            SimError::WatchdogStalled { .. } | SimError::WatchdogDeadline { .. }
        )
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { parked } => {
                write!(f, "simulation deadlock; parked processes: {parked:?}")
            }
            SimError::ProcessPanicked { name, message } => {
                write!(f, "simulated process '{name}' panicked: {message}")
            }
            SimError::EventLimitExceeded { limit } => {
                write!(f, "event limit of {limit} exceeded")
            }
            SimError::WatchdogStalled { events, at } => {
                write!(
                    f,
                    "watchdog: livelock — {events} events executed with virtual \
                     time stuck at {at}"
                )
            }
            SimError::WatchdogDeadline {
                deadline,
                unfinished,
            } => {
                write!(
                    f,
                    "watchdog: virtual-time deadline {deadline} exceeded; \
                     unfinished processes: {unfinished:?}"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Limits enforced by [`Simulation::run_with_watchdog`]. Any limit set to
/// its disabled value is simply not checked, so a config can bound one
/// axis without the others.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Abort once this many events execute at a single virtual instant
    /// without the clock advancing (`0` disables). Catches zero-delay
    /// event loops that [`Simulation::run`] would spin on forever.
    pub max_stalled_events: u64,
    /// Abort when virtual time passes this deadline (`None` disables).
    /// Catches slowly re-arming timer chains that advance the clock but
    /// never drain the queue.
    pub deadline: Option<SimTime>,
    /// Abort after this many events in total (`0` disables) — a coarse
    /// cost bound, equivalent to [`Simulation::run_with_limit`].
    pub max_events: u64,
}

impl WatchdogConfig {
    /// A permissive default: one million events at a single instant, no
    /// deadline, no total-event bound. Tight enough to catch any real
    /// zero-delay loop, loose enough that no legitimate benchmark point
    /// comes near it.
    pub fn lenient() -> WatchdogConfig {
        WatchdogConfig {
            max_stalled_events: 1_000_000,
            deadline: None,
            max_events: 0,
        }
    }

    /// This config with a virtual-time deadline.
    pub fn with_deadline(mut self, deadline: SimTime) -> WatchdogConfig {
        self.deadline = Some(deadline);
        self
    }
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig::lenient()
    }
}

/// Names of the processes in `procs` that have not finished.
fn unfinished(procs: &[Proc]) -> Vec<String> {
    procs
        .iter()
        .filter(|p| !p.is_finished())
        .map(|p| p.name.clone())
        .collect()
}

/// Thread-safe cell for extracting results out of simulated processes.
///
/// Simulated process closures must be `'static`, so they cannot borrow from
/// the driver's stack; a `Probe` is the idiomatic way to get a value out.
pub struct Probe<T> {
    inner: Arc<Mutex<Option<T>>>,
}

impl<T> Clone for Probe<T> {
    fn clone(&self) -> Self {
        Probe {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Default for Probe<T> {
    fn default() -> Self {
        Probe {
            inner: Arc::new(Mutex::new(None)),
        }
    }
}

impl<T> Probe<T> {
    /// Create an empty probe.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store a value (replacing any previous one).
    pub fn set(&self, value: T) {
        *self.inner.lock() = Some(value);
    }

    /// Take the value out, leaving the probe empty.
    pub fn take(&self) -> Option<T> {
        self.inner.lock().take()
    }

    /// True if a value has been stored.
    pub fn is_set(&self) -> bool {
        self.inner.lock().is_some()
    }
}

impl<T: Clone> Probe<T> {
    /// Clone the stored value out.
    pub fn get(&self) -> Option<T> {
        self.inner.lock().clone()
    }
}

/// A deterministic process-oriented discrete-event simulation.
///
/// ```
/// use comb_sim::{Simulation, SimDuration};
///
/// let mut sim = Simulation::new();
/// let probe = sim.probe::<u64>();
/// sim.spawn("worker", move |ctx| {
///     ctx.hold(SimDuration::from_micros(3));
///     probe.set(ctx.now().as_nanos());
/// });
/// sim.run().unwrap();
/// ```
pub struct Simulation {
    shared: Arc<SimShared>,
    /// The process table: each process's name, body or coroutine. Only the
    /// event loop, which runs inside `&mut self` methods, touches it.
    procs: Vec<Proc>,
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulation {
    /// Create an empty simulation at virtual time zero.
    pub fn new() -> Self {
        Simulation::new_inner(None)
    }

    /// A simulation that is one shard of a [`crate::ShardedSimulation`].
    pub(crate) fn new_sharded(slot: crate::shard::ShardSlot) -> Self {
        Simulation::new_inner(Some(slot))
    }

    fn new_inner(shard: Option<crate::shard::ShardSlot>) -> Self {
        install_shutdown_panic_hook();
        Simulation {
            shared: Arc::new(SimShared {
                owner: Owner::new(),
                queue: OwnedCell::new(EventQueue::default()),
                clock: AtomicU64::new(0),
                shard,
                loop_sp: AtomicUsize::new(0),
            }),
            procs: Vec::new(),
        }
    }

    /// This simulation's shared state (shard coordinator internals).
    pub(crate) fn shared_arc(&self) -> &Arc<SimShared> {
        &self.shared
    }

    /// Fire time of this shard's most recently executed event (shard
    /// coordinator internals; the clock itself fast-forwards to epoch
    /// boundaries and overshoots it).
    pub(crate) fn last_event_time(&self) -> SimTime {
        self.shared.queue().last_fired
    }

    /// Names of processes that have not finished (watchdog diagnostics).
    pub(crate) fn unfinished_procs(&self) -> Vec<String> {
        unfinished(&self.procs)
    }

    /// A handle for scheduling events and creating signals.
    pub fn handle(&self) -> SimHandle {
        SimHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Convenience constructor for a result [`Probe`].
    pub fn probe<T>(&self) -> Probe<T> {
        Probe::new()
    }

    /// Spawn a simulated process. It becomes runnable at the current
    /// virtual time (after already-scheduled same-time events). Its stack
    /// is mapped when it first runs.
    pub fn spawn<F>(&mut self, name: &str, f: F) -> ProcId
    where
        F: FnOnce(&ProcCtx) + Send + 'static,
    {
        let pid = ProcId(self.procs.len());
        let handle = self.handle();
        handle.schedule_resume(pid, handle.now());
        self.procs.push(Proc::new(name, pid, handle, f));
        pid
    }

    /// Run until the event queue drains. Returns the final virtual time.
    pub fn run(&mut self) -> Result<SimTime, SimError> {
        self.run_with_limit(u64::MAX)
    }

    /// Run until the queue drains or `max_events` events have executed.
    pub fn run_with_limit(&mut self, max_events: u64) -> Result<SimTime, SimError> {
        self.run_inner(max_events, SimTime::MAX, false, None)
    }

    /// Run until the queue drains, aborting with a diagnostic
    /// [`SimError`] if any watchdog limit trips: a livelock (too many
    /// events at one instant), a virtual-time deadline overrun, or a
    /// total event budget. A tripped watchdog leaves the simulation in a
    /// torn state — it must be dropped, not resumed.
    pub fn run_with_watchdog(&mut self, wd: &WatchdogConfig) -> Result<SimTime, SimError> {
        let max = if wd.max_events > 0 {
            wd.max_events
        } else {
            u64::MAX
        };
        self.run_inner(max, SimTime::MAX, false, Some(wd))
    }

    /// Run until the first event strictly after `deadline` (which stays
    /// queued), or until the queue drains. Unlike [`Simulation::run`],
    /// still-parked processes are not an error — the simulation can be
    /// resumed with another `run_until`/`run` call.
    pub fn run_until(&mut self, deadline: SimTime) -> Result<SimTime, SimError> {
        self.run_inner(u64::MAX, deadline, true, None)
    }

    /// [`Simulation::run_until`] under an optional watchdog (shard epoch
    /// internals). The watchdog's `max_events` budget applies per call —
    /// per epoch, when driven by the shard coordinator — rather than to
    /// the whole run; the stall and deadline limits are unaffected.
    pub(crate) fn run_until_wd(
        &mut self,
        deadline: SimTime,
        wd: Option<&WatchdogConfig>,
    ) -> Result<SimTime, SimError> {
        let max = match wd {
            Some(w) if w.max_events > 0 => w.max_events,
            _ => u64::MAX,
        };
        self.run_inner(max, deadline, true, wd)
    }

    fn run_inner(
        &mut self,
        max_events: u64,
        deadline: SimTime,
        partial: bool,
        wd: Option<&WatchdogConfig>,
    ) -> Result<SimTime, SimError> {
        // Hold the simulation for the whole run, so every borrow on the
        // loop's thread takes the fast path. Released when the run returns
        // or unwinds.
        let shared = Arc::clone(&self.shared);
        let _claim = shared.owner.enter(|| "Simulation");
        let end = self.run_loop(max_events, deadline, wd);
        self.shared.queue().end_run();
        // Flush per-sim counters into the process-wide totals after every
        // run (success or abort). Drop flushes too, but hardware models
        // keep `SimHandle` clones alive in reference cycles, so many real
        // simulations are never dropped at all — the run boundary is the
        // reliable flush point.
        self.shared.queue().flush_global();
        end?;
        if partial {
            // Fast-forward the clock to the deadline if nothing else is
            // pending before it, so repeated run_until calls compose.
            if deadline != SimTime::MAX {
                self.shared
                    .clock
                    .fetch_max(deadline.as_nanos(), Ordering::Relaxed);
            }
            return Ok(self.handle().now());
        }
        let parked = unfinished(&self.procs);
        if parked.is_empty() {
            Ok(self.handle().now())
        } else {
            Err(SimError::Deadlock { parked })
        }
    }

    /// The event loop, on the calling thread's own stack: pop each due
    /// event and run it, switching into a process for a resume. Returns
    /// when the queue drains (up to `deadline`, inclusive), a limit trips
    /// or a process panics; a panicking event closure unwinds out of it.
    ///
    /// The run's limits and counters live in the queue, so that a process
    /// can charge events it runs in place ([`SimHandle::advance_in_place`])
    /// against them exactly as this loop would.
    fn run_loop(
        &mut self,
        max_events: u64,
        deadline: SimTime,
        wd: Option<&WatchdogConfig>,
    ) -> Result<(), SimError> {
        let Simulation { shared, procs } = self;
        shared.queue().begin_run(max_events, deadline, wd);
        let mut trip = None;
        loop {
            let now = shared.clock.load(Ordering::Relaxed);
            let ev = shared.queue().pop_next(SimTime::from_nanos(now), &mut trip);
            let Some(ev) = ev else {
                return match trip {
                    None => Ok(()),
                    Some(Trip::Limit(limit)) => Err(SimError::EventLimitExceeded { limit }),
                    Some(Trip::Stalled { events, at }) => {
                        Err(SimError::WatchdogStalled { events, at })
                    }
                    Some(Trip::Deadline(deadline)) => Err(SimError::WatchdogDeadline {
                        deadline,
                        unfinished: unfinished(procs),
                    }),
                };
            };
            debug_assert!(
                ev.time.as_nanos() >= now,
                "event queue went backwards in time"
            );
            shared.clock.store(ev.time.as_nanos(), Ordering::Relaxed);
            match ev.kind {
                EventKind::Inline(ic) => ic.invoke(),
                EventKind::Call(f) => f(),
                EventKind::Resume(pid) => procs[pid.0].resume()?,
            }
        }
    }
}

impl Drop for Simulation {
    fn drop(&mut self) {
        // Hold the simulation throughout: unwinding processes may touch
        // its models.
        let shared = Arc::clone(&self.shared);
        let Some(_claim) = shared.owner.try_enter() else {
            // Another thread is inside one of this simulation's cells right
            // now. Unwinding the processes or emptying the queue here would
            // race it, and a panic in `drop` may abort: leak the processes'
            // stacks and leave the queue to the last handle instead.
            std::mem::forget(std::mem::take(&mut self.procs));
            return;
        };
        // Unwind every suspended process first (on its home thread; see
        // `Proc`'s drop): its destructors may still schedule events. A run
        // that unwound left its limits open: close them, so nothing runs in
        // place outside a run.
        self.shared.queue().end_run();
        self.procs.clear();
        // Hardware models hold `SimHandle`s in reference cycles (an MPI
        // engine and its NIC point at each other), so the shared state can
        // outlive this simulation. Give its bulk — the event arena and
        // queue buffers, with any events still pending — back now. The
        // events are dropped outside the borrow: their captures may
        // schedule.
        let storage = self.shared.queue().take_storage();
        drop(storage);
    }
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Install (once) a panic hook that suppresses the teardown-unwind token so
/// dropping a simulation with parked processes does not spam stderr, while
/// forwarding every other panic to the previous hook.
fn install_shutdown_panic_hook() {
    use std::sync::Once;
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<ShutdownToken>().is_some() {
                return;
            }
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_order_and_clock_advances() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let log = Arc::new(Mutex::new(Vec::new()));
        let (l1, l2, l3) = (log.clone(), log.clone(), log.clone());
        let h2 = h.clone();
        h.schedule_in(SimDuration::from_nanos(20), move || l1.lock().push(2));
        h.schedule_in(SimDuration::from_nanos(10), move || {
            l2.lock().push(1);
            // Nested scheduling from an event closure.
            h2.schedule_in(SimDuration::from_nanos(100), move || l3.lock().push(3));
        });
        let end = sim.run().unwrap();
        assert_eq!(*log.lock(), vec![1, 2, 3]);
        assert_eq!(end.as_nanos(), 110);
    }

    #[test]
    fn cancelled_event_never_fires() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let fired = Arc::new(Mutex::new(false));
        let f = fired.clone();
        let id = h.schedule_in(SimDuration::from_nanos(5), move || *f.lock() = true);
        h.cancel(id);
        sim.run().unwrap();
        assert!(!*fired.lock());
    }

    #[test]
    fn two_processes_interleave_deterministically() {
        let mut sim = Simulation::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let (la, lb) = (log.clone(), log.clone());
        sim.spawn("a", move |ctx| {
            for i in 0..3 {
                ctx.hold(SimDuration::from_nanos(10));
                la.lock().push(("a", i, ctx.now().as_nanos()));
            }
        });
        sim.spawn("b", move |ctx| {
            for i in 0..3 {
                ctx.hold(SimDuration::from_nanos(15));
                lb.lock().push(("b", i, ctx.now().as_nanos()));
            }
        });
        sim.run().unwrap();
        let got = log.lock().clone();
        assert_eq!(
            got,
            vec![
                ("a", 0, 10),
                ("b", 0, 15),
                ("a", 1, 20),
                // At t=30 both are runnable; b's resume was scheduled at
                // t=15, a's at t=20, so b fires first (FIFO among ties).
                ("b", 1, 30),
                ("a", 2, 30),
                ("b", 2, 45),
            ]
        );
    }

    #[test]
    fn process_panic_is_reported() {
        let mut sim = Simulation::new();
        sim.spawn("boom", |_ctx| panic!("kaboom"));
        match sim.run() {
            Err(SimError::ProcessPanicked { name, message }) => {
                assert_eq!(name, "boom");
                assert!(message.contains("kaboom"));
            }
            other => panic!("expected panic error, got {other:?}"),
        }
    }

    #[test]
    fn event_closure_panic_during_a_hold_unwinds_out_of_run_on_the_callers_thread() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let ran_on: Probe<std::thread::ThreadId> = Probe::new();
        let r = ran_on.clone();
        sim.spawn("host", move |ctx| {
            h.schedule_in(SimDuration::from_nanos(5), move || {
                r.set(std::thread::current().id());
                panic::panic_any(42u32);
            });
            // The process parks here; the loop fires the closure on its
            // own stack, not on this process's.
            ctx.hold(SimDuration::from_nanos(10));
        });
        let payload = panic::catch_unwind(panic::AssertUnwindSafe(|| sim.run()))
            .expect_err("the closure's panic must unwind out of run");
        assert_eq!(payload.downcast_ref::<u32>(), Some(&42), "original payload");
        assert_eq!(ran_on.get(), Some(std::thread::current().id()));
        drop(sim); // the suspended process unwinds quietly
    }

    #[test]
    fn deadlock_is_detected_and_teardown_is_clean() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        sim.spawn("stuck", move |ctx| {
            // Park on a signal that nobody ever fires.
            let sig = crate::Signal::new(&h);
            sig.wait(ctx);
        });
        match sim.run() {
            Err(SimError::Deadlock { parked }) => assert_eq!(parked, vec!["stuck".to_string()]),
            other => panic!("expected deadlock, got {other:?}"),
        }
        drop(sim); // must not hang or print
    }

    #[test]
    fn event_limit_is_enforced() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        // Self-perpetuating event chain.
        fn chain(h: SimHandle) {
            let h2 = h.clone();
            h.schedule_in(SimDuration::from_nanos(1), move || chain(h2));
        }
        chain(h);
        match sim.run_with_limit(1000) {
            Err(SimError::EventLimitExceeded { limit }) => assert_eq!(limit, 1000),
            other => panic!("expected limit error, got {other:?}"),
        }
    }

    #[test]
    fn probe_roundtrip() {
        let p: Probe<u32> = Probe::new();
        assert!(!p.is_set());
        p.set(7);
        assert_eq!(p.get(), Some(7));
        assert_eq!(p.take(), Some(7));
        assert!(p.take().is_none());
    }

    #[test]
    fn identical_runs_execute_identical_event_counts() {
        fn build_and_run() -> (u64, u64) {
            let mut sim = Simulation::new();
            for p in 0..4 {
                sim.spawn(&format!("p{p}"), move |ctx| {
                    for i in 0..50 {
                        ctx.hold(SimDuration::from_nanos((p as u64 + 1) * (i + 1)));
                    }
                });
            }
            let end = sim.run().unwrap();
            (end.as_nanos(), sim.handle().events_executed())
        }
        assert_eq!(build_and_run(), build_and_run());
    }
}

#[cfg(test)]
mod watchdog_tests {
    use super::*;

    #[test]
    fn zero_delay_event_loop_trips_the_stall_watchdog() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        // An event that re-schedules itself with zero delay: virtual time
        // never advances, the queue never drains.
        fn spin(h: SimHandle) {
            let h2 = h.clone();
            h.schedule_in(SimDuration::ZERO, move || spin(h2));
        }
        spin(h);
        let wd = WatchdogConfig {
            max_stalled_events: 500,
            deadline: None,
            max_events: 0,
        };
        match sim.run_with_watchdog(&wd) {
            Err(SimError::WatchdogStalled { events, at }) => {
                assert_eq!(events, 500);
                assert_eq!(at.as_nanos(), 0);
            }
            other => panic!("expected stall abort, got {other:?}"),
        }
    }

    #[test]
    fn rearming_timer_chain_trips_the_deadline_watchdog() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        // Advances time 1 us per firing, forever — the stall detector
        // never trips, only the deadline can.
        fn rearm(h: SimHandle) {
            let h2 = h.clone();
            h.schedule_in(SimDuration::from_micros(1), move || rearm(h2));
        }
        rearm(h);
        let wd = WatchdogConfig::lenient().with_deadline(SimTime::from_nanos(50_000));
        match sim.run_with_watchdog(&wd) {
            Err(SimError::WatchdogDeadline { deadline, .. }) => {
                assert_eq!(deadline.as_nanos(), 50_000);
            }
            other => panic!("expected deadline abort, got {other:?}"),
        }
    }

    #[test]
    fn deadline_abort_reports_unfinished_processes() {
        let mut sim = Simulation::new();
        sim.spawn("turtle", |ctx| {
            for _ in 0..1_000 {
                ctx.hold(SimDuration::from_micros(10));
            }
        });
        let wd = WatchdogConfig::lenient().with_deadline(SimTime::from_nanos(5_000));
        match sim.run_with_watchdog(&wd) {
            Err(SimError::WatchdogDeadline { unfinished, .. }) => {
                assert_eq!(unfinished, vec!["turtle".to_string()]);
            }
            other => panic!("expected deadline abort, got {other:?}"),
        }
        drop(sim); // teardown after an abort must not hang
    }

    #[test]
    fn healthy_runs_pass_untouched_under_the_watchdog() {
        let run = |wd: Option<WatchdogConfig>| -> (u64, u64) {
            let mut sim = Simulation::new();
            for p in 0..3 {
                sim.spawn(&format!("p{p}"), move |ctx| {
                    for i in 0..40 {
                        ctx.hold(SimDuration::from_nanos((p as u64 + 1) * (i + 1)));
                    }
                });
            }
            let end = match wd {
                Some(wd) => sim.run_with_watchdog(&wd).unwrap(),
                None => sim.run().unwrap(),
            };
            (end.as_nanos(), sim.handle().events_executed())
        };
        let plain = run(None);
        let watched = run(Some(
            WatchdogConfig::lenient().with_deadline(SimTime::from_nanos(u64::MAX)),
        ));
        assert_eq!(plain, watched, "watchdog must not perturb the simulation");
    }

    #[test]
    fn watchdog_total_event_budget_is_enforced() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        fn chain(h: SimHandle) {
            let h2 = h.clone();
            h.schedule_in(SimDuration::from_nanos(1), move || chain(h2));
        }
        chain(h);
        let wd = WatchdogConfig {
            max_stalled_events: 0,
            deadline: None,
            max_events: 250,
        };
        match sim.run_with_watchdog(&wd) {
            Err(SimError::EventLimitExceeded { limit }) => assert_eq!(limit, 250),
            other => panic!("expected event budget abort, got {other:?}"),
        }
    }
}

#[cfg(test)]
mod run_until_tests {
    use super::*;
    use crate::Signal;

    #[test]
    fn run_until_stops_at_deadline_and_resumes() {
        let mut sim = Simulation::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let l = log.clone();
        sim.spawn("p", move |ctx| {
            for i in 0..5 {
                ctx.hold(SimDuration::from_micros(10));
                l.lock().push(i);
            }
        });
        let t = sim.run_until(SimTime::from_nanos(25_000)).unwrap();
        assert_eq!(t, SimTime::from_nanos(25_000));
        assert_eq!(*log.lock(), vec![0, 1], "only events up to 25us ran");
        // Resume to completion.
        let end = sim.run().unwrap();
        assert_eq!(end, SimTime::from_nanos(50_000));
        assert_eq!(*log.lock(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn run_until_with_parked_processes_is_not_a_deadlock() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let sig = Signal::new(&h);
        let s = sig.clone();
        sim.spawn("waiter", move |ctx| s.wait(ctx));
        // Nothing fires the signal before the deadline; that's fine.
        let t = sim.run_until(SimTime::from_nanos(1_000)).unwrap();
        assert_eq!(t, SimTime::from_nanos(1_000));
        // Fire it and finish cleanly.
        sig.fire();
        sim.run().unwrap();
    }

    #[test]
    fn run_until_composes_and_clock_is_monotone() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let count = Arc::new(Mutex::new(0u32));
        for i in 1..=10u64 {
            let c = count.clone();
            h.schedule_in(SimDuration::from_micros(i), move || *c.lock() += 1);
        }
        for deadline_us in [3u64, 3, 7, 20] {
            let t = sim
                .run_until(SimTime::from_nanos(deadline_us * 1000))
                .unwrap();
            assert_eq!(t.as_nanos(), deadline_us * 1000);
        }
        assert_eq!(*count.lock(), 10);
    }
}

/// A process that is due next runs on in place (`SimHandle::advance_in_place`):
/// these check that the kernel's counters, and every limit the loop
/// enforces, come out exactly as if its wake-up had been queued and popped.
#[cfg(test)]
mod in_place_tests {
    use super::*;

    /// `(scheduled, fired, cancelled, lane_scheduled, arena_high_water)`.
    fn counts(h: &SimHandle) -> (u64, u64, u64, u64, u64) {
        let s = h.kernel_stats();
        (
            s.scheduled,
            s.fired,
            s.cancelled,
            s.lane_scheduled,
            s.arena_high_water,
        )
    }

    #[test]
    fn a_lone_hold_loop_charges_every_resume() {
        let mut sim = Simulation::new();
        sim.spawn("p", |ctx| {
            for _ in 0..10 {
                ctx.hold(SimDuration::from_nanos(3));
            }
            ctx.hold(SimDuration::ZERO);
        });
        assert_eq!(sim.run().unwrap().as_nanos(), 30);
        // The spawn's resume and the zero hold take the lane; one event is
        // live at a time.
        assert_eq!(counts(&sim.handle()), (12, 12, 0, 2, 1));
    }

    #[test]
    fn a_hold_to_the_instant_of_a_queued_event_lets_that_event_run_first() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let log = Arc::new(Mutex::new(Vec::new()));
        let (l, hl) = (Arc::clone(&log), h.clone());
        h.schedule_in(SimDuration::from_nanos(10), move || {
            l.lock().push(("event", hl.now().as_nanos()))
        });
        let l = Arc::clone(&log);
        sim.spawn("p", move |ctx| {
            ctx.hold(SimDuration::from_nanos(10));
            l.lock().push(("process", ctx.now().as_nanos()));
            // Only later events are queued: this hold runs in place, and
            // the arena peaks with its resume live beside them.
            for _ in 0..2 {
                ctx.handle()
                    .schedule_in(SimDuration::from_nanos(100), || {});
            }
            ctx.hold(SimDuration::from_nanos(5));
            l.lock().push(("process", ctx.now().as_nanos()));
        });
        assert_eq!(sim.run().unwrap().as_nanos(), 110);
        assert_eq!(
            *log.lock(),
            vec![("event", 10), ("process", 10), ("process", 15)]
        );
        assert_eq!(counts(&h), (6, 6, 0, 1, 3));
    }

    #[test]
    fn the_event_limit_trips_at_the_same_event_over_a_hold_loop() {
        let mut sim = Simulation::new();
        sim.spawn("p", |ctx| {
            for _ in 0..1_000 {
                ctx.hold(SimDuration::from_nanos(1));
            }
        });
        match sim.run_with_limit(100) {
            Err(SimError::EventLimitExceeded { limit }) => assert_eq!(limit, 100),
            other => panic!("expected the event limit, got {other:?}"),
        }
        // Event 101, the resume at 100 ns, trips: popped, not run.
        let h = sim.handle();
        assert_eq!(h.events_executed(), 101);
        assert_eq!(h.now().as_nanos(), 99);
        assert_eq!(counts(&h), (101, 101, 0, 1, 1));
    }

    #[test]
    fn the_stall_watchdog_trips_at_the_same_event_over_a_zero_hold_loop() {
        let mut sim = Simulation::new();
        sim.spawn("spinner", |ctx| {
            for _ in 0..10_000 {
                ctx.hold(SimDuration::ZERO);
            }
        });
        let wd = WatchdogConfig {
            max_stalled_events: 500,
            deadline: None,
            max_events: 0,
        };
        match sim.run_with_watchdog(&wd) {
            Err(SimError::WatchdogStalled { events, at }) => {
                assert_eq!((events, at.as_nanos()), (500, 0));
            }
            other => panic!("expected a stall abort, got {other:?}"),
        }
        // The spawn's resume is the first event at instant 0.
        let h = sim.handle();
        assert_eq!(h.events_executed(), 500);
        assert_eq!(counts(&h), (500, 500, 0, 500, 1));
    }

    #[test]
    fn the_deadline_watchdog_trips_at_the_same_event_over_a_hold_loop() {
        let mut sim = Simulation::new();
        sim.spawn("turtle", |ctx| {
            for _ in 0..1_000 {
                ctx.hold(SimDuration::from_micros(10));
            }
        });
        let wd = WatchdogConfig::lenient().with_deadline(SimTime::from_nanos(55_000));
        match sim.run_with_watchdog(&wd) {
            Err(SimError::WatchdogDeadline {
                deadline,
                unfinished,
            }) => {
                assert_eq!(deadline.as_nanos(), 55_000);
                assert_eq!(unfinished, vec!["turtle".to_string()]);
            }
            other => panic!("expected a deadline abort, got {other:?}"),
        }
        // The spawn's resume, the wake-ups at 10..=50 us, then the one at
        // 60 us trips.
        let h = sim.handle();
        assert_eq!(h.events_executed(), 7);
        assert_eq!(h.now().as_nanos(), 50_000);
    }

    #[test]
    fn a_hold_past_run_until_stays_parked_and_the_next_run_resumes_it() {
        let mut sim = Simulation::new();
        let woke = Arc::new(Mutex::new(Vec::new()));
        let w = Arc::clone(&woke);
        sim.spawn("p", move |ctx| {
            for _ in 0..5 {
                ctx.hold(SimDuration::from_micros(10));
                w.lock().push(ctx.now().as_nanos());
            }
        });
        let h = sim.handle();
        let t = sim.run_until(SimTime::from_nanos(25_000)).unwrap();
        assert_eq!(t.as_nanos(), 25_000);
        assert_eq!(*woke.lock(), vec![10_000, 20_000]);
        // The wake-up at 30 us is queued, not run.
        assert_eq!(counts(&h), (4, 3, 0, 1, 1));
        assert_eq!(h.kernel_stats().scheduled - h.events_executed(), 1);
        assert_eq!(sim.run().unwrap().as_nanos(), 50_000);
        assert_eq!(*woke.lock(), vec![10_000, 20_000, 30_000, 40_000, 50_000]);
        assert_eq!(counts(&h), (6, 6, 0, 1, 1));
    }

    #[test]
    fn on_two_shards_a_hold_across_the_epoch_end_is_not_run_in_place() {
        let lookahead = SimDuration::from_micros(5);
        let mut sim = crate::ShardedSimulation::new(2, lookahead);
        let h0 = sim.handle(0);
        let log = Arc::new(Mutex::new(Vec::new()));
        let l = Arc::clone(&log);
        sim.spawn(0, "sleeper", move |ctx| {
            // Shard 0's queue is empty, but the first epoch ends before
            // 5 us, and shard 1's event for 5.001 us arrives at its barrier.
            ctx.hold(SimDuration::from_micros(6));
            l.lock().push(("sleeper", ctx.now().as_nanos()));
            // Inside the epoch from 5.001 us: runs in place, and is still
            // the run's last event.
            ctx.hold(SimDuration::from_micros(1));
        });
        let l = Arc::clone(&log);
        sim.spawn(1, "sender", move |ctx| {
            let t = ctx.now() + lookahead + SimDuration::from_nanos(1);
            let (l, h) = (Arc::clone(&l), h0.clone());
            h0.schedule_at(t, move || l.lock().push(("event", h.now().as_nanos())));
        });
        assert_eq!(sim.run().unwrap().as_nanos(), 7_000);
        assert_eq!(*log.lock(), vec![("event", 5_001), ("sleeper", 6_000)]);
        // Two spawns, the routed event and the sleeper's two wake-ups.
        assert_eq!(sim.events_executed(), 5);
    }
}
