//! Simulated processes.
//!
//! Each simulated process runs on a stackful coroutine of its own (see
//! `coro.rs`), so simulated code reads like the paper's pseudocode —
//! straight-line loops with blocking `hold`/`wait` calls — while the whole
//! simulation runs on one OS thread: the one that called `run` (or the
//! shard worker, in a sharded run). The event loop stays on that thread's
//! own stack:
//!
//! * an `EventKind::Resume(pid)` event switches into process `pid`;
//! * `hold` schedules the process's resume and parks, and
//!   [`crate::Signal`] and [`crate::Condition`] register it as a waiter and
//!   park; parking switches back to the loop, which pops the next event;
//! * a process whose function returns, or panics, switches back for the
//!   last time; the panic is caught at the coroutine's entry and reported
//!   as [`crate::SimError::ProcessPanicked`].
//!
//! Handing control to another process costs two stack switches, a few
//! nanoseconds each. A process whose own wake-up the loop would pop next (a
//! `hold` with nothing queued at or before it) switches not at all: it
//! advances the clock in place and carries on, and its resume is charged to
//! the kernel counters and the run's limits as if it had fired (see
//! `SimHandle::advance_in_place`). Event closures run on the loop's stack,
//! so a panicking closure unwinds straight out of `run`.
//!
//! A process is pinned to the OS thread that first resumed it: resuming it
//! anywhere else panics. That pinning is what lets models keep their state
//! in simulation-owned cells (`cell.rs`) instead of mutexes: the loop holds
//! its simulation for the whole run, so every process and event closure of
//! that run borrows on the one thread that owns the simulation, and a
//! borrow from any other thread panics instead of racing. **Hold no borrow
//! across `hold`, `wait` or `park`**: an event closure, or another process,
//! that borrows the same cell meanwhile panics with "already borrowed".
//!
//! Every run is fully deterministic: the event order is the queue's.

use crate::coro::{switch, Coroutine, Transfer};
use crate::event::EventKind;
use crate::kernel::{panic_message, SimError, SimHandle};
use crate::time::{SimDuration, SimTime};
use std::cell::Cell;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;

/// Identifier of a simulated process within one [`crate::Simulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub(crate) usize);

impl ProcId {
    /// Raw index, stable for the life of the simulation.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Word the loop resumes a parked process with: carry on.
const GO: usize = 0;
/// Word the loop resumes a parked process with: the simulation is being
/// torn down, unwind.
const SHUTDOWN: usize = 1;
/// Word a process switches out with when it parks. Any other word is the
/// `Box<Result<(), String>>` it leaks on its way out: its function
/// returned, or panicked with that message.
const PARKED: usize = 0;

/// Panic payload used to unwind suspended processes during simulation
/// teardown. Never observable by user code.
pub(crate) struct ShutdownToken;

/// Execution context handed to each simulated process.
///
/// All blocking operations (`hold`, [`crate::Signal::wait`]) go through this
/// context; everything else (scheduling events, reading the clock) is also
/// available on the embedded [`SimHandle`].
///
/// A `ProcCtx` is `Send` but not `Sync`: a process only ever lends it out
/// by shared reference, so no other OS thread can reach it, and parking
/// always happens on the process's own coroutine.
pub struct ProcCtx {
    pub(crate) pid: ProcId,
    pub(crate) handle: SimHandle,
    _not_sync: PhantomData<Cell<()>>,
}

impl ProcCtx {
    /// This process's id.
    pub fn pid(&self) -> ProcId {
        self.pid
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.handle.now()
    }

    /// A cloneable handle for scheduling events and creating signals.
    pub fn handle(&self) -> &SimHandle {
        &self.handle
    }

    /// Advance virtual time by `d` for this process (cooperatively yields to
    /// the event loop). A zero-duration hold still yields, letting same-time
    /// events scheduled earlier run first. When nothing else is due by the
    /// wake-up, the process runs on in place: the clock moves and its resume
    /// is charged as fired, but nothing is queued and nothing switches.
    pub fn hold(&self, d: SimDuration) {
        let h = &self.handle;
        let now = h.now();
        let t = now + d;
        {
            // One borrow both checks and, when the check fails, schedules.
            let mut queue = h.shared.queue();
            if queue.skip(now, t, 1) {
                h.shared.clock.store(t.as_nanos(), Ordering::Relaxed);
                return;
            }
            queue.schedule(now, t, EventKind::Resume(self.pid));
        }
        self.park();
    }

    /// Switch back to the event loop until some event resumes this
    /// process. Used by `hold` and by the signal and condition primitives,
    /// which register the waiter before parking.
    pub(crate) fn park(&self) {
        let loop_sp = &self.handle.shared.loop_sp;
        // SAFETY: a `ProcCtx` is only reachable from its own process's
        // body (it is lent by reference and is not `Sync`), so this runs on
        // the process's coroutine, on the thread that resumed it. `loop_sp`
        // is where that resume left the event loop suspended; the loop
        // switches back here, with its new position, on the next resume.
        let t = unsafe { switch(loop_sp.load(Ordering::Relaxed), PARKED) };
        loop_sp.store(t.sp, Ordering::Relaxed);
        if t.arg == SHUTDOWN {
            // Unwind quietly to `entry`, which ends the process.
            panic::panic_any(ShutdownToken);
        }
    }
}

/// A spawned process's body and context, waiting for its first resume.
struct Start {
    ctx: ProcCtx,
    body: Box<dyn FnOnce(&ProcCtx) + Send>,
}

/// A process's entry in the kernel's process table.
pub(crate) struct Proc {
    pub(crate) name: String,
    state: State,
}

enum State {
    /// Spawned and never resumed: no stack yet.
    New(Box<Start>),
    /// Started and suspended in `park`.
    Suspended(Coroutine),
    /// Its function returned or panicked; its stack is back on the free
    /// list.
    Finished,
}

impl Proc {
    pub(crate) fn new<F>(name: &str, pid: ProcId, handle: SimHandle, body: F) -> Proc
    where
        F: FnOnce(&ProcCtx) + Send + 'static,
    {
        let ctx = ProcCtx {
            pid,
            handle,
            _not_sync: PhantomData,
        };
        Proc {
            name: name.to_string(),
            state: State::New(Box::new(Start {
                ctx,
                body: Box::new(body),
            })),
        }
    }

    pub(crate) fn is_finished(&self) -> bool {
        matches!(self.state, State::Finished)
    }

    /// Run the process until it parks or ends. A stale resume of a
    /// finished process (e.g. a signal fired after the waiter timed out and
    /// completed) does nothing. Panics if the process first ran on another
    /// OS thread.
    #[inline]
    pub(crate) fn resume(&mut self) -> Result<(), SimError> {
        let word = match &mut self.state {
            State::Finished => return Ok(()),
            // SAFETY: a suspended process sits in `park`, which switches
            // back to the loop on this thread before the loop goes on.
            State::Suspended(coro) => unsafe { coro.resume(GO, &self.name) },
            State::New(_) => {
                let State::New(start) =
                    std::mem::replace(&mut self.state, State::Suspended(Coroutine::new(entry)))
                else {
                    unreachable!()
                };
                let State::Suspended(coro) = &mut self.state else {
                    unreachable!()
                };
                // SAFETY: a fresh coroutine starts in `entry`, which takes
                // ownership of the leaked `Start` and, like `park`, always
                // switches back to its resumer.
                unsafe { coro.resume(Box::into_raw(start) as usize, &self.name) }
            }
        };
        if word == PARKED {
            return Ok(());
        }
        // The process has switched out for the last time: its stack goes
        // back to this thread's free list.
        if let State::Suspended(coro) = std::mem::replace(&mut self.state, State::Finished) {
            // SAFETY: `entry` ended with its last switch; nothing on the
            // stack runs again.
            unsafe { coro.finish() };
        }
        // SAFETY: a non-PARKED word is the box `entry` leaked on its way out.
        let end = unsafe { Box::from_raw(word as *mut Result<(), String>) };
        end.map_err(|message| SimError::ProcessPanicked {
            name: self.name.clone(),
            message,
        })
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let State::Suspended(coro) = &mut self.state else {
            return;
        };
        if coro.is_home() {
            // SAFETY: on its home thread, the suspended process is resumed
            // with SHUTDOWN: `park` panics with `ShutdownToken`, the body
            // unwinds — running its destructors on the thread it ran on —
            // and `entry` switches back for the last time.
            let word = unsafe { coro.resume(SHUTDOWN, &self.name) };
            if word != PARKED {
                // SAFETY: as in `resume`, the box `entry` leaked.
                drop(unsafe { Box::from_raw(word as *mut Result<(), String>) });
            }
        }
        // On any other thread the stack is unmapped without being unwound:
        // its frames never run here, and whatever they own is leaked.
        // (Dropping `self.state` after this does the unmapping, on either
        // thread: a stack dropped while suspended is never reused.)
    }
}

/// Where every process's coroutine starts. Runs the body, then switches
/// back to the loop for good with the outcome.
extern "C" fn entry(t: Transfer) -> ! {
    let (loop_sp, end) = run_body(t);
    // SAFETY: `loop_sp` is where the loop was suspended when it last
    // resumed this process. Nothing on this stack owns anything any more
    // (`run_body` returned), and the loop never resumes a finished process,
    // so this frame is simply abandoned and its stack reused or unmapped.
    unsafe { switch(loop_sp, end) };
    // Unreachable: nothing ever switches back here.
    std::process::abort()
}

/// The body of [`entry`], in a frame of its own so every value it owns is
/// dropped before the final switch. Returns where to switch to and the
/// word to pass.
#[inline(never)]
fn run_body(t: Transfer) -> (usize, usize) {
    // SAFETY: the first resume passes the `Start` that `Proc::resume`
    // leaked for this process.
    let start = unsafe { Box::from_raw(t.arg as *mut Start) };
    let Start { ctx, body } = *start;
    let loop_sp = &ctx.handle.shared.loop_sp;
    loop_sp.store(t.sp, Ordering::Relaxed);
    let end = match panic::catch_unwind(AssertUnwindSafe(|| body(&ctx))) {
        Ok(()) => Ok(()),
        // Quiet teardown unwind: the simulation is being dropped.
        Err(payload) if payload.is::<ShutdownToken>() => Ok(()),
        Err(payload) => Err(panic_message(payload.as_ref())),
    };
    let end: Box<Result<(), String>> = Box::new(end);
    (loop_sp.load(Ordering::Relaxed), Box::into_raw(end) as usize)
}

#[cfg(test)]
mod tests {
    use crate::{SimDuration, Simulation};

    #[test]
    fn hold_advances_virtual_time() {
        let mut sim = Simulation::new();
        let probe = sim.probe::<u64>();
        let p = probe.clone();
        sim.spawn("p", move |ctx| {
            ctx.hold(SimDuration::from_micros(5));
            p.set(ctx.now().as_nanos());
        });
        sim.run().unwrap();
        assert_eq!(probe.get(), Some(5_000));
    }

    #[test]
    fn zero_hold_yields_but_does_not_advance() {
        let mut sim = Simulation::new();
        let probe = sim.probe::<(u64, u64)>();
        let p = probe.clone();
        sim.spawn("p", move |ctx| {
            let t0 = ctx.now().as_nanos();
            ctx.hold(SimDuration::ZERO);
            p.set((t0, ctx.now().as_nanos()));
        });
        sim.run().unwrap();
        let (t0, t1) = probe.get().expect("probe not set");
        assert_eq!(t0, t1);
    }

    #[test]
    fn sequential_holds_accumulate() {
        let mut sim = Simulation::new();
        let probe = sim.probe::<u64>();
        let p = probe.clone();
        sim.spawn("p", move |ctx| {
            for _ in 0..10 {
                ctx.hold(SimDuration::from_nanos(7));
            }
            p.set(ctx.now().as_nanos());
        });
        sim.run().unwrap();
        assert_eq!(probe.get(), Some(70));
    }
}
