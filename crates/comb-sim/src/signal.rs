//! Wait/notify primitives for simulated processes.
//!
//! Because at most one simulation entity runs at a time, there are no
//! lost-wakeup races: a process registers itself as a waiter and parks
//! before anything else can possibly fire the notification.

use crate::cell::SimCell;
use crate::kernel::SimHandle;
use crate::process::{ProcCtx, ProcId};
use std::sync::Arc;

/// A one-shot completion latch.
///
/// `wait` parks the calling process until `fire` is called; if the signal
/// already fired, `wait` returns immediately. Firing is idempotent.
#[derive(Clone)]
pub struct Signal {
    state: Arc<SimCell<SignalState>>,
}

#[derive(Default)]
struct SignalState {
    fired: bool,
    waiters: Vec<ProcId>,
}

impl Signal {
    /// Create an unfired signal bound to a simulation.
    pub fn new(handle: &SimHandle) -> Signal {
        Signal {
            state: Arc::new(SimCell::new(handle, SignalState::default())),
        }
    }

    /// Fire the signal, resuming all waiters at the current virtual time.
    /// Idempotent: only the first call has any effect.
    pub fn fire(&self) {
        let waiters = {
            let mut st = self.state.borrow_mut();
            if st.fired {
                return;
            }
            st.fired = true;
            std::mem::take(&mut st.waiters)
        };
        let handle = self.state.handle();
        let now = handle.now();
        for pid in waiters {
            handle.schedule_resume(pid, now);
        }
    }

    /// True if `fire` has been called.
    pub fn is_fired(&self) -> bool {
        self.state.borrow_mut().fired
    }

    /// Block the calling process until the signal fires. Returns
    /// immediately (without yielding) if it already fired.
    pub fn wait(&self, ctx: &ProcCtx) {
        {
            let mut st = self.state.borrow_mut();
            if st.fired {
                return;
            }
            st.waiters.push(ctx.pid());
        }
        ctx.park();
    }
}

/// A broadcast condition with no memory: `notify_all` wakes the processes
/// currently waiting and nothing else. Callers must re-check their predicate
/// in a loop, exactly like a condition variable:
///
/// ```ignore
/// while !predicate() {
///     cond.wait(ctx);
/// }
/// ```
#[derive(Clone)]
pub struct Condition {
    waiters: Arc<SimCell<Vec<ProcId>>>,
}

impl Condition {
    /// Create a condition bound to a simulation.
    pub fn new(handle: &SimHandle) -> Condition {
        Condition {
            waiters: Arc::new(SimCell::new(handle, Vec::new())),
        }
    }

    /// Park the calling process until the next `notify_all`.
    pub fn wait(&self, ctx: &ProcCtx) {
        self.waiters.borrow_mut().push(ctx.pid());
        ctx.park();
    }

    /// Resume every process currently waiting. The waiter list keeps its
    /// buffer, so a warm wait/notify cycle allocates nothing.
    pub fn notify_all(&self) {
        let handle = self.waiters.handle();
        let now = handle.now();
        for pid in self.waiters.borrow_mut().drain(..) {
            handle.schedule_resume(pid, now);
        }
    }

    /// Number of processes currently parked on this condition.
    pub fn waiter_count(&self) -> usize {
        self.waiters.borrow_mut().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimDuration, Simulation};

    #[test]
    fn signal_wakes_waiter_at_fire_time() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let sig = Signal::new(&h);
        let probe = sim.probe::<u64>();
        let s2 = sig.clone();
        sim.spawn("waiter", move |ctx| {
            s2.wait(ctx);
            probe.set(ctx.now().as_nanos());
        });
        let s3 = sig.clone();
        h.schedule_in(SimDuration::from_micros(7), move || s3.fire());
        sim.run().unwrap();
    }

    #[test]
    fn signal_wait_after_fire_returns_immediately() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let sig = Signal::new(&h);
        sig.fire();
        sig.fire(); // idempotent
        assert!(sig.is_fired());
        let probe = sim.probe::<u64>();
        let p = probe.clone();
        sim.spawn("late", move |ctx| {
            sig.wait(ctx); // should not park
            p.set(ctx.now().as_nanos());
        });
        sim.run().unwrap();
        assert_eq!(probe.get(), Some(0));
    }

    #[test]
    fn signal_wakes_multiple_waiters() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let sig = Signal::new(&h);
        let count = std::sync::Arc::new(parking_lot::Mutex::new(0u32));
        for i in 0..5 {
            let s = sig.clone();
            let c = count.clone();
            sim.spawn(&format!("w{i}"), move |ctx| {
                s.wait(ctx);
                *c.lock() += 1;
            });
        }
        let s = sig.clone();
        h.schedule_in(SimDuration::from_nanos(100), move || s.fire());
        sim.run().unwrap();
        assert_eq!(*count.lock(), 5);
    }

    #[test]
    fn condition_predicate_loop() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let cond = Condition::new(&h);
        let value = std::sync::Arc::new(parking_lot::Mutex::new(0u32));
        let probe = sim.probe::<(u32, u64)>();

        let (c_w, v_w, p) = (cond.clone(), value.clone(), probe.clone());
        sim.spawn("consumer", move |ctx| {
            while *v_w.lock() < 3 {
                c_w.wait(ctx);
            }
            p.set((*v_w.lock(), ctx.now().as_nanos()));
        });
        let (c_p, v_p) = (cond.clone(), value.clone());
        sim.spawn("producer", move |ctx| {
            for _ in 0..3 {
                ctx.hold(SimDuration::from_micros(1));
                *v_p.lock() += 1;
                c_p.notify_all();
            }
        });
        sim.run().unwrap();
        assert_eq!(probe.get(), Some((3, 3_000)));
    }

    #[test]
    fn condition_notify_with_no_waiters_is_noop() {
        let mut sim = Simulation::new();
        let cond = Condition::new(&sim.handle());
        cond.notify_all();
        assert_eq!(cond.waiter_count(), 0);
        sim.run().unwrap();
    }
}
