//! Simulation-owned cells: model state with no lock on the event path.
//!
//! A simulation runs on exactly one OS thread at a time: the thread that
//! calls `run` (a shard worker, for one epoch of a sharded run), whose
//! processes are coroutines pinned to it. So the state of its models — the
//! event queue, signals and conditions, CPUs, NICs, MPI engines — is never
//! touched by two threads at once, and a mutex around it protects nothing.
//!
//! Instead, every simulation has one [`Owner`] word naming the thread that
//! may touch its cells right now:
//!
//! * the event loop claims it once per run (once per epoch on a shard
//!   worker) and releases it when the run returns;
//! * any other access — building the models, reading results after the
//!   run, the shard coordinator between epochs — claims it for the span of
//!   the borrow with a compare-and-swap, when no loop holds it, and panics
//!   when another thread does. Such an access never races: it either owns
//!   the simulation or stops.
//!
//! The fast path of a borrow, on the thread that already owns the
//! simulation, is a plain load of the owner word compared to a thread-local
//! token, a non-atomic hold count, and a non-atomic borrow flag per cell. A
//! second borrow of a borrowed cell panics (where a lock would spin on
//! itself forever), naming the cell's type.

use crate::kernel::SimHandle;
use std::cell::{Cell, UnsafeCell};
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// Its address is the calling thread's token: distinct for every live
    /// thread, and never zero.
    static TOKEN: u8 = const { 0 };
}

/// Owner-word value of a simulation no thread holds.
const FREE: usize = 0;

#[inline(always)]
fn thread_token() -> usize {
    TOKEN.with(|t| t as *const u8 as usize)
}

/// Which OS thread may touch a simulation's cells right now.
pub(crate) struct Owner {
    /// The holding thread's token, or [`FREE`].
    word: AtomicUsize,
    /// Live [`Claim`]s of the holding thread. The word is released when
    /// the last one drops, so a guard that outlives the guard which claimed
    /// the word keeps it held.
    holds: Cell<usize>,
}

// SAFETY: `word` is atomic. `holds` is read and written only by the thread
// whose token is in `word`: `enter` touches it after seeing its own token
// there or after installing it with a CAS, and `Claim::drop` runs on the
// thread that made the claim (a `Claim` is neither `Send` nor `Sync`) while
// its token is still in `word`. The CAS (Acquire) and the releasing store
// (Release) order one holder's accesses before the next holder's.
unsafe impl Sync for Owner {}

impl Owner {
    pub(crate) const fn new() -> Owner {
        Owner {
            word: AtomicUsize::new(FREE),
            holds: Cell::new(0),
        }
    }

    /// Enter the simulation on the calling thread, claiming it if no
    /// thread holds it. Panics, naming `what`, if another thread does.
    #[inline(always)]
    pub(crate) fn enter(&self, what: fn() -> &'static str) -> Claim<'_> {
        match self.try_enter() {
            Some(claim) => claim,
            None => held_elsewhere(what),
        }
    }

    /// [`Owner::enter`], or `None` where that would panic.
    #[inline(always)]
    pub(crate) fn try_enter(&self) -> Option<Claim<'_>> {
        if self.word.load(Ordering::Relaxed) == thread_token() {
            self.holds.set(self.holds.get() + 1);
            return Some(Claim {
                owner: self,
                _pinned: PhantomData,
            });
        }
        self.try_claim()
    }

    #[cold]
    #[inline(never)]
    fn try_claim(&self) -> Option<Claim<'_>> {
        self.word
            .compare_exchange(FREE, thread_token(), Ordering::Acquire, Ordering::Relaxed)
            .ok()?;
        self.holds.set(1);
        Some(Claim {
            owner: self,
            _pinned: PhantomData,
        })
    }
}

#[cold]
#[inline(never)]
fn held_elsewhere(what: fn() -> &'static str) -> ! {
    panic!(
        "{} touched from a thread that does not own its running simulation",
        what()
    )
}

/// The calling thread's hold on a simulation: while it lives, no other
/// thread can claim the simulation.
pub(crate) struct Claim<'a> {
    owner: &'a Owner,
    /// A claim is released by the thread that made it.
    _pinned: PhantomData<*mut ()>,
}

impl Drop for Claim<'_> {
    #[inline(always)]
    fn drop(&mut self) {
        let holds = self.owner.holds.get() - 1;
        self.owner.holds.set(holds);
        if holds == 0 {
            self.owner.word.store(FREE, Ordering::Release);
        }
    }
}

/// A value reachable only through its simulation's [`Owner`]. The kernel
/// keeps its event queue in one, next to the owner it belongs to; models
/// use [`SimCell`], which carries its owner with it.
pub(crate) struct OwnedCell<T> {
    borrowed: Cell<bool>,
    value: UnsafeCell<T>,
}

// SAFETY: every access to `borrowed` and `value` happens inside `borrow`
// or the guard it returns, under a `Claim` on the one `Owner` the cell is
// bound to (the contract of `borrow`). A claim exists only on the thread
// whose token is in the owner word, and the word changes hands only through
// a CAS from FREE (Acquire) after a releasing store (Release), so accesses
// from different threads never overlap and are ordered. `T: Send` because
// the value is handed from thread to thread that way.
unsafe impl<T: Send> Sync for OwnedCell<T> {}

impl<T> OwnedCell<T> {
    pub(crate) const fn new(value: T) -> OwnedCell<T> {
        OwnedCell {
            borrowed: Cell::new(false),
            value: UnsafeCell::new(value),
        }
    }

    /// Borrow the value exclusively. Panics if the calling thread does not
    /// hold, and cannot claim, `owner`, or if the cell is already borrowed.
    ///
    /// # Safety
    ///
    /// Every borrow of this cell must pass the same `owner`.
    #[inline(always)]
    pub(crate) unsafe fn borrow<'a>(&'a self, owner: &'a Owner) -> SimRefMut<'a, T> {
        let claim = owner.enter(std::any::type_name::<T>);
        if self.borrowed.replace(true) {
            already_borrowed::<T>();
        }
        SimRefMut {
            cell: self,
            _claim: claim,
        }
    }
}

#[cold]
#[inline(never)]
fn already_borrowed<T>() -> ! {
    panic!(
        "{} is already borrowed: a model's state was re-entered while \
         borrowed (a borrow held across a yield, or a call back into the \
         same model)",
        std::any::type_name::<T>()
    )
}

/// Exclusive borrow of a cell's value; see [`SimCell::borrow_mut`].
pub struct SimRefMut<'a, T> {
    cell: &'a OwnedCell<T>,
    /// Dropped after `Drop::drop` has cleared the borrow flag.
    _claim: Claim<'a>,
}

impl<T> Deref for SimRefMut<'_, T> {
    type Target = T;
    #[inline(always)]
    fn deref(&self) -> &T {
        // SAFETY: this guard set the borrow flag, so it is the only live
        // reference to the value, and its claim keeps every other thread
        // out.
        unsafe { &*self.cell.value.get() }
    }
}

impl<T> DerefMut for SimRefMut<'_, T> {
    #[inline(always)]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref`.
        unsafe { &mut *self.cell.value.get() }
    }
}

impl<T> Drop for SimRefMut<'_, T> {
    #[inline(always)]
    fn drop(&mut self) {
        self.cell.borrowed.set(false);
    }
}

/// Model state owned by one simulation: a cell that only the thread
/// running (or, between runs, holding) its simulation can borrow.
///
/// Models share state between their handles, event closures and processes
/// through an `Arc<SimCell<_>>` instead of a mutex: a borrow on the running
/// simulation's thread takes no lock and performs no atomic
/// read-modify-write. Borrowing from any other thread while the simulation
/// runs panics, and so does borrowing a cell that is already borrowed —
/// hold no borrow across `hold`, `wait` or `Cpu::compute`.
///
/// ```
/// use comb_sim::{SimCell, SimDuration, Simulation};
/// use std::sync::Arc;
///
/// let mut sim = Simulation::new();
/// let count = Arc::new(SimCell::new(&sim.handle(), 0u32));
/// let c = Arc::clone(&count);
/// sim.spawn("counter", move |ctx| {
///     for _ in 0..3 {
///         ctx.hold(SimDuration::from_nanos(1));
///         *c.borrow_mut() += 1;
///     }
/// });
/// sim.run().unwrap();
/// assert_eq!(*count.borrow_mut(), 3);
/// ```
pub struct SimCell<T> {
    handle: SimHandle,
    cell: OwnedCell<T>,
}

impl<T> SimCell<T> {
    /// A cell owned by `handle`'s simulation (or shard).
    pub fn new(handle: &SimHandle, value: T) -> SimCell<T> {
        SimCell {
            handle: handle.clone(),
            cell: OwnedCell::new(value),
        }
    }

    /// Borrow the value exclusively until the guard drops.
    ///
    /// Panics if another thread is running the owning simulation, or if
    /// the cell is already borrowed; both messages name `T`.
    #[inline(always)]
    pub fn borrow_mut(&self) -> SimRefMut<'_, T> {
        // SAFETY: a cell is bound to its handle's simulation for life, and
        // every borrow passes that simulation's owner.
        unsafe { self.cell.borrow(&self.handle.shared.owner) }
    }

    /// The handle of the owning simulation.
    #[inline]
    pub fn handle(&self) -> &SimHandle {
        &self.handle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimDuration, SimError, Simulation};
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::Arc;

    fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
        crate::kernel::panic_message(payload.as_ref())
    }

    #[test]
    fn a_second_borrow_of_a_borrowed_cell_panics_naming_the_type() {
        let sim = Simulation::new();
        let cell = SimCell::new(&sim.handle(), 7u32);
        let held = cell.borrow_mut();
        let err = panic::catch_unwind(AssertUnwindSafe(|| *cell.borrow_mut()))
            .expect_err("a re-entrant borrow must panic");
        let text = panic_text(err);
        assert!(text.contains("u32 is already borrowed"), "{text}");
        drop(held);
        // The failed borrow left the cell usable.
        assert_eq!(*cell.borrow_mut(), 7);
    }

    #[test]
    fn a_borrow_held_across_a_hold_fails_the_process_that_re_enters() {
        let mut sim = Simulation::new();
        let cell = Arc::new(SimCell::new(&sim.handle(), Vec::<u32>::new()));
        let c = Arc::clone(&cell);
        sim.spawn("holder", move |ctx| {
            let mut v = c.borrow_mut();
            v.push(1);
            ctx.hold(SimDuration::from_nanos(10));
            v.push(3);
        });
        let c = Arc::clone(&cell);
        sim.spawn("intruder", move |ctx| {
            ctx.hold(SimDuration::from_nanos(5));
            c.borrow_mut().push(2);
        });
        match sim.run() {
            Err(SimError::ProcessPanicked { name, message }) => {
                assert_eq!(name, "intruder");
                assert!(message.contains("already borrowed"), "{message}");
            }
            other => panic!("expected the intruder to panic, got {other:?}"),
        }
    }

    #[test]
    fn dropping_a_simulation_while_another_thread_borrows_its_cell_does_not_panic() {
        use std::sync::mpsc;
        let mut sim = Simulation::new();
        let cell = Arc::new(SimCell::new(&sim.handle(), 0u8));
        // A suspended process, whose stack the drop must leave alone.
        sim.spawn("parked", |ctx| ctx.hold(SimDuration::from_nanos(10)));
        sim.run_until(crate::SimTime::from_nanos(5)).unwrap();
        let (held_tx, held_rx) = mpsc::channel();
        let (dropped_tx, dropped_rx) = mpsc::channel();
        std::thread::scope(|s| {
            let c = Arc::clone(&cell);
            s.spawn(move || {
                let _borrow = c.borrow_mut();
                held_tx.send(()).unwrap();
                // Also returns if the dropping side panicked.
                let _ = dropped_rx.recv();
            });
            let dropped_tx = dropped_tx;
            held_rx.recv().unwrap();
            drop(sim);
            dropped_tx.send(()).unwrap();
        });
        assert_eq!(*cell.borrow_mut(), 0);
    }

    #[test]
    fn borrowing_from_another_thread_mid_run_panics_and_after_the_run_succeeds() {
        let mut sim = Simulation::new();
        let cell = Arc::new(SimCell::new(&sim.handle(), 0u64));
        let probe = sim.probe::<String>();
        let (c, p) = (Arc::clone(&cell), probe.clone());
        sim.spawn("host", move |ctx| {
            *c.borrow_mut() += 1;
            // The run holds the simulation: a borrow on any other thread
            // stops with a panic instead of racing this process.
            let text = std::thread::scope(|s| {
                s.spawn(|| panic::catch_unwind(AssertUnwindSafe(|| *c.borrow_mut())))
                    .join()
                    .expect("the borrowing thread itself returns")
                    .map_err(panic_text)
                    .expect_err("a borrow from another thread must panic")
            });
            p.set(text);
            ctx.hold(SimDuration::from_nanos(1));
            *c.borrow_mut() += 1;
        });
        sim.run().unwrap();
        let text = probe.get().expect("probe not set");
        assert!(
            text.contains("u64 touched from a thread that does not own its running simulation"),
            "{text}"
        );
        // The run has returned: any thread may claim the simulation now.
        let c = Arc::clone(&cell);
        let value = std::thread::spawn(move || *c.borrow_mut()).join().unwrap();
        assert_eq!(value, 2);
    }
}
