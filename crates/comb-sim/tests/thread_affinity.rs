//! A simulation runs on one OS thread: its processes are coroutines that
//! may hold thread-local state. Resuming a started simulation on another
//! thread panics before any process runs there, and dropping it there
//! neither hangs, prints, nor runs a suspended process's stack.

use comb_sim::{SimDuration, SimTime, Simulation};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Panics that reached the hook, teardown unwinds included.
static PANICS: AtomicUsize = AtomicUsize::new(0);

/// Set when a process's stack frames are unwound.
struct DropFlag(Arc<AtomicUsize>);

impl Drop for DropFlag {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn resuming_on_a_second_thread_panics_and_dropping_there_stays_quiet() {
    let mut sim = Simulation::new();
    // Installed after the kernel's teardown filter, so this hook sees
    // every panic, a teardown unwind included.
    let previous = panic::take_hook();
    panic::set_hook(Box::new(move |info| {
        PANICS.fetch_add(1, Ordering::SeqCst);
        previous(info);
    }));

    let unwound = Arc::new(AtomicUsize::new(0));
    let flag = DropFlag(Arc::clone(&unwound));
    sim.spawn("pinned", move |ctx| {
        let _flag = flag;
        loop {
            ctx.hold(SimDuration::from_micros(1));
        }
    });
    // The process starts, and is suspended, on this thread.
    sim.run_until(SimTime::from_nanos(5_000)).unwrap();

    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let resumed = panic::catch_unwind(AssertUnwindSafe(|| {
            sim.run_until(SimTime::from_nanos(10_000))
        }));
        let payload = resumed.expect_err("resuming on a second thread must panic");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        let before = PANICS.load(Ordering::SeqCst);
        drop(sim);
        let _ = tx.send((message, PANICS.load(Ordering::SeqCst) - before));
    });
    let (message, drop_panics) = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("resuming or dropping on the second thread hung");
    assert!(
        message.contains("simulated process 'pinned'") && message.contains("another OS thread"),
        "unclear message: {message}"
    );
    assert_eq!(drop_panics, 0, "dropping on the second thread printed");
    assert_eq!(
        unwound.load(Ordering::SeqCst),
        0,
        "the suspended stack was unwound on a thread it never ran on"
    );
}
