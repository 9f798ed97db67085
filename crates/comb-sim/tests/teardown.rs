//! Dropping a simulation after an abort neither hangs nor prints, whatever
//! stopped the run and wherever the drop happens: on another thread, where
//! suspended processes are unmapped without running, or on the thread that
//! ran them, in the middle of another panic's unwinding.

use comb_sim::{Signal, SimDuration, SimError, SimTime, Simulation, WatchdogConfig};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

/// Panics that reached the hook chain: the teardown unwind of process
/// threads is filtered out before this hook, anything else is counted.
static PRINTED: AtomicUsize = AtomicUsize::new(0);

fn drop_within_deadline(sim: Simulation, what: &str) {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        drop(sim);
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(30))
        .unwrap_or_else(|_| panic!("dropping the simulation after {what} hung"));
}

/// A process parked forever on a signal nobody fires.
fn spawn_stuck(sim: &mut Simulation) {
    let sig = Signal::new(&sim.handle());
    sim.spawn("stuck", move |ctx| sig.wait(ctx));
}

#[test]
fn dropping_after_any_abort_neither_hangs_nor_prints() {
    // Installed before the first simulation, so the kernel's teardown
    // filter wraps this hook and only foreign panics reach it.
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        PRINTED.fetch_add(1, Ordering::SeqCst);
        previous(info);
    }));

    // Deadlock: the queue drains on the finishing worker's thread.
    let mut sim = Simulation::new();
    spawn_stuck(&mut sim);
    sim.spawn("worker", |ctx| {
        for _ in 0..10 {
            ctx.hold(SimDuration::from_micros(1));
        }
    });
    match sim.run() {
        Err(SimError::Deadlock { parked }) => assert_eq!(parked, vec!["stuck".to_string()]),
        other => panic!("expected deadlock, got {other:?}"),
    }
    drop_within_deadline(sim, "a deadlock");

    // Watchdog deadline: tripped while one process holds and one waits.
    let mut sim = Simulation::new();
    spawn_stuck(&mut sim);
    sim.spawn("turtle", |ctx| loop {
        ctx.hold(SimDuration::from_micros(10));
    });
    let wd = WatchdogConfig::lenient().with_deadline(SimTime::from_nanos(55_000));
    match sim.run_with_watchdog(&wd) {
        Err(SimError::WatchdogDeadline { unfinished, .. }) => {
            assert_eq!(unfinished, vec!["stuck".to_string(), "turtle".to_string()]);
        }
        other => panic!("expected deadline abort, got {other:?}"),
    }
    drop_within_deadline(sim, "a watchdog deadline");

    // Event limit: tripped between the resumes of two spinning processes.
    let mut sim = Simulation::new();
    for name in ["spin-a", "spin-b"] {
        sim.spawn(name, |ctx| loop {
            ctx.hold(SimDuration::from_nanos(1));
        });
    }
    match sim.run_with_limit(1_000) {
        Err(SimError::EventLimitExceeded { limit }) => assert_eq!(limit, 1_000),
        other => panic!("expected event limit, got {other:?}"),
    }
    drop_within_deadline(sim, "an event limit");

    assert_eq!(
        PRINTED.load(Ordering::SeqCst),
        0,
        "teardown printed a panic"
    );

    // A panic unwinding through the owner: the suspended process is
    // unwound on this thread, inside the outer unwinding, and the outer
    // panic, the only one printed, still arrives intact.
    let stuck_unwound = std::sync::Arc::new(AtomicUsize::new(0));
    let flag = std::sync::Arc::clone(&stuck_unwound);
    let outer = panic::catch_unwind(AssertUnwindSafe(move || {
        let mut sim = Simulation::new();
        let sig = Signal::new(&sim.handle());
        sim.spawn("stuck", move |ctx| {
            let _unwound = OnDrop(flag);
            sig.wait(ctx);
        });
        sim.run_until(SimTime::from_nanos(1_000)).unwrap();
        panic::panic_any("outer");
    }));
    assert_eq!(outer.unwrap_err().downcast_ref::<&str>(), Some(&"outer"));
    assert_eq!(
        stuck_unwound.load(Ordering::SeqCst),
        1,
        "process not unwound"
    );
    assert_eq!(
        PRINTED.load(Ordering::SeqCst),
        1,
        "teardown printed a panic besides the outer one"
    );
}

/// Counts its own drop.
struct OnDrop(std::sync::Arc<AtomicUsize>);

impl Drop for OnDrop {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}
