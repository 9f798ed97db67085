//! Process stacks are reused per thread. A process that ran to its end
//! leaves its stack for the next process started on that thread; one
//! dropped while suspended is unmapped; a thread that exits unmaps the
//! stacks it kept.
//!
//! `StackStats::global` is process-wide, so the tests take turns, and each
//! runs its simulations on a thread of its own, whose free list starts
//! empty.

use comb_sim::{Signal, SimDuration, SimError, Simulation, StackStats};
use std::sync::Mutex;

static TURN: Mutex<()> = Mutex::new(());

/// Stacks `(mapped, unmapped)` since `before`.
fn since(before: StackStats) -> (u64, u64) {
    let now = StackStats::global();
    (now.mapped - before.mapped, now.unmapped - before.unmapped)
}

/// Run `f` on a fresh thread, alone among this binary's tests; returns its
/// result and the stacks `(mapped, unmapped)` meanwhile, its exit included.
fn on_own_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> (T, (u64, u64)) {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let before = StackStats::global();
    let out = std::thread::spawn(f).join().expect("test thread panicked");
    (out, since(before))
}

/// Run a simulation of `n` processes that each hold once and end.
fn run_to_end(n: usize) {
    let mut sim = Simulation::new();
    for i in 0..n {
        sim.spawn(&format!("p{i}"), |ctx| ctx.hold(SimDuration::from_nanos(1)));
    }
    sim.run().expect("run failed");
}

#[test]
fn a_finished_process_leaves_its_stack_to_the_next_spawn_on_its_thread() {
    let ((one_each, two_each), total) = on_own_thread(|| {
        let before = StackStats::global();
        run_to_end(1);
        run_to_end(1);
        let one_each = since(before);
        // Two alive at once need a second stack; after that, none.
        run_to_end(2);
        run_to_end(2);
        (one_each, since(before))
    });
    assert_eq!(
        one_each,
        (1, 0),
        "the second simulation mapped its own stack"
    );
    assert_eq!(two_each, (2, 0), "mapped beyond the peak of live processes");
    assert_eq!(total, (2, 2), "the exiting thread kept a stack mapped");
}

#[test]
fn a_process_dropped_while_suspended_is_unmapped_not_reused() {
    let ((at_drop, after), total) = on_own_thread(|| {
        let before = StackStats::global();
        let mut sim = Simulation::new();
        let never = Signal::new(&sim.handle());
        sim.spawn("waiter", move |ctx| never.wait(ctx));
        assert!(matches!(sim.run(), Err(SimError::Deadlock { .. })));
        drop(sim);
        let at_drop = since(before);
        run_to_end(1);
        (at_drop, since(before))
    });
    assert_eq!(at_drop, (1, 1), "the suspended stack stayed mapped");
    assert_eq!(after, (2, 1), "a suspended process's stack was reused");
    assert_eq!(total, (2, 2), "the exiting thread kept a stack mapped");
}

#[test]
fn an_exiting_thread_leaves_none_of_its_stacks_mapped() {
    let ((), total) = on_own_thread(|| {
        run_to_end(3);
        run_to_end(1);
    });
    assert_eq!(total, (3, 3), "the thread's free list outlived it");
}
