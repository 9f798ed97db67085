//! The kernel's typed fast path must not heap-allocate per event.
//!
//! Small closures ride the inline-call representation inside the slab
//! arena, slots are recycled through the free list, and the queue regions
//! reuse their buffers — so once the arena is warm, scheduling and firing
//! events performs **zero** allocations, and so does a full hold/park
//! cycle, whether a process resumes itself or the loop switches to another
//! one. A counting global allocator makes that a hard regression test
//! rather than a code-review promise.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use comb_sim::{Condition, SimDuration, Simulation};
use counting_alloc::allocs_during;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const EVENTS: u64 = 1024;

fn schedule_batch(sim: &Simulation) {
    let h = sim.handle();
    for i in 0..EVENTS {
        // Zero-capture closure: always fits the inline representation.
        h.schedule_in(SimDuration::from_nanos(i + 1), || {});
        // Budget-edge closure: exactly `INLINE_WORDS` words of capture —
        // the size of the fabric's wire deliveries — must ride inline too.
        let mut cap = [1usize; comb_sim::INLINE_WORDS];
        cap[0] = i as usize;
        h.schedule_in(SimDuration::from_nanos(i + 1), move || {
            std::hint::black_box(cap);
        });
    }
}

#[test]
fn warm_arena_schedules_and_fires_without_allocating() {
    let mut sim = Simulation::new();
    // Warm-up: grow the arena, free list, and sorted-tail buffer to their
    // steady-state capacity.
    schedule_batch(&sim);
    sim.run().expect("warm-up run failed");

    // Steady state: the same load must touch the allocator zero times.
    // With no processes the whole run stays on this thread.
    let (allocs, _) = allocs_during(|| {
        schedule_batch(&sim);
        sim.run().expect("measured run failed");
    });

    assert_eq!(allocs, 0, "typed fast path allocated on a warm arena");
    assert_eq!(
        sim.handle().kernel_stats().boxed_calls,
        0,
        "closures at the inline budget must never fall back to boxing"
    );
}

#[test]
fn warm_self_resuming_hold_loop_does_not_allocate() {
    let mut sim = Simulation::new();
    let probe = sim.probe::<u64>();
    let p = probe.clone();
    sim.spawn("holder", move |ctx| {
        // Warm-up: the arena reaches its steady state. The process is the
        // only one, so every hold resumes it, and the loop, the process and
        // the counter all run on this thread.
        for _ in 0..EVENTS {
            ctx.hold(SimDuration::from_nanos(1));
        }
        p.set(
            allocs_during(|| {
                for _ in 0..EVENTS {
                    ctx.hold(SimDuration::from_nanos(1));
                }
            })
            .0,
        );
    });
    sim.run().expect("hold loop failed");
    assert_eq!(probe.get(), Some(0), "a warm self-resuming hold allocated");
}

#[test]
fn warm_interleaved_holds_of_two_processes_do_not_allocate() {
    let mut sim = Simulation::new();
    let probe = sim.probe::<(u64, u64)>();
    let p = probe.clone();
    // "odd" resumes at odd times and "even" at even ones, so every resume
    // switches from one process's stack to the other's.
    let evens = Arc::new(AtomicU64::new(0));
    let e = Arc::clone(&evens);
    sim.spawn("odd", move |ctx| {
        ctx.hold(SimDuration::from_nanos(1));
        for _ in 0..EVENTS {
            ctx.hold(SimDuration::from_nanos(2));
        }
        let before = e.load(Ordering::Relaxed);
        let (allocs, _) = allocs_during(|| {
            for _ in 0..EVENTS {
                ctx.hold(SimDuration::from_nanos(2));
            }
        });
        p.set((allocs, e.load(Ordering::Relaxed) - before));
    });
    let e = Arc::clone(&evens);
    sim.spawn("even", move |ctx| {
        for _ in 0..3 * EVENTS {
            ctx.hold(SimDuration::from_nanos(2));
            e.fetch_add(1, Ordering::Relaxed);
        }
    });
    sim.run().expect("interleaved hold loop failed");
    let (allocs, interleaved) = probe.get().expect("probe not set");
    assert_eq!(
        interleaved, EVENTS,
        "the other process ran between every hold"
    );
    assert_eq!(allocs, 0, "a warm process-to-process switch allocated");
}

#[test]
fn warm_condition_wait_and_notify_do_not_allocate() {
    let mut sim = Simulation::new();
    let cond = Condition::new(&sim.handle());
    let probe = sim.probe::<u64>();
    let p = probe.clone();
    let c = cond.clone();
    sim.spawn("waiter", move |ctx| {
        for _ in 0..EVENTS {
            c.wait(ctx);
        }
        p.set(
            allocs_during(|| {
                for _ in 0..EVENTS {
                    c.wait(ctx);
                }
            })
            .0,
        );
    });
    sim.spawn("notifier", move |ctx| {
        for _ in 0..2 * EVENTS {
            ctx.hold(SimDuration::from_nanos(1));
            cond.notify_all();
        }
        // Outlive the waiter's measured loop.
        ctx.hold(SimDuration::from_nanos(1));
    });
    sim.run().expect("wait/notify loop failed");
    assert_eq!(probe.get(), Some(0), "a warm condition park allocated");
}

#[test]
fn over_budget_captures_fall_back_to_exactly_one_box() {
    // Sanity check on the counter the hot-path regression tests rely on:
    // one word past the inline budget means exactly one boxed closure.
    let mut sim = Simulation::new();
    let h = sim.handle();
    let cap = [0usize; comb_sim::INLINE_WORDS + 1];
    h.schedule_in(SimDuration::from_nanos(1), move || {
        std::hint::black_box(cap);
    });
    sim.run().expect("run failed");
    assert_eq!(sim.handle().kernel_stats().boxed_calls, 1);
}
