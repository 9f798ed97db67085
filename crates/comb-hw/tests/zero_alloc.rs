//! A warm `Cpu::compute` must not heap-allocate.
//!
//! Every iteration of COMB's polling and post-work-wait loops is one
//! `Cpu::compute` plus one `MPI_Test`, so the CPU model sits on the
//! simulation's per-event path. Its computation parks on the CPU's one
//! completion condition, whose waiter buffer is reused, and its completion
//! event captures one pointer, so once the event arena is warm a
//! computation — including one that an interrupt extends, postponing its
//! completion — touches the allocator zero times.

#[path = "../../comb-sim/tests/support/counting_alloc.rs"]
mod counting_alloc;

use comb_hw::{ComputeSample, Cpu, CpuConfig};
use comb_sim::{SimDuration, Simulation};
use counting_alloc::allocs_during;

const CALLS: u32 = 1024;
const WORK: SimDuration = SimDuration::from_micros(1);
const STEAL: SimDuration = SimDuration::from_nanos(100);

/// Allocations of `CALLS` warm computations, each with an interrupt
/// stealing `STEAL` halfway through it when `steal` is set, and the last
/// computation's sample.
fn warm_compute_allocs(steal: bool) -> (u64, ComputeSample) {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let cpu = Cpu::new(&h, CpuConfig::default());
    let stealer = cpu.clone();
    let probe = sim.probe::<(u64, ComputeSample)>();
    let p = probe.clone();
    sim.spawn("compute", move |ctx| {
        let compute = || {
            let mut last = None;
            for _ in 0..CALLS {
                if steal {
                    let s = stealer.clone();
                    h.schedule_in(WORK / 2, move || s.steal(STEAL));
                }
                last = Some(cpu.compute(ctx, WORK));
            }
            last.expect("at least one computation")
        };
        // Warm-up: the event arena reaches its steady state.
        compute();
        p.set(allocs_during(compute));
    });
    sim.run().expect("compute loop failed");
    probe.get().expect("probe not set")
}

#[test]
fn warm_compute_does_not_allocate() {
    let (allocs, sample) = warm_compute_allocs(false);
    assert_eq!(sample.wall, WORK);
    assert_eq!(allocs, 0, "a warm Cpu::compute allocated");
}

#[test]
fn warm_compute_extended_by_a_steal_does_not_allocate() {
    let (allocs, sample) = warm_compute_allocs(true);
    // The steal landed inside the computation and postponed its completion.
    assert_eq!(sample.stolen, STEAL);
    assert_eq!(sample.wall, WORK + STEAL);
    assert_eq!(
        allocs, 0,
        "a warm Cpu::compute extended by a steal allocated"
    );
}
