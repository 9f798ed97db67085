//! Whole-simulation allocation budget of one COMB figure point.
//!
//! The kernel's own fast path allocates nothing (see comb-sim's
//! `zero_alloc` tests), and neither does a warm `Cpu::compute` or
//! `MPI_Test`. What remains per event is the messaging itself: a boxed
//! wire payload and transmit callback per message, packet-size lists, and
//! the simulation's construction. This test bounds the total per event
//! of one GM polling point at smoke fidelity, so a model that starts
//! allocating per call again fails here.

#[path = "../crates/comb-sim/tests/support/counting_alloc.rs"]
mod counting_alloc;

use comb::core::{run_polling_point, MethodConfig, Transport};
use comb::report::Fidelity;
use comb::sim::KernelStats;
use counting_alloc::allocs_during;

/// Allocations per fired event allowed for the point. Measured on x86_64
/// Linux: 1.01 (4,028 over 3,975 events) when every `Cpu::compute` and
/// every request allocated a signal, 0.087 (345) without.
const MAX_ALLOCS_PER_EVENT: f64 = 0.15;

#[test]
fn gm_smoke_polling_point_stays_within_its_allocation_budget() {
    let f = Fidelity::smoke();
    let mut cfg = MethodConfig::new(Transport::Gm, 100 * 1024);
    cfg.cycles = f.cycles;
    cfg.target_iters = f.target_iters;
    cfg.max_intervals = f.max_intervals;
    cfg.jobs = 1;
    cfg.shards = 1;
    // Warm-up: process-wide lazy state is built once.
    let first = run_polling_point(&cfg, 10_000).expect("warm-up point failed");
    // The only test in this binary, so the process-wide counter is ours.
    let fired = KernelStats::global().fired;
    let (allocs, second) = allocs_during(|| run_polling_point(&cfg, 10_000));
    let events = KernelStats::global().fired - fired;
    assert_eq!(second.expect("measured point failed"), first);
    assert!(events > 1_000, "the point fired only {events} events");
    let per_event = allocs as f64 / events as f64;
    eprintln!("{allocs} allocations over {events} events: {per_event:.4} per event");
    assert!(
        per_event <= MAX_ALLOCS_PER_EVENT,
        "{allocs} allocations over {events} events ({per_event:.4} per event) exceed \
         the budget of {MAX_ALLOCS_PER_EVENT}"
    );
}
