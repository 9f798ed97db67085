//! A warm `MPI_Test` on a pending request must not heap-allocate, and a
//! warm eager message allocates exactly its two boxes.
//!
//! COMB's polling loop calls `MPI_Test` once per iteration; until the
//! message lands, each call charges the test cost on the CPU, runs library
//! progress over an empty receive ring and finds the request incomplete.
//! None of that needs the allocator once the event arena is warm. A
//! message that does land boxes its wire payload and its transmit
//! callback; the request slab, the per-peer sequence state and the
//! matching queues are reused.

#[path = "../../comb-sim/tests/support/counting_alloc.rs"]
mod counting_alloc;

use comb_hw::{Cluster, HwConfig};
use comb_mpi::{MpiProc, MpiWorld, Payload, Rank, RankSel, Tag, TagSel};
use comb_sim::ProcCtx;
use comb_sim::Simulation;
use counting_alloc::allocs_during;

const TESTS: u32 = 1024;

fn warm_pending_test_allocs(cfg: &HwConfig) -> u64 {
    let mut sim = Simulation::new();
    let cluster = Cluster::build(&sim.handle(), cfg, 2);
    let world = MpiWorld::attach(&cluster);
    let mpi = world.proc(Rank(0));
    let probe = sim.probe::<u64>();
    let p = probe.clone();
    sim.spawn("rank0", move |ctx| {
        // Nobody sends: the receive stays pending throughout.
        let req = mpi.irecv(ctx, RankSel::Is(Rank(1)), TagSel::Is(Tag(7)));
        let poll = || {
            for _ in 0..TESTS {
                assert!(mpi.test(ctx, req).is_none(), "nothing was sent");
            }
        };
        // Warm-up: the event arena reaches its steady state.
        poll();
        p.set(allocs_during(poll).0);
    });
    // The receive stays incomplete; rank 0 simply returns after polling.
    sim.run().expect("test loop failed");
    probe.get().expect("probe not set")
}

#[test]
fn warm_test_on_a_pending_request_does_not_allocate_on_gm() {
    assert_eq!(
        warm_pending_test_allocs(&HwConfig::gm_myrinet()),
        0,
        "a warm MPI_Test allocated (GM)"
    );
}

#[test]
fn warm_test_on_a_pending_request_does_not_allocate_on_portals() {
    assert_eq!(
        warm_pending_test_allocs(&HwConfig::portals_myrinet()),
        0,
        "a warm MPI_Test allocated (Portals)"
    );
}

const ROUND_TRIPS: u64 = 256;

/// Allocations per message in warm eager ping-pongs driven by `isend`,
/// `irecv` and `MPI_Test` polling.
fn warm_eager_round_trip_allocs(cfg: &HwConfig) -> u64 {
    let mut sim = Simulation::new();
    let cluster = Cluster::build(&sim.handle(), cfg, 2);
    let world = MpiWorld::attach(&cluster);
    let (m0, m1) = (world.proc(Rank(0)), world.proc(Rank(1)));
    let tag = Tag(3);
    let test_until_done = |mpi: &MpiProc, ctx: &ProcCtx, req| while mpi.test(ctx, req).is_none() {};
    let probe = sim.probe::<u64>();
    let p = probe.clone();
    sim.spawn("pinger", move |ctx| {
        let round_trip = || {
            let send = m0.isend(ctx, Rank(1), tag, Payload::synthetic(64));
            let recv = m0.irecv(ctx, RankSel::Is(Rank(1)), TagSel::Is(tag));
            test_until_done(&m0, ctx, recv);
            test_until_done(&m0, ctx, send);
        };
        // Warm-up: the event arena, request slab, per-peer state and
        // queues reach their steady state.
        for _ in 0..ROUND_TRIPS {
            round_trip();
        }
        let (allocs, ()) = allocs_during(|| (0..ROUND_TRIPS).for_each(|_| round_trip()));
        p.set(allocs);
        // One more, so the ponger exits outside the measured window.
        round_trip();
    });
    sim.spawn("ponger", move |ctx| {
        for _ in 0..2 * ROUND_TRIPS + 1 {
            let recv = m1.irecv(ctx, RankSel::Is(Rank(0)), TagSel::Is(tag));
            test_until_done(&m1, ctx, recv);
            let send = m1.isend(ctx, Rank(0), tag, Payload::synthetic(64));
            test_until_done(&m1, ctx, send);
        }
    });
    sim.run().expect("ping-pong failed");
    let allocs = probe.get().expect("probe not set");
    assert_eq!(allocs % (2 * ROUND_TRIPS), 0, "{allocs} allocations");
    allocs / (2 * ROUND_TRIPS)
}

/// Per message: the boxed wire payload and the boxed transmit callback.
/// Splitting the message into packets allocates nothing.
const ALLOCS_PER_EAGER_MESSAGE: u64 = 2;

#[test]
fn warm_eager_round_trip_allocates_only_per_message_boxes_on_gm() {
    assert_eq!(
        warm_eager_round_trip_allocs(&HwConfig::gm_myrinet()),
        ALLOCS_PER_EAGER_MESSAGE
    );
}

#[test]
fn warm_eager_round_trip_allocates_only_per_message_boxes_on_portals() {
    assert_eq!(
        warm_eager_round_trip_allocs(&HwConfig::portals_myrinet()),
        ALLOCS_PER_EAGER_MESSAGE
    );
}
