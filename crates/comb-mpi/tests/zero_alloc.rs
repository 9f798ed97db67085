//! A warm `MPI_Test` on a pending request must not heap-allocate.
//!
//! COMB's polling loop calls `MPI_Test` once per iteration; until the
//! message lands, each call charges the test cost on the CPU, runs library
//! progress over an empty receive ring and finds the request incomplete.
//! None of that needs the allocator once the event arena is warm.

#[path = "../../comb-sim/tests/support/counting_alloc.rs"]
mod counting_alloc;

use comb_hw::{Cluster, HwConfig};
use comb_mpi::{MpiWorld, Rank, RankSel, Tag, TagSel};
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
