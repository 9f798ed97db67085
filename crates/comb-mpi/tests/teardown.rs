//! A finished simulation frees its models: once the simulation, the MPI
//! world and the cluster are dropped, nothing keeps a node's NIC alive.

use comb_hw::{Cluster, HwConfig, NodeId};
use comb_mpi::{MpiWorld, Payload, Rank, Tag};
use comb_sim::Simulation;
use std::sync::Arc;

/// Run a two-rank eager + rendezvous exchange and return weak references
/// to both NICs after everything that owned them is gone.
fn exchange_then_drop(cfg: &HwConfig) -> Vec<std::sync::Weak<dyn comb_hw::Nic>> {
    let mut sim = Simulation::new();
    let cluster = Cluster::build(&sim.handle(), cfg, 2);
    let world = MpiWorld::attach(&cluster);
    let (m0, m1) = (world.proc(Rank(0)), world.proc(Rank(1)));
    sim.spawn("rank0", move |ctx| {
        m0.send(ctx, Rank(1), Tag(1), Payload::synthetic(1024));
        m0.send(ctx, Rank(1), Tag(2), Payload::synthetic(300 * 1024));
    });
    sim.spawn("rank1", move |ctx| {
        let (st, _) = m1.recv(ctx, Rank(0), Tag(1));
        assert_eq!(st.len, 1024);
        let (st, _) = m1.recv(ctx, Rank(0), Tag(2));
        assert_eq!(st.len, 300 * 1024);
    });
    sim.run().expect("exchange completes");
    let nics = (0..2)
        .map(|i| Arc::downgrade(&cluster.node(NodeId(i)).nic))
        .collect();
    drop(sim);
    drop(world);
    drop(cluster);
    nics
}

#[test]
fn dropped_simulation_frees_its_nics() {
    for cfg in [HwConfig::gm_myrinet(), HwConfig::portals_myrinet()] {
        for (i, nic) in exchange_then_drop(&cfg).iter().enumerate() {
            assert!(
                nic.upgrade().is_none(),
                "node {i}'s NIC outlived its simulation on {}",
                cfg.name
            );
        }
    }
}
