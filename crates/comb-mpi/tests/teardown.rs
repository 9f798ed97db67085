//! A simulation frees its models: once the simulation, the MPI world and
//! the cluster are dropped, nothing keeps a node's NIC alive, whether the
//! run finished or stopped with packets still on the wire. A delivery in
//! flight owns its destination NIC, so only the simulation's drop, which
//! empties its event queue (and, sharded, the cross-shard mailboxes), lets
//! that NIC go.

use comb_hw::{Cluster, HwConfig, Nic, NodeId};
use comb_mpi::{MpiWorld, Payload, Rank, Tag};
use comb_sim::{ProcCtx, ShardedSimulation, SimDuration, SimError, SimTime, Simulation};
use std::sync::{Arc, Weak};

type Body = Box<dyn FnOnce(&ProcCtx) + Send>;

/// Spawn a two-rank eager + 300 KiB rendezvous exchange, in rank order.
fn spawn_exchange(world: &MpiWorld, mut spawn: impl FnMut(&str, Body)) {
    let (m0, m1) = (world.proc(Rank(0)), world.proc(Rank(1)));
    spawn(
        "rank0",
        Box::new(move |ctx| {
            m0.send(ctx, Rank(1), Tag(1), Payload::synthetic(1024));
            m0.send(ctx, Rank(1), Tag(2), Payload::synthetic(300 * 1024));
        }),
    );
    spawn(
        "rank1",
        Box::new(move |ctx| {
            let (st, _) = m1.recv(ctx, Rank(0), Tag(1));
            assert_eq!(st.len, 1024);
            let (st, _) = m1.recv(ctx, Rank(0), Tag(2));
            assert_eq!(st.len, 300 * 1024);
        }),
    );
}

/// Assert that the run stopped with packets still on the wire.
fn assert_mid_flight(cluster: &Cluster, cfg: &HwConfig) {
    let nic = |i| cluster.node(NodeId(i)).nic.stats();
    let sent = nic(0).packets_tx + nic(1).packets_tx;
    let received = nic(0).packets_rx + nic(1).packets_rx;
    assert!(
        0 < received && received < sent,
        "the stop must land mid-transfer on {}: {received} of {sent} packets in",
        cfg.name
    );
}

/// Drop the simulation, then the world and the cluster, and return weak
/// references to both NICs.
fn drop_all<S>(sim: S, world: MpiWorld, cluster: Cluster) -> Vec<Weak<dyn Nic>> {
    let nics = (0..2)
        .map(|i| Arc::downgrade(&cluster.node(NodeId(i)).nic))
        .collect();
    drop(sim);
    drop(world);
    drop(cluster);
    nics
}

/// Run the exchange on one simulation, to its end or, with `stop`, until
/// that instant, and return weak references to both NICs after everything
/// that owned them is gone.
fn exchange_then_drop(cfg: &HwConfig, stop: Option<SimTime>) -> Vec<Weak<dyn Nic>> {
    let mut sim = Simulation::new();
    let cluster = Cluster::build(&sim.handle(), cfg, 2);
    let world = MpiWorld::attach(&cluster);
    spawn_exchange(&world, |name, body| {
        sim.spawn(name, body);
    });
    match stop {
        None => sim.run().map(drop).expect("exchange completes"),
        Some(t) => {
            sim.run_until(t).expect("partial run");
            assert_mid_flight(&cluster, cfg);
        }
    }
    drop_all(sim, world, cluster)
}

/// Send 8 KiB from node 0, on shard 0, to node 1, on shard 1; 1 ms later
/// post a second send and panic at once. The run ends at that epoch's
/// barrier without merging the packets shard 0 routed to shard 1 during
/// the epoch, so they stay in the router's mailbox. Rank 1 runs no
/// process and posts no receive: a process suspended on a worker shard is
/// never unwound (it is dropped off its home thread), so what it owned
/// would leak whatever this test checks.
fn sharded_send_panics_then_drop(cfg: &HwConfig) -> Vec<Weak<dyn Nic>> {
    let mut sim = ShardedSimulation::new(2, cfg.lookahead());
    let handles = [sim.handle(0), sim.handle(1)];
    let cluster = Cluster::build_sharded(&handles, cfg, 2, comb_trace::Tracer::new());
    let world = MpiWorld::attach(&cluster);
    let m0 = world.proc(Rank(0));
    sim.spawn(0, "rank0", move |ctx| {
        m0.send(ctx, Rank(1), Tag(1), Payload::synthetic(8 * 1024));
        ctx.hold(SimDuration::from_micros(1000));
        m0.isend(ctx, Rank(1), Tag(2), Payload::synthetic(8 * 1024));
        panic!("stop the run mid-flight");
    });
    match sim.run() {
        Err(SimError::ProcessPanicked { name, .. }) => assert_eq!(name, "rank0"),
        other => panic!("expected rank 0's panic on {}, got {other:?}", cfg.name),
    }
    assert_mid_flight(&cluster, cfg);
    drop_all(sim, world, cluster)
}

fn assert_freed(run: impl Fn(&HwConfig) -> Vec<Weak<dyn Nic>>, how: &str) {
    for cfg in [HwConfig::gm_myrinet(), HwConfig::portals_myrinet()] {
        for (i, nic) in run(&cfg).iter().enumerate() {
            assert!(
                nic.upgrade().is_none(),
                "node {i}'s NIC outlived its simulation on {} ({how})",
                cfg.name
            );
        }
    }
}

#[test]
fn dropped_simulation_frees_its_nics() {
    assert_freed(|cfg| exchange_then_drop(cfg, None), "run to its end");
}

#[test]
fn a_simulation_stopped_mid_flight_frees_its_nics() {
    let stop = SimTime::from_nanos(1_000_000);
    assert_freed(|cfg| exchange_then_drop(cfg, Some(stop)), "stopped at 1 ms");
}

#[test]
fn a_sharded_simulation_stopped_mid_flight_frees_its_nics() {
    assert_freed(sharded_send_panics_then_drop, "2 shards, panic");
}
