//! Models belong to the thread that runs their simulation.
//!
//! A CPU's or an MPI engine's state sits in a simulation-owned cell, not
//! behind a lock: while the simulation runs, only its thread may touch it,
//! and any other thread that tries stops with a panic naming the model's
//! state type. Once `run` returns, the driver reads results as before —
//! after a serial run and after a sharded one alike.

use comb_hw::{Cluster, CpuStats, HwConfig, NodeId};
use comb_mpi::{MpiStats, MpiWorld, Payload, Rank, Tag};
use comb_sim::{ShardedSimulation, Simulation};
use std::panic::{self, AssertUnwindSafe};

/// The panic message of `f` run on a thread of its own.
fn panic_on_another_thread<R>(f: impl FnOnce() -> R + Send) -> String {
    std::thread::scope(|s| {
        let payload = s
            .spawn(|| panic::catch_unwind(AssertUnwindSafe(f)).map(|_| ()))
            .join()
            .expect("the probing thread returns")
            .expect_err("touching a running simulation's model must panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    })
}

#[test]
fn touching_models_of_a_running_simulation_from_another_thread_panics() {
    let mut sim = Simulation::new();
    let cluster = Cluster::build(&sim.handle(), &HwConfig::gm_myrinet(), 2);
    let world = MpiWorld::attach(&cluster);
    let cpu = cluster.node(NodeId(0)).cpu.clone();
    let mpi = world.proc(Rank(0));
    let probe = sim.probe::<(String, String)>();
    let p = probe.clone();
    sim.spawn("rank0", move |_ctx| {
        let cpu_text = panic_on_another_thread(|| cpu.stats());
        let mpi_text = panic_on_another_thread(|| mpi.stats());
        p.set((cpu_text, mpi_text));
    });
    sim.run().expect("run completes");
    let (cpu_text, mpi_text) = probe.get().expect("probe not set");
    for (text, ty) in [(cpu_text, "CpuInner"), (mpi_text, "EngineInner")] {
        assert!(
            text.contains(ty) && text.contains("does not own its running simulation"),
            "{text}"
        );
    }
}

#[test]
fn stats_stay_readable_from_the_driver_after_serial_and_sharded_runs() {
    let cfg = HwConfig::gm_myrinet();
    let serial = {
        let mut sim = Simulation::new();
        let cluster = Cluster::build(&sim.handle(), &cfg, 2);
        let world = MpiWorld::attach(&cluster);
        spawn_exchange(&world, |name, body| {
            sim.spawn(name, body);
        });
        sim.run().expect("serial run completes");
        read_stats(&cluster, &world)
    };
    let sharded = {
        let mut sim = ShardedSimulation::new(2, cfg.lookahead());
        let handles = [sim.handle(0), sim.handle(1)];
        let cluster = Cluster::build_sharded(&handles, &cfg, 2, comb_trace::Tracer::new());
        let world = MpiWorld::attach(&cluster);
        let mut shard = 0;
        spawn_exchange(&world, |name, body| {
            sim.spawn(shard, name, body);
            shard += 1;
        });
        sim.run().expect("sharded run completes");
        read_stats(&cluster, &world)
    };
    assert_eq!(serial, sharded, "the driver reads the same results");
    let (cpu, mpi0, mpi1) = serial;
    assert!(cpu.compute_wall.as_nanos() > 0, "rank 0 computed");
    assert_eq!((mpi0.isends, mpi0.rndv_sends), (1, 1));
    assert_eq!((mpi1.irecvs, mpi1.recvs_completed), (1, 1));
}

type Body = Box<dyn FnOnce(&comb_sim::ProcCtx) + Send>;

/// Spawn rank 0 sending 300 KiB (rendezvous) to rank 1, in rank order.
fn spawn_exchange(world: &MpiWorld, mut spawn: impl FnMut(&str, Body)) {
    let (m0, m1) = (world.proc(Rank(0)), world.proc(Rank(1)));
    spawn(
        "rank0",
        Box::new(move |ctx| {
            m0.send(ctx, Rank(1), Tag(1), Payload::synthetic(300 * 1024));
        }),
    );
    spawn(
        "rank1",
        Box::new(move |ctx| {
            m1.recv(ctx, Rank(0), Tag(1));
        }),
    );
}

/// Rank 0's CPU counters and both engines' counters, read by the driver.
fn read_stats(cluster: &Cluster, world: &MpiWorld) -> (CpuStats, MpiStats, MpiStats) {
    (
        cluster.node(NodeId(0)).cpu.stats(),
        world.proc(Rank(0)).stats(),
        world.proc(Rank(1)).stats(),
    )
}
