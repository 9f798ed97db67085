//! Cross-crate determinism: the whole pipeline — simulation, hardware,
//! MPI, benchmark methods, figure generation, CSV bytes — must be
//! bit-for-bit reproducible run to run.

use comb::core::{
    polling_sweep, pww_sweep, run_polling_point, run_pww_point, MethodConfig, Transport,
};
use comb::hw::FaultPlan;
use comb::report::{generate, generate_all, Campaigns, Fidelity, FigureId};

fn cfg(t: Transport) -> MethodConfig {
    let mut c = MethodConfig::new(t, 50 * 1024);
    c.cycles = 4;
    c.target_iters = 1_000_000;
    c.max_intervals = 1_500;
    c
}

#[test]
fn polling_points_are_bitwise_reproducible() {
    for t in [Transport::Gm, Transport::Portals, Transport::Emp] {
        let c = cfg(t);
        let a = run_polling_point(&c, 50_000).unwrap();
        let b = run_polling_point(&c, 50_000).unwrap();
        assert_eq!(a, b, "polling divergence on {}", c.transport.name());
    }
}

#[test]
fn pww_points_are_bitwise_reproducible() {
    for t in [Transport::Gm, Transport::Portals] {
        let c = cfg(t);
        for test_in_work in [false, true] {
            let a = run_pww_point(&c, 500_000, test_in_work).unwrap();
            let b = run_pww_point(&c, 500_000, test_in_work).unwrap();
            assert_eq!(a, b);
        }
    }
}

#[test]
fn figure_csv_bytes_are_stable() {
    let fidelity = Fidelity {
        per_decade: 1,
        cycles: 3,
        target_iters: 500_000,
        max_intervals: 800,
        jobs: 0,
        shards: 0,
        adaptive: None,
    };
    let make = || {
        let mut campaigns = Campaigns::new(fidelity);
        generate(FigureId::Fig13, &mut campaigns).unwrap().to_csv()
    };
    assert_eq!(make(), make());
}

#[test]
fn parallel_campaigns_are_byte_identical_to_serial() {
    // The acceptance bar for the worker pool: the full evaluation's CSV
    // bytes must not depend on the worker count.
    let csvs = |jobs: usize| -> Vec<String> {
        generate_all(Fidelity::smoke().with_jobs(jobs))
            .unwrap()
            .iter()
            .map(|ds| ds.to_csv())
            .collect()
    };
    let serial = csvs(1);
    assert_eq!(serial.len(), 14);
    for jobs in [4, comb::core::available_jobs()] {
        assert_eq!(serial, csvs(jobs), "CSV bytes diverge at jobs={jobs}");
    }
}

#[test]
fn kernel_rewrite_era_csvs_match_committed_goldens_at_any_jobs() {
    // fig04 (polling availability) and fig10 (PWW post time) smoke CSVs
    // were snapshotted under tests/golden/ when the slab-arena/indexed-heap
    // kernel and wire-burst batching landed — byte equality here proves the
    // hot-path rewrite changed no simulated result, serial or parallel.
    let golden = |name: &str| -> String {
        let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(name);
        std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()))
    };
    for jobs in [1usize, 4] {
        let mut campaigns = Campaigns::new(Fidelity::smoke().with_jobs(jobs));
        let fig04 = generate(FigureId::Fig04, &mut campaigns).unwrap().to_csv();
        let fig10 = generate(FigureId::Fig10, &mut campaigns).unwrap().to_csv();
        assert_eq!(fig04, golden("fig04_smoke.csv"), "fig04 at jobs={jobs}");
        assert_eq!(fig10, golden("fig10_smoke.csv"), "fig10 at jobs={jobs}");
    }
}

#[test]
fn sharded_kernel_csvs_match_committed_goldens_across_shards_and_jobs() {
    // The sharded-kernel acceptance bar: at every point of the shards x
    // jobs matrix, figure CSV bytes equal the serial goldens. Shards
    // parallelize INSIDE a simulation (conservative lookahead epochs),
    // jobs ACROSS simulations (the sweep pool); neither — nor their
    // combination — may change a single byte.
    let golden = |name: &str| -> String {
        let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(name);
        std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()))
    };
    for shards in [1usize, 2, 4] {
        for jobs in [1usize, 4] {
            let fidelity = Fidelity::smoke().with_jobs(jobs).with_shards(shards);
            let mut campaigns = Campaigns::new(fidelity);
            let fig04 = generate(FigureId::Fig04, &mut campaigns).unwrap().to_csv();
            let fig10 = generate(FigureId::Fig10, &mut campaigns).unwrap().to_csv();
            assert_eq!(
                fig04,
                golden("fig04_smoke.csv"),
                "fig04 at shards={shards} jobs={jobs}"
            );
            assert_eq!(
                fig10,
                golden("fig10_smoke.csv"),
                "fig10 at shards={shards} jobs={jobs}"
            );
        }
    }
}

#[test]
fn faulted_sweeps_are_byte_identical_across_jobs_and_runs() {
    // The fault subsystem's acceptance bar: every fault source active at
    // once, and the sweep's samples (fault counters included) must not
    // depend on the worker count, the kernel shard count or the run. The
    // shard epoch is as wide as the lookahead allows, which holds only
    // because no fault penalty pulls a packet's departure earlier.
    let mut c = cfg(Transport::Portals);
    c.fault = FaultPlan::from_specs(
        &[
            "loss=burst:0.02",
            "stall=300:0.2",
            "storm=500:15",
            "degrade=400:0.3:2.5",
            "dropctl=0.2",
        ],
        Some(42),
    )
    .unwrap();
    let intervals = [5_000u64, 50_000, 500_000];
    c.jobs = 1;
    c.shards = 1;
    let serial_poll = polling_sweep(&c, &intervals).unwrap();
    let serial_pww = pww_sweep(&c, &intervals, false).unwrap();
    assert!(
        serial_poll.iter().any(|s| s.faults.lost_packets > 0),
        "the plan must actually inject faults"
    );
    let all = comb::core::available_jobs();
    for (jobs, shards) in [(1, 1), (4, 1), (all, 1), (1, 2), (all, 3)] {
        c.jobs = jobs;
        c.shards = shards;
        assert_eq!(
            polling_sweep(&c, &intervals).unwrap(),
            serial_poll,
            "faulted polling sweep diverges at jobs={jobs} shards={shards}"
        );
        assert_eq!(
            pww_sweep(&c, &intervals, false).unwrap(),
            serial_pww,
            "faulted pww sweep diverges at jobs={jobs} shards={shards}"
        );
    }
}

#[test]
fn same_seed_reruns_and_distinct_seeds_behave() {
    let mut c = cfg(Transport::Gm);
    c.fault = FaultPlan::from_specs(&["loss=uniform:0.05"], Some(7)).unwrap();
    let a = run_polling_point(&c, 50_000).unwrap();
    let b = run_polling_point(&c, 50_000).unwrap();
    assert_eq!(a, b, "same seed must reproduce the faulted run exactly");
    assert!(a.faults.lost_packets > 0);
    let mut c2 = c.clone();
    c2.fault = FaultPlan::from_specs(&["loss=uniform:0.05"], Some(8)).unwrap();
    let d = run_polling_point(&c2, 50_000).unwrap();
    assert_ne!(
        a.faults, d.faults,
        "a different fault seed must draw a different loss stream"
    );
}

#[test]
fn distinct_configs_give_distinct_results() {
    // A sanity guard against accidentally caching across configurations.
    let a = run_polling_point(&cfg(Transport::Gm), 50_000).unwrap();
    let mut c2 = cfg(Transport::Gm);
    c2.msg_bytes = 100 * 1024;
    let b = run_polling_point(&c2, 50_000).unwrap();
    assert_ne!(a.msg_bytes, b.msg_bytes);
    assert_ne!(a.bandwidth_mbs, b.bandwidth_mbs);
}
