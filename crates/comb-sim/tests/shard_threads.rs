//! The calling thread runs shard 0 of a sharded simulation itself: a run
//! on `S` shards starts `S − 1` worker threads, and no thread that only
//! coordinates the barriers.
//!
//! The only test in its binary, so no other test's threads move the count.

#![cfg(target_os = "linux")]

use comb_sim::{ShardedSimulation, SimDuration};
use std::time::{Duration, Instant};

fn threads() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("no Threads: line in /proc/self/status")
}

#[test]
fn a_run_on_s_shards_starts_s_minus_one_threads() {
    let before = threads();
    for shards in [2u64, 3, 4] {
        // A joined worker can linger in /proc for a moment after it
        // returns: let the last run's workers go first.
        let deadline = Instant::now() + Duration::from_secs(5);
        while threads() != before && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut sim = ShardedSimulation::new(shards as usize, SimDuration::from_micros(5));
        let probe = sim.probe::<u64>();
        for shard in 0..shards as usize {
            let p = probe.clone();
            sim.spawn(shard, &format!("p{shard}"), move |ctx| {
                // Every shard's thread is up before the last shard looks.
                ctx.hold(SimDuration::from_micros(1));
                if shard as u64 == shards - 1 {
                    p.set(threads());
                }
            });
        }
        sim.run().expect("run failed");
        assert_eq!(
            probe.get(),
            Some(before + shards - 1),
            "threads during a {shards}-shard run"
        );
    }
}
