//! A simulation's threads end with it: after many `run_polling_pairs`
//! calls, serial and sharded, the process has exactly as many threads as
//! before them. Simulated processes are coroutines on the thread that runs
//! the simulation, so the only threads a run starts are the shard workers
//! of a sharded run: `S − 1` of them for `S` shards, since the calling
//! thread runs shard 0 itself.

#![cfg(target_os = "linux")]

use comb_core::{run_polling_pairs, MethodConfig, Transport};
use std::time::{Duration, Instant};

fn status_field(name: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(name))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {name} line in /proc/self/status"))
}

#[test]
fn fifty_pair_runs_leave_no_threads_behind() {
    let mut cfg = MethodConfig::new(Transport::Gm, 100 * 1024);
    cfg.target_iters = 100_000;
    cfg.max_intervals = 100;
    let threads = status_field("Threads:");
    for i in 0..50 {
        cfg.shards = 1 + i % 2;
        run_polling_pairs(&cfg, 10_000, 4).expect("pairs run failed");
    }
    // A joined thread can linger in /proc for a moment after it returns
    // (scoped shard workers are "joined" when their closure ends), so give
    // the count a grace period; a leak never comes back down.
    let deadline = Instant::now() + Duration::from_secs(5);
    while status_field("Threads:") != threads && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        status_field("Threads:"),
        threads,
        "shard worker threads outlived their simulations"
    );
}
