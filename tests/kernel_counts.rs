//! Exact kernel accounting of the smoke figure set.
//!
//! Every COMB figure at smoke fidelity, on one worker and the serial
//! kernel, fires a fixed number of events. The counts are part of the
//! behaviour contract: a kernel change that runs a process in place of an
//! event must still charge that event, so these numbers stay put while the
//! work behind them shrinks. A warm rerun from the store the cold pass
//! filled simulates nothing: it fires no event and answers every cell from
//! disk. Process stacks are reused once their process ends, so the cold
//! pass maps only as many as its one worker ever has processes alive at
//! once, and the warm pass maps none. `KernelStats::global` and
//! `StackStats::global` are process-wide, so this is the only test in its
//! binary.

use comb::core::{CacheMode, CellCache};
use comb::hw::burst_batched_packets_total;
use comb::report::{run_figures_cached, Fidelity, FigureId};
use comb::sim::{KernelStats, StackStats};
use std::sync::Arc;

#[test]
fn smoke_figure_set_fires_the_pinned_kernel_counts() {
    let store = std::env::temp_dir().join(format!("comb_kernel_counts_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    // Each pass runs on a fresh cache over the same store, so the warm
    // pass starts with an empty memory tier and reads every cell from disk.
    let pass = || {
        let cache = Arc::new(CellCache::new(store.clone(), CacheMode::ReadWrite));
        let reports = run_figures_cached(
            &FigureId::ALL,
            Fidelity::smoke().with_jobs(1).with_shards(1),
            None,
            Some(Arc::clone(&cache)),
        )
        .expect("smoke figure set failed");
        let csvs: Vec<String> = reports.iter().map(|r| r.dataset.to_csv()).collect();
        (csvs, cache.stats())
    };

    let (k0, b0, s0) = (
        KernelStats::global(),
        burst_batched_packets_total(),
        StackStats::global(),
    );
    let (cold_csvs, cold) = pass();
    let (k, s) = (KernelStats::global(), StackStats::global());
    assert_eq!(k.fired - k0.fired, 1_003_586, "fired");
    assert_eq!(k.scheduled - k0.scheduled, 1_184_638, "scheduled");
    assert_eq!(k.cancelled - k0.cancelled, 181_052, "cancelled");
    assert_eq!(k.lane_scheduled - k0.lane_scheduled, 388_705, "lane");
    assert_eq!(k.boxed_calls - k0.boxed_calls, 0, "boxed");
    // A maximum over every simulation of the process, not a sum.
    assert_eq!(k.arena_high_water, 594, "arena high water");
    assert_eq!(
        burst_batched_packets_total() - b0,
        33_535,
        "burst-batched packets"
    );
    assert_eq!(s.mapped - s0.mapped, 2, "stacks mapped by the cold pass");
    assert_eq!(cold.stored, 104, "cells stored by the cold pass");

    let (warm_csvs, warm) = pass();
    assert_eq!(
        KernelStats::global().fired - k.fired,
        0,
        "warm events fired"
    );
    assert_eq!(
        StackStats::global().mapped - s.mapped,
        0,
        "warm stacks mapped"
    );
    assert_eq!(warm.misses, 0, "warm misses");
    assert_eq!(warm.hits_disk, 104, "warm disk hits");
    assert_eq!(warm_csvs, cold_csvs, "warm CSVs differ from cold");
    let _ = std::fs::remove_dir_all(&store);
}
