//! Exact kernel accounting of the smoke figure set.
//!
//! Every COMB figure at smoke fidelity, on one worker and the serial
//! kernel, fires a fixed number of events. The counts are part of the
//! behaviour contract: a kernel change that runs a process in place of an
//! event must still charge that event, so these numbers stay put while the
//! work behind them shrinks. `KernelStats::global` is process-wide, so this
//! is the only test in its binary.

use comb::hw::burst_batched_packets_total;
use comb::report::{run_figures_cached, Fidelity, FigureId};
use comb::sim::KernelStats;

#[test]
fn smoke_figure_set_fires_the_pinned_kernel_counts() {
    let before = (KernelStats::global(), burst_batched_packets_total());
    run_figures_cached(
        &FigureId::ALL,
        Fidelity::smoke().with_jobs(1).with_shards(1),
        None,
        None,
    )
    .expect("smoke figure set failed");
    let (k0, b0) = before;
    let k = KernelStats::global();
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
}
