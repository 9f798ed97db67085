//! COMB vs a netperf-style methodology (paper Section 5).
//!
//! netperf measures availability by timing a delay loop in one process
//! while a *second* process on the same node drives traffic. That is
//! sound when the driver sleeps in `select` (TCP), but MPI over OS-bypass
//! transports **busy-waits** — the driver burns the CPU the delay loop is
//! measuring — and so netperf reports near-the-time-slice-floor
//! availability on a transport that actually overlaps almost perfectly.
//! COMB's single-process polling method does not have this blind spot.
//!
//! ```sh
//! cargo run --release --example netperf_comparison
//! ```

use comb::core::{run, MethodConfig, NetperfParams, PollingParams, RunSpec, Transport};

fn main() {
    println!("Availability as seen by two methodologies (100 KB messages)\n");
    println!(
        "{:<10} {:>22} {:>22} {:>18}",
        "platform", "netperf (busy-wait)", "netperf (select)", "COMB polling"
    );
    println!("{}", "-".repeat(76));
    for t in [Transport::Gm, Transport::Portals] {
        let name = t.name();
        let cfg = MethodConfig::new(t, 100 * 1024);
        let spec = RunSpec::of(&cfg);
        let netperf = |busy_wait| NetperfParams {
            msg_bytes: cfg.msg_bytes,
            total_iters: 4_000_000,
            busy_wait,
        };
        let busy = run(&netperf(true), &spec).expect("netperf busy").sample;
        let sleepy = run(&netperf(false), &spec).expect("netperf select").sample;
        let comb = run(&PollingParams::new(&cfg, 10_000), &spec)
            .expect("comb polling")
            .sample;
        println!(
            "{:<10} {:>14.3} ({:>4.1} MB/s) {:>13.3} ({:>4.1} MB/s) {:>9.3} ({:>4.1} MB/s)",
            name,
            busy.availability,
            busy.bandwidth_mbs,
            sleepy.availability,
            sleepy.bandwidth_mbs,
            comb.availability,
            comb.bandwidth_mbs,
        );
    }
    println!();
    println!("Reading the table:");
    println!(" * GM + busy-wait: netperf's driver spins between messages and the");
    println!("   delay loop reads ~the fair-share floor — nothing like the ~0.9");
    println!("   COMB measures for the same overlap. This is the paper's case for");
    println!("   a single-process, MPI-aware benchmark.");
    println!(" * With a sleeping (select-style) driver the two methods agree much");
    println!("   more closely — netperf's home turf.");
}
