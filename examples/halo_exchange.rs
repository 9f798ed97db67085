//! A real application pattern on the simulated cluster: 1-D stencil halo
//! exchange with communication/computation overlap — the workload class the
//! paper's introduction motivates. Shows how COMB's platform-level findings
//! (offload or not, overhead or not) translate into application time.
//!
//! The scenario itself lives in the library (`comb::core::HaloPoint`, run
//! by `comb::core::run`; swept form in `comb::report::generate_halo`);
//! this example runs the full-size configuration on the serial kernel and narrates the findings.
//! `comb halo --shards <n>` runs the swept form on the sharded kernel — the numbers do not change.
//!
//! ```sh
//! cargo run --release --example halo_exchange
//! ```

use comb::core::{run, HaloParams, HaloPoint, RunSpec};
use comb::hw::HwConfig;

/// Interior work per iteration, in calibrated loop iterations (4 ms).
const INTERIOR_ITERS: u64 = 1_000_000;

fn main() {
    let params = HaloParams::example();
    println!(
        "1-D halo exchange, {} ranks, {} iterations, {} KB halos\n",
        params.ranks,
        params.iterations,
        params.halo_bytes / 1024
    );
    println!(
        "{:<10} {:>14} {:>14} {:>10}",
        "platform", "no overlap", "overlapped", "speedup"
    );
    println!("{}", "-".repeat(52));
    for hw in [
        HwConfig::gm_myrinet(),
        HwConfig::portals_myrinet(),
        HwConfig::emp_ethernet(),
    ] {
        let spec = RunSpec::new(hw);
        let halo_ms = |overlap| {
            let point = HaloPoint {
                params,
                interior_iters: INTERIOR_ITERS,
                overlap,
            };
            run(&point, &spec).expect("halo run").sample
        };
        let (base, over) = (halo_ms(false), halo_ms(true));
        println!(
            "{:<10} {:>11.1} ms {:>11.1} ms {:>9.2}x",
            spec.hw.name,
            base,
            over,
            base / over
        );
    }
    println!();
    println!("COMB's findings, seen from the application:");
    println!(" * On GM overlapping buys NOTHING (1.00x): without application");
    println!("   offload the rendezvous halos stall until waitall, exactly what");
    println!("   the PWW method predicts (Fig 11). Inserting MPI_Test calls into");
    println!("   the interior loop would close the gap (Fig 17).");
    println!(" * On offloaded transports the halos complete inside the interior");
    println!("   computation, so overlap converts wait time into free time —");
    println!("   minus the interrupt overhead on Portals (Fig 12).");
}
