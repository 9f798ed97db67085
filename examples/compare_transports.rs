//! Compare the three simulated platforms the way the paper compares GM and
//! Portals (Section 4): peak bandwidth, the availability it costs, and
//! whether the platform provides application offload.
//!
//! ```sh
//! cargo run --release --example compare_transports
//! ```

use comb::core::{run, MethodConfig, PollingParams, PwwParams, RunSpec, Transport};
use comb::hw::HwConfig;

struct Row {
    name: String,
    poll_bw: f64,
    poll_avail: f64,
    pww_wait_us: f64,
    offload: bool,
    post_us: f64,
}

fn measure(transport: Transport) -> Row {
    let name = transport.name();
    let cfg = MethodConfig::new(transport, 100 * 1024);
    let spec = RunSpec::of(&cfg);

    // Peak sustained bandwidth and the availability at that operating
    // point: polling method with a short poll interval.
    let poll = run(&PollingParams::new(&cfg, 10_000), &spec)
        .expect("polling")
        .sample;

    // Application offload detector: PWW with a 40 ms work phase. If the
    // per-message wait is still substantial, the transfer could not make
    // progress without library calls.
    let pww = run(&PwwParams::new(&cfg, 10_000_000, false), &spec)
        .expect("pww")
        .sample;
    let offload = pww.wait_per_msg.as_micros() < 300;

    Row {
        name,
        poll_bw: poll.bandwidth_mbs,
        poll_avail: poll.availability,
        pww_wait_us: pww.wait_per_msg.as_micros_f64(),
        offload,
        post_us: pww.post_per_msg.as_micros_f64(),
    }
}

fn main() {
    println!("COMB platform comparison (100 KB messages)\n");
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "platform", "poll BW", "avail@peak", "post/msg", "PWW wait", "offload?"
    );
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "", "(MB/s)", "", "(us)", "(us)", ""
    );
    println!("{}", "-".repeat(72));
    let platforms = [
        Transport::Gm,
        Transport::Portals,
        Transport::from(HwConfig::portals_myrinet_smp()),
        Transport::Emp,
    ];
    for t in platforms {
        let r = measure(t);
        println!(
            "{:<10} {:>12.1} {:>12.3} {:>12.1} {:>12.1} {:>10}",
            r.name,
            r.poll_bw,
            r.poll_avail,
            r.post_us,
            r.pww_wait_us,
            if r.offload { "yes" } else { "no" }
        );
    }
    println!();
    println!("Reading the table like the paper does:");
    println!(" * GM wins on raw bandwidth (OS-bypass, no interrupts, no copies)");
    println!("   but lacks application offload: its PWW wait still contains the");
    println!("   whole rendezvous transfer (Fig 11).");
    println!(" * Portals offloads (wait -> 0) but interrupts depress availability");
    println!("   and kernel copies cap its bandwidth (Figs 4, 12, 15).");
    println!(" * Portals-SMP is the paper's Section 7 future work: steering NIC");
    println!("   interrupts to a second processor keeps the offload and returns");
    println!("   the stolen cycles to the application.");
    println!(" * The EMP-like platform shows both properties can coexist when the");
    println!("   NIC itself does the matching (paper's related work [10]).");
}
