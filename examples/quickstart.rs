//! Quickstart: run one point of each COMB method on the simulated GM
//! platform and print what the paper's metrics look like.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use comb::core::{run, MethodConfig, PollingParams, PwwParams, RunSpec, Transport};

fn main() {
    // 100 KB messages on the GM-like (OS-bypass, library-progress) platform.
    let cfg = MethodConfig::new(Transport::Gm, 100 * 1024);
    // How to run each point: the configuration's hardware, serial kernel,
    // no trace, no watchdog.
    let spec = RunSpec::of(&cfg);

    // Polling method: poll every 10_000 calibrated loop iterations (40 us
    // on the simulated 500 MHz node).
    let poll = run(&PollingParams::new(&cfg, 10_000), &spec)
        .expect("polling point")
        .sample;
    println!("Polling method @ poll interval 10k iterations:");
    println!("  bandwidth     : {:6.1} MB/s", poll.bandwidth_mbs);
    println!("  availability  : {:6.3}", poll.availability);
    println!("  messages      : {}", poll.messages_received);
    println!("  elapsed       : {}", poll.elapsed);
    println!();

    // Post-Work-Wait method: 1M iterations (4 ms) of work per cycle.
    let pww = run(&PwwParams::new(&cfg, 1_000_000, false), &spec)
        .expect("pww point")
        .sample;
    println!("PWW method @ work interval 1M iterations:");
    println!("  bandwidth     : {:6.1} MB/s", pww.bandwidth_mbs);
    println!("  availability  : {:6.3}", pww.availability);
    println!("  post per msg  : {}", pww.post_per_msg);
    println!("  wait per msg  : {}", pww.wait_per_msg);
    println!("  work w/ MH    : {}", pww.work_with_mh);
    println!("  work only     : {}", pww.work_only);
    println!();

    // The paper's application-offload question, in one comparison: does the
    // wait phase still contain the whole transfer after a long work phase?
    let long_work = run(&PwwParams::new(&cfg, 10_000_000, false), &spec)
        .expect("pww long point")
        .sample;
    if long_work.wait_per_msg.as_micros() > 500 {
        println!(
            "GM: wait/msg is still {} after 40 ms of work — the transfer could \
             not progress without library calls (NO application offload).",
            long_work.wait_per_msg
        );
    } else {
        println!(
            "wait/msg fell to {} — this platform offloads communication.",
            long_work.wait_per_msg
        );
    }
}
