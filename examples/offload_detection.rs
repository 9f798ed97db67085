//! The paper's Section 4.1/4.3 analysis as a runnable diagnosis: use the
//! PWW phase timings to classify a platform, then show how a single
//! `MPI_Test` inside the work phase changes a library-progress transport.
//!
//! ```sh
//! cargo run --release --example offload_detection
//! ```

use comb::core::{run, MethodConfig, PwwParams, PwwSample, RunSpec, Transport};

fn classify(name: &str, plain: &PwwSample, tested: &PwwSample) {
    println!("--- {name} ---");
    println!(
        "  PWW @ 16 ms work:   post/msg {:>10}   wait/msg {:>10}",
        plain.post_per_msg, plain.wait_per_msg
    );
    println!(
        "  work with MH {:>10}  vs  work only {:>10}",
        plain.work_with_mh, plain.work_only
    );

    let offload = plain.wait_per_msg.as_micros() < 300;
    let overhead = plain
        .work_with_mh
        .saturating_sub(plain.work_only)
        .as_micros()
        > 100;

    match (offload, overhead) {
        (true, true) => println!(
            "  => APPLICATION OFFLOAD with CPU overhead: messaging progresses on\n\
             \x20    its own, but steals host cycles (interrupt-driven, Portals-like)."
        ),
        (true, false) => println!(
            "  => APPLICATION OFFLOAD with no overhead: the NIC does everything\n\
             \x20    (EMP-like; the ideal quadrant)."
        ),
        (false, false) => println!(
            "  => NO application offload: the work phase is undisturbed, but the\n\
             \x20    wait phase absorbs the transfer. Progress needs library calls\n\
             \x20    (GM-like; violates the MPI Progress Rule, paper Section 4.3)."
        ),
        (false, true) => println!("  => no offload AND overhead: worst of both worlds."),
    }

    // What one MPI_Test does (the paper's modified PWW, Fig 17).
    println!(
        "  with one MPI_Test in the work phase: wait/msg {} -> {}  (bandwidth {:.1} -> {:.1} MB/s)",
        plain.wait_per_msg, tested.wait_per_msg, plain.bandwidth_mbs, tested.bandwidth_mbs
    );
    println!();
}

fn main() {
    println!("COMB application-offload detector (PWW method, 100 KB)\n");
    for t in [Transport::Gm, Transport::Portals, Transport::Emp] {
        let name = t.name();
        let cfg = MethodConfig::new(t, 100 * 1024);
        let spec = RunSpec::of(&cfg);
        let work = 4_000_000; // 16 ms: enough to absorb a 100 KB transfer
        let plain = run(&PwwParams::new(&cfg, work, false), &spec)
            .expect("pww")
            .sample;
        let tested = run(&PwwParams::new(&cfg, work, true), &spec)
            .expect("pww+test")
            .sample;
        classify(&name, &plain, &tested);
    }
}
