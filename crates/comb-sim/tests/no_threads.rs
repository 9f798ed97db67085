//! Simulated processes are coroutines on the thread that runs the
//! simulation: a serial run of 64 processes starts no OS thread.
//!
//! The only test in its binary, so no other test's threads move the count.

#![cfg(target_os = "linux")]

use comb_sim::{SimDuration, Simulation};

fn threads() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("no Threads: line in /proc/self/status")
}

#[test]
fn a_serial_run_of_64_processes_creates_no_thread() {
    const PROCS: u64 = 64;
    let before = threads();
    let mut sim = Simulation::new();
    let probe = sim.probe::<u64>();
    for i in 0..PROCS {
        let p = probe.clone();
        sim.spawn(&format!("p{i}"), move |ctx| {
            // Every process is started and suspended before the last one
            // looks.
            ctx.hold(SimDuration::from_micros(1 + i));
            if i == PROCS - 1 {
                p.set(threads());
            }
        });
    }
    sim.run().expect("run failed");
    assert_eq!(probe.get(), Some(before), "threads during the run");
}
