//! A process that overflows its stack hits the guard page below it and
//! dies with SIGSEGV, rather than writing over whatever is mapped there.
//! The overflow runs in a re-executed child of this test binary.

#![cfg(target_os = "linux")]

use comb_sim::Simulation;
use std::io::Write;
use std::os::unix::process::ExitStatusExt;
use std::process::Command;

const CHILD_ENV: &str = "COMB_SIM_STACK_GUARD_CHILD";
const TEST_NAME: &str = "a_process_overflowing_its_stack_dies_with_sigsegv_at_the_guard_page";
/// The usable stack of a simulated process.
const STACK: u64 = 2 << 20;
const SIGSEGV: i32 = 11;

/// Recurse with 1 KiB of frame per level, reporting on stderr every 16
/// levels how far below `top` the stack has grown. The depth limit is a
/// gigabyte of frames, far past any stack.
fn recurse(top: usize, level: u64) -> u64 {
    if level == 1 << 20 {
        return 0;
    }
    let frame = std::hint::black_box([level as u8; 1024]);
    let here = frame.as_ptr() as usize;
    if level.is_multiple_of(16) {
        // Straight to the unbuffered stderr: the last line must be out
        // before the fault kills the process.
        let line = format!("depth {}\n", top - here);
        let _ = std::io::stderr().write_all(line.as_bytes());
    }
    // Not a tail call: the frame is used after the recursion returns.
    recurse(top, level + 1) + u64::from(frame[level as usize % 1024])
}

fn overflow_in_a_process() {
    let mut sim = Simulation::new();
    sim.spawn("deep", |_ctx| {
        let top = std::hint::black_box(0u8);
        let top = &top as *const u8 as usize;
        std::hint::black_box(recurse(top, 0));
    });
    let _ = sim.run();
}

#[test]
fn a_process_overflowing_its_stack_dies_with_sigsegv_at_the_guard_page() {
    if std::env::var_os(CHILD_ENV).is_some() {
        overflow_in_a_process();
        unreachable!("the recursion returned without overflowing");
    }
    let out = Command::new(std::env::current_exe().expect("test binary path"))
        .args(["--exact", TEST_NAME, "--nocapture", "--test-threads=1"])
        .env(CHILD_ENV, "1")
        .output()
        .expect("re-execute the test binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.signal(),
        Some(SIGSEGV),
        "child should die of SIGSEGV: {:?}\n{stderr}",
        out.status
    );
    // The fault came where the 2 MiB stack ends: the deepest report is
    // just short of it.
    let deepest = stderr
        .lines()
        .filter_map(|l| l.strip_prefix("depth "))
        .filter_map(|d| d.trim().parse::<u64>().ok())
        .max()
        .expect("the child reported no depth");
    assert!(
        (STACK - (64 << 10)..STACK).contains(&deepest),
        "deepest report {deepest} bytes; the stack is {STACK}"
    );
}
