//! Golden-file regression tests for faulted campaigns and cache keys.
//!
//! Each test runs a small-fidelity faulted sweep, renders it to CSV, and
//! diffs the bytes against a checked-in snapshot under `tests/golden/`;
//! one pins the cell-cache keys of the smoke figure set.
//! Any change to the fault models, the retry protocol, the RNG streams or
//! the sweep pipeline that shifts a single byte fails here — that is the
//! point. To accept an intentional change, regenerate the snapshots with:
//!
//! ```text
//! COMB_BLESS=1 cargo test --test golden
//! ```
//!
//! and review the diff like any other code change.

use comb::core::{
    log_spaced, polling_sweep, pww_sweep, run, run_ordered, CellKey, MethodConfig, PwwParams,
    PwwSample, RunError, RunSpec, TracedRun, Transport,
};
use comb::hw::FaultPlan;
use comb::report::{Campaigns, Fidelity, FigureId};
use std::fmt::Write as _;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compare `rendered` against the named snapshot, or rewrite the snapshot
/// when `COMB_BLESS=1`.
fn assert_golden(name: &str, rendered: &str) {
    let path = golden_path(name);
    if std::env::var("COMB_BLESS").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with COMB_BLESS=1 to create it",
            path.display()
        )
    });
    assert!(
        expected == rendered,
        "{name} drifted from its golden snapshot.\n\
         If the change is intentional, regenerate with COMB_BLESS=1 and review.\n\
         --- expected ---\n{expected}\n--- actual ---\n{rendered}"
    );
}

fn faulted_config(transport: Transport, msg_bytes: u64, specs: &[&str]) -> MethodConfig {
    let mut cfg = MethodConfig::new(transport, msg_bytes);
    cfg.cycles = 3;
    cfg.target_iters = 500_000;
    cfg.max_intervals = 800;
    cfg.jobs = 0;
    cfg.fault = FaultPlan::from_specs(specs, None).unwrap();
    cfg
}

#[test]
fn polling_portals_faulted_campaign_matches_golden() {
    // Portals is the kernel NIC: bursty loss plus an interrupt storm
    // exercises retransmission, stall-free ISR charging and the fault
    // counters on the interrupt path.
    let cfg = faulted_config(
        Transport::Portals,
        50 * 1024,
        &["loss=burst:0.02", "storm=500:20"],
    );
    let xs = log_spaced(1_000, 10_000_000, 1);
    let mut out = String::new();
    let _ = writeln!(out, "# golden: polling faulted campaign");
    let _ = writeln!(
        out,
        "# platform: {} | msg_bytes: {} | fault: {}",
        cfg.transport.name(),
        cfg.msg_bytes,
        cfg.fault
    );
    let _ = writeln!(
        out,
        "poll_interval,bandwidth_mbs,availability,messages,\
         lost_packets,retransmissions,ctl_dropped,storm_interrupts,rndv_retries"
    );
    for s in polling_sweep(&cfg, &xs).unwrap() {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{}",
            s.poll_interval,
            s.bandwidth_mbs,
            s.availability,
            s.messages_received,
            s.faults.lost_packets,
            s.faults.retransmissions,
            s.faults.ctl_dropped,
            s.faults.storm_interrupts,
            s.faults.rndv_retries
        );
    }
    assert_golden("polling_portals_faulted.csv", &out);
}

#[test]
fn pww_gm_faulted_campaign_matches_golden() {
    // GM rendezvous messages with dropped control packets: every sample
    // exercises the RTS/CTS retry protocol, and uniform loss rides along.
    let cfg = faulted_config(
        Transport::Gm,
        40 * 1024,
        &["loss=uniform:0.01", "dropctl=0.3"],
    );
    let xs = log_spaced(10_000, 10_000_000, 1);
    let mut out = String::new();
    let _ = writeln!(out, "# golden: pww faulted campaign");
    let _ = writeln!(
        out,
        "# platform: {} | msg_bytes: {} | fault: {}",
        cfg.transport.name(),
        cfg.msg_bytes,
        cfg.fault
    );
    let _ = writeln!(
        out,
        "work_interval,bandwidth_mbs,availability,post_per_msg_ns,wait_per_msg_ns,\
         lost_packets,retransmissions,ctl_dropped,storm_interrupts,rndv_retries"
    );
    for s in pww_sweep(&cfg, &xs, false).unwrap() {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{}",
            s.work_interval,
            s.bandwidth_mbs,
            s.availability,
            s.post_per_msg.as_nanos(),
            s.wait_per_msg.as_nanos(),
            s.faults.lost_packets,
            s.faults.retransmissions,
            s.faults.ctl_dropped,
            s.faults.storm_interrupts,
            s.faults.rndv_retries
        );
    }
    assert_golden("pww_gm_faulted.csv", &out);
}

#[test]
fn smoke_figure_set_cell_keys_match_golden() {
    // The cache key of every cell the smoke figure set resolves, in plan
    // order, then the SHA-256 over those lines. A change to the canonical
    // description or to the hash that moves one key would turn every
    // existing store into misses; it fails here first.
    let descs = Campaigns::new(Fidelity::smoke()).cell_descs(&FigureId::ALL);
    let keys: String = descs
        .iter()
        .map(|d| format!("{}\n", CellKey::from_desc(d)))
        .collect();
    let mut out = String::new();
    let _ = writeln!(out, "# golden: smoke figure set cell keys, plan order");
    let _ = writeln!(out, "# cells: {}", descs.len());
    out.push_str(&keys);
    let _ = writeln!(out, "sha256 {}", CellKey::from_desc(&keys));
    assert_golden("smoke_cell_keys.txt", &out);
}

fn traced_pww_config() -> MethodConfig {
    let mut cfg = MethodConfig::new(Transport::Gm, 40 * 1024);
    cfg.cycles = 2;
    cfg
}

/// One traced PWW point of `cfg` at `work_interval`.
fn traced_pww(cfg: &MethodConfig, work_interval: u64) -> Result<TracedRun<PwwSample>, RunError> {
    let spec = RunSpec {
        trace: true,
        ..RunSpec::of(cfg)
    };
    run(&PwwParams::new(cfg, work_interval, false), &spec)
}

#[test]
fn traced_pww_chrome_export_matches_golden() {
    // The full export pipeline — event emission, span reconstruction,
    // catapult JSON formatting — byte for byte. Any change to event
    // ordering, correlation ids or the JSON writer lands here.
    let run = traced_pww(&traced_pww_config(), 500_000).unwrap();
    assert_golden(
        "pww_gm_traced.trace.json",
        &comb::trace::chrome_trace_json(&run.records),
    );
}

#[test]
fn traced_pww_ascii_timeline_matches_golden() {
    let run = traced_pww(&traced_pww_config(), 500_000).unwrap();
    assert_golden(
        "pww_gm_timeline.txt",
        &comb::report::render_pww_timeline(&run.records, 100),
    );
}

#[test]
fn traced_sweep_chrome_export_is_byte_identical_across_jobs() {
    // The acceptance bar for traced sweeps: the concatenated Chrome trace
    // of a parallel sweep is the same file a serial sweep writes.
    let xs = [100_000u64, 1_000_000];
    let mut renders = Vec::new();
    for jobs in [1usize, 8] {
        let mut cfg = traced_pww_config();
        cfg.jobs = jobs;
        let runs = run_ordered(cfg.jobs, &xs, |&x| traced_pww(&cfg, x)).unwrap();
        let mut ct = comb::trace::ChromeTrace::new();
        for (i, (run, &x)) in runs.iter().zip(&xs).enumerate() {
            ct.add_run(&format!("work={x}"), i as u32 * 2000, &run.records);
        }
        renders.push(ct.finish());
    }
    assert_eq!(renders[0], renders[1], "--jobs must not shift a byte");
}
