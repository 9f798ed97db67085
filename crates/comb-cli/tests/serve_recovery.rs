//! The restart acceptance test: `comb serve` is SIGKILLed in the middle
//! of a campaign, restarted on the same cell cache, and the client resends
//! the campaign. The server keeps no job state of its own, so the resend
//! must (a) replay every cell the first process stored, (b) compute and
//! store only the cells it never stored, and (c) answer with bytes
//! identical to an uninterrupted run.

#![cfg(unix)]

use comb_serve::{client_request, metric_value};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("comb_cli_recovery_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Spawn `comb serve` on an ephemeral port and parse the resolved
/// address from the parseable `serve: listening on <addr>` line.
fn spawn_serve(cache: &Path) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_comb"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--jobs",
            "1",
            "--cache-dir",
            cache.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn comb serve");
    let stdout = child.stdout.take().unwrap();
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("serve exited before announcing its address")
            .unwrap();
        if let Some(addr) = line.strip_prefix("serve: listening on ") {
            break addr.trim().to_string();
        }
    };
    // Keep draining stdout so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines.by_ref() {});
    (child, addr)
}

/// A campaign wide enough (~200 moderate cells on one worker) that a kill
/// right after its first cell is stored lands mid-flight, with cells both
/// stored and lost.
const CAMPAIGN: &str = r#"{"msg_bytes":4096,"range":{"lo":100000,"hi":1000000,"per_decade":200}}"#;

#[test]
fn sigkill_mid_campaign_resend_replays_stored_cells() {
    let dir = fresh_dir("sigkill");
    let cache = dir.join("cache");
    let xs = comb_core::log_spaced(100_000, 1_000_000, 200);
    let n = xs.len() as u64;

    // Boot 1: start the campaign, then SIGKILL the server mid-flight.
    let (mut child, addr) = spawn_serve(&cache);
    let requester = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            // The connection dies with the server; any outcome is fine.
            let _ = client_request(&addr, "POST", "/v1/sweep", Some(CAMPAIGN.as_bytes()));
        })
    };
    // Kill as soon as the store holds its first cell, however fast the
    // simulator is.
    let deadline = Instant::now() + Duration::from_secs(120);
    while comb_core::cache::store_stats(&cache).entries == 0 {
        assert!(Instant::now() < deadline, "no cell was ever stored");
        std::thread::sleep(Duration::from_millis(1));
    }
    child.kill().expect("SIGKILL comb serve"); // Child::kill is SIGKILL on unix
    child.wait().unwrap();
    requester.join().unwrap();

    // Count the store only once the server is gone: nothing adds to it now.
    let stored = comb_core::cache::store_stats(&cache).entries;
    assert!(
        0 < stored && stored < n,
        "kill should land mid-campaign: {stored} of {n} cells stored; widen the campaign"
    );

    // Boot 2: a fresh process on the same cache; the client resends.
    let (mut child, addr) = spawn_serve(&cache);
    let replay = client_request(&addr, "POST", "/v1/sweep", Some(CAMPAIGN.as_bytes())).unwrap();
    assert_eq!(replay.status, 200, "{}", replay.text());
    let mut cfg = comb_core::MethodConfig::new(comb_core::Transport::Gm, 4096);
    cfg.jobs = 1;
    let samples =
        comb_core::run_sweep(&cfg, &xs, |x| comb_core::PollingParams::new(&cfg, x)).unwrap();
    let expected = comb_report::render_polling_sweep(&cfg, &samples);
    assert_eq!(
        replay.text(),
        expected,
        "resent campaign drifted from an uninterrupted run"
    );

    // Every stored cell replayed from disk; only the lost ones ran.
    let m = client_request(&addr, "GET", "/metrics", None)
        .unwrap()
        .text();
    let metric = |name: &str| metric_value(&m, name).map(|v| v as u64);
    assert_eq!(metric("cache_hits_disk"), Some(stored), "{m}");
    assert_eq!(metric("cache_misses"), Some(n - stored), "{m}");
    assert_eq!(metric("cache_stored"), Some(n - stored), "{m}");

    let r = client_request(&addr, "POST", "/admin/shutdown", None).unwrap();
    assert_eq!(r.status, 200);
    let status = child.wait().unwrap();
    assert!(status.success(), "drain must exit 0: {status:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
