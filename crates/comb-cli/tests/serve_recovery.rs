//! The restart-recovery acceptance test: `comb serve` is SIGKILLed in
//! the middle of a journaled campaign, restarted on the same journal and
//! cache, and must (a) replay the interrupted job recomputing only what
//! the crash lost and (b) serve the re-requested campaign byte-identical
//! to an uninterrupted run.

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
fn spawn_serve(journal: &Path, cache: &Path) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_comb"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--jobs",
            "1",
            "--journal",
            journal.to_str().unwrap(),
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
/// cached and lost.
const CAMPAIGN: &str = r#"{"msg_bytes":4096,"range":{"lo":100000,"hi":1000000,"per_decade":200}}"#;

#[test]
fn sigkill_mid_campaign_recovers_byte_identical() {
    let dir = fresh_dir("sigkill");
    let journal = dir.join("serve.journal");
    let cache = dir.join("cache");

    // Boot 1: start the campaign, then SIGKILL the server mid-flight.
    let (mut child, addr) = spawn_serve(&journal, &cache);
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

    // The journal must hold the admitted-but-unfinished job.
    let text = std::fs::read_to_string(&journal).unwrap();
    assert!(
        text.lines().any(|l| l.starts_with("job ")),
        "campaign was never journaled:\n{text}"
    );
    assert!(
        !text.lines().any(|l| l.starts_with("done ")),
        "campaign finished before the kill; widen the campaign:\n{text}"
    );

    // Boot 2: the server replays the job, recomputing only uncached cells.
    let (mut child, addr) = spawn_serve(&journal, &cache);
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if let Ok(r) = client_request(&addr, "GET", "/metrics", None) {
            if metric_value(&r.text(), "recovered_jobs_total") == Some(1.0) {
                break;
            }
        }
        assert!(Instant::now() < deadline, "recovery never completed");
        std::thread::sleep(Duration::from_millis(100));
    }

    // Re-request the interrupted campaign: all cells are now cached, and
    // the bytes must match an uninterrupted in-process run exactly.
    let replay = client_request(&addr, "POST", "/v1/sweep", Some(CAMPAIGN.as_bytes())).unwrap();
    assert_eq!(replay.status, 200, "{}", replay.text());
    let mut cfg = comb_core::MethodConfig::new(comb_core::Transport::Gm, 4096);
    cfg.jobs = 1;
    let xs = comb_core::log_spaced(100_000, 1_000_000, 200);
    let samples = comb_core::polling_sweep(&cfg, &xs).unwrap();
    let expected = comb_report::render_polling_sweep(&cfg, &samples);
    assert_eq!(
        replay.text(),
        expected,
        "post-recovery bytes drifted from an uninterrupted run"
    );

    // Nothing was recomputed at request time: the campaign was resolved
    // entirely from the recovery-warmed cache.
    let m = client_request(&addr, "GET", "/metrics", None)
        .unwrap()
        .text();
    let hits = metric_value(&m, "cache_hits_mem").unwrap_or(0.0)
        + metric_value(&m, "cache_hits_disk").unwrap_or(0.0);
    assert!(
        hits >= xs.len() as f64,
        "replay should be all cache hits: {m}"
    );

    // Clean shutdown; a third boot has nothing left to recover.
    let r = client_request(&addr, "POST", "/admin/shutdown", None).unwrap();
    assert_eq!(r.status, 200);
    let status = child.wait().unwrap();
    assert!(status.success(), "drain must exit 0: {status:?}");

    let text = std::fs::read_to_string(&journal).unwrap();
    assert!(
        text.lines().any(|l| l.starts_with("done ")),
        "recovery never recorded completion:\n{text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
