//! Chaos-hardening integration tests for `comb serve`: shed-lane
//! priority triage under saturation, slowloris cutoff, deadline
//! propagation, the worker-panic circuit breaker + poison-cell
//! quarantine, journal-backed restart recovery (in-process), and
//! transport fault injection surfaced in `/metrics`.

use comb::core::{CacheMode, CellCache, CombError};
use comb::serve::sweepreq::SweepRequest;
use comb::serve::{
    client_request, metric_value, JobJournal, NetFaultPlan, ServeConfig, Server, ServerHandle,
};
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

type Join = JoinHandle<Result<(), CombError>>;

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("comb_serve_chaos_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spawn_server(cfg: ServeConfig) -> (String, ServerHandle, Join) {
    let server = Server::bind(cfg).unwrap();
    let addr = server.local_addr().to_string();
    let (handle, join) = server.spawn();
    (addr, handle, join)
}

fn stop(handle: ServerHandle, join: Join) {
    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// Cheap enough that a cell costs milliseconds.
const CHEAP_SWEEP: &str =
    r#"{"msg_bytes":4096,"cycles":2,"target_iters":200000,"max_intervals":300,"xs":[1000,10000]}"#;

fn metrics(addr: &str) -> String {
    client_request(addr, "GET", "/metrics", None)
        .unwrap()
        .text()
}

/// Under full admission saturation the shed lane still answers health
/// probes and all-cached sweeps, and sheds cold sweeps with a derived
/// Retry-After.
#[test]
fn shed_lane_triages_under_saturation() {
    let dir = fresh_dir("shed");
    let cfg = ServeConfig {
        workers: 1,
        queue: 0, // admission capacity 1: one idle conn saturates
        jobs: 1,
        shed_queue: 8,
        read_timeout: Duration::from_secs(30),
        cache: Some(Arc::new(CellCache::new(dir.clone(), CacheMode::ReadWrite))),
        ..ServeConfig::default()
    };
    let (addr, handle, join) = spawn_server(cfg);

    // Warm the cache through the normal path while capacity is free,
    // and hold the keep-alive connection open afterwards: an admitted
    // connection owns its permit until it closes, so keeping it alive
    // saturates the gate deterministically (an idle *new* connection
    // could race the previous permit's release and land in the shed
    // lane instead of the admission slot).
    let mut pin = std::net::TcpStream::connect(&addr).unwrap();
    pin.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    comb::serve::http::send_request(&mut pin, "POST", "/v1/sweep", Some(CHEAP_SWEEP.as_bytes()))
        .unwrap();
    let warm = comb::serve::http::read_client_response(&mut pin).unwrap();
    assert_eq!(warm.status, 200, "{}", warm.text());

    // Health probes are always answered.
    let r = client_request(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!(r.status, 200, "health must survive saturation");

    // The warmed sweep probes fully cached and is served.
    let r = client_request(&addr, "POST", "/v1/sweep", Some(CHEAP_SWEEP.as_bytes())).unwrap();
    assert_eq!(
        r.status,
        200,
        "cached sweep must be preferred: {}",
        r.text()
    );
    assert_eq!(r.body, warm.body, "shed-lane bytes must not drift");

    // A cold sweep is shed with the documented derived Retry-After.
    let cold =
        r#"{"msg_bytes":8192,"cycles":2,"target_iters":200000,"max_intervals":300,"xs":[2000]}"#;
    let r = client_request(&addr, "POST", "/v1/sweep", Some(cold.as_bytes())).unwrap();
    assert_eq!(r.status, 429, "{}", r.text());
    let retry: u64 = r
        .header("retry-after")
        .expect("429 must carry Retry-After")
        .parse()
        .expect("Retry-After must be integral seconds");
    assert!((1..=60).contains(&retry), "documented range is [1, 60]");

    // Metrics are always answered too, and account for the triage.
    let text = metrics(&addr);
    assert!(
        metric_value(&text, "shed_served_total").unwrap() >= 2.0,
        "{text}"
    );
    assert!(
        metric_value(&text, "shed_rejected_total").unwrap() >= 1.0,
        "{text}"
    );

    drop(pin);
    stop(handle, join);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A client trickling its request head is cut off at the request
/// deadline with 408 instead of pinning a worker.
#[test]
fn slowloris_is_cut_off_with_408() {
    let cfg = ServeConfig {
        workers: 1,
        jobs: 1,
        read_timeout: Duration::from_secs(5),
        request_deadline: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    let (addr, handle, join) = spawn_server(cfg);

    let mut s = std::net::TcpStream::connect(&addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(b"GET /he").unwrap(); // head never completes
    let started = Instant::now();
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).unwrap();
    let text = String::from_utf8_lossy(&buf);
    assert!(text.starts_with("HTTP/1.1 408"), "{text}");
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "cutoff must come from the deadline, not the idle reaper"
    );

    // The worker is free again: a normal request answers immediately.
    let r = client_request(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!(r.status, 200);
    let text = metrics(&addr);
    assert!(
        metric_value(&text, "request_timeouts_total").unwrap() >= 1.0,
        "{text}"
    );

    stop(handle, join);
}

/// A client-requested deadline_ms propagates into the campaign: cells
/// not started in time are abandoned and the request answers 503.
#[test]
fn client_deadline_propagates_to_503() {
    let cfg = ServeConfig {
        workers: 1,
        jobs: 1,
        ..ServeConfig::default()
    };
    let (addr, handle, join) = spawn_server(cfg);

    let body =
        r#"{"msg_bytes":4096,"deadline_ms":1,"range":{"lo":100000,"hi":1000000,"per_decade":10}}"#;
    let r = client_request(&addr, "POST", "/v1/sweep", Some(body.as_bytes())).unwrap();
    assert_eq!(r.status, 503, "{}", r.text());
    assert!(r.header("retry-after").is_some(), "503 carries Retry-After");
    let text = metrics(&addr);
    assert!(
        metric_value(&text, "deadline_expired_total").unwrap() >= 1.0,
        "{text}"
    );

    stop(handle, join);
}

/// Repeated worker panics on one cell quarantine it and trip the
/// circuit breaker; health endpoints stay up throughout.
#[test]
fn poison_cell_quarantines_and_trips_breaker() {
    let cfg = ServeConfig {
        workers: 2,
        jobs: 1,
        poison_x: Some(5000),
        breaker_threshold: 2,
        breaker_cooldown: Duration::from_secs(60), // stays open for the test
        quarantine_threshold: 2,
        ..ServeConfig::default()
    };
    let (addr, handle, join) = spawn_server(cfg);

    let poison =
        r#"{"msg_bytes":4096,"cycles":2,"target_iters":200000,"max_intervals":300,"xs":[5000]}"#;

    // First panic: structured 500, not yet quarantined.
    let r = client_request(&addr, "POST", "/v1/sweep", Some(poison.as_bytes())).unwrap();
    assert_eq!(r.status, 500, "{}", r.text());
    let text = r.text();
    assert!(text.contains("\"error\":\"worker_panic\""), "{text}");
    assert!(text.contains("\"quarantined\":false"), "{text}");

    // Second panic crosses the quarantine threshold and opens the breaker.
    let r = client_request(&addr, "POST", "/v1/sweep", Some(poison.as_bytes())).unwrap();
    assert_eq!(r.status, 500, "{}", r.text());
    assert!(r.text().contains("\"quarantined\":true"), "{}", r.text());

    // Breaker open: campaigns are refused up front with Retry-After.
    let r = client_request(&addr, "POST", "/v1/sweep", Some(CHEAP_SWEEP.as_bytes())).unwrap();
    assert_eq!(r.status, 503, "{}", r.text());
    assert!(r.header("retry-after").is_some());

    // The server itself is healthy and accounts for everything.
    let r = client_request(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!(r.status, 200);
    let text = metrics(&addr);
    assert_eq!(
        metric_value(&text, "breaker_opens_total"),
        Some(1.0),
        "{text}"
    );
    assert_eq!(metric_value(&text, "breaker_state"), Some(1.0), "{text}");
    assert_eq!(
        metric_value(&text, "quarantined_cells"),
        Some(1.0),
        "{text}"
    );

    stop(handle, join);
}

/// A quarantined cell is refused with a structured error instead of
/// being recomputed into another panic (no crash loops).
#[test]
fn quarantined_cell_is_refused_not_recomputed() {
    let cfg = ServeConfig {
        workers: 1,
        jobs: 1,
        poison_x: Some(7000),
        quarantine_threshold: 1,
        breaker_threshold: 100, // keep the breaker out of the way
        ..ServeConfig::default()
    };
    let (addr, handle, join) = spawn_server(cfg);

    let poison =
        r#"{"msg_bytes":4096,"cycles":2,"target_iters":200000,"max_intervals":300,"xs":[7000]}"#;
    let r = client_request(&addr, "POST", "/v1/sweep", Some(poison.as_bytes())).unwrap();
    assert_eq!(r.status, 500);
    assert!(r.text().contains("\"quarantined\":true"), "{}", r.text());

    // The retry is refused by the quarantine, not recomputed.
    let r = client_request(&addr, "POST", "/v1/sweep", Some(poison.as_bytes())).unwrap();
    assert_eq!(r.status, 500);
    assert!(
        r.text().contains("\"error\":\"quarantined\""),
        "{}",
        r.text()
    );

    stop(handle, join);
}

/// In-process restart recovery: an incomplete journaled job is replayed
/// under its original id on the next boot, and a client re-requesting
/// the campaign gets byte-identical bytes.
#[test]
fn journal_recovery_replays_incomplete_jobs() {
    let dir = fresh_dir("recovery");
    let journal_path = dir.join("serve.journal");
    let cache_dir = dir.join("cache");
    let mk_cfg = || ServeConfig {
        jobs: 1,
        journal: Some(journal_path.clone()),
        cache: Some(Arc::new(CellCache::new(
            cache_dir.clone(),
            CacheMode::ReadWrite,
        ))),
        ..ServeConfig::default()
    };

    // Boot 1: serve one campaign normally (journaled, completed).
    let (addr, handle, join) = spawn_server(mk_cfg());
    let first = client_request(&addr, "POST", "/v1/sweep", Some(CHEAP_SWEEP.as_bytes())).unwrap();
    assert_eq!(first.status, 200, "{}", first.text());
    stop(handle, join);

    // Simulate a crash mid-campaign: append an admitted-but-unfinished
    // job directly (what a kill -9 after admission leaves behind).
    let interrupted = r#"{"msg_bytes":8192,"cycles":2,"target_iters":200000,"max_intervals":300,"xs":[3000,30000]}"#;
    let canonical = SweepRequest::parse(interrupted).unwrap().canonical_json();
    {
        let (journal, _) = JobJournal::open(&journal_path).unwrap();
        journal.record_job(77, "sweep", &canonical).unwrap();
    }

    // Boot 2: the incomplete job is recovered under its original id.
    let server = Server::bind(mk_cfg()).unwrap();
    assert_eq!(server.pending_recovery(), 1);
    let addr = server.local_addr().to_string();
    let (handle, join) = server.spawn();

    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let text = metrics(&addr);
        if metric_value(&text, "recovered_jobs_total") == Some(1.0) {
            break;
        }
        assert!(Instant::now() < deadline, "recovery never finished: {text}");
        std::thread::sleep(Duration::from_millis(50));
    }

    // The recovered job is visible under its journaled id, finished ok.
    let r = client_request(&addr, "GET", "/v1/jobs/77", None).unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    assert!(r.text().contains("\"status\":\"ok\""), "{}", r.text());

    // Re-requesting the interrupted campaign serves the recovered cells
    // from cache, byte-identical to an uninterrupted run.
    let replay = client_request(&addr, "POST", "/v1/sweep", Some(interrupted.as_bytes())).unwrap();
    assert_eq!(replay.status, 200, "{}", replay.text());
    let cfg = {
        let mut c = comb::core::MethodConfig::new(comb::core::Transport::Gm, 8192);
        c.cycles = 2;
        c.target_iters = 200_000;
        c.max_intervals = 300;
        c.jobs = 1;
        c
    };
    let samples = comb::core::polling_sweep(&cfg, &[3000, 30_000]).unwrap();
    let expected = comb::report::render_polling_sweep(&cfg, &samples);
    assert_eq!(replay.text(), expected, "recovered bytes drifted");

    // Fresh request ids must not collide with recovered ones.
    let req_id: u64 = replay.header("x-comb-request").unwrap().parse().unwrap();
    assert!(
        req_id > 77,
        "request counter must start past journal max id"
    );

    // The journal now marks everything done: a third boot recovers nothing.
    stop(handle, join);
    let server = Server::bind(mk_cfg()).unwrap();
    assert_eq!(server.pending_recovery(), 0);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Transport fault injection is visible end to end: a storm of faulted
/// connections never corrupts the protocol, and `/metrics` reports the
/// injected fault counters.
#[test]
fn transport_faults_surface_in_metrics() {
    let cfg = ServeConfig {
        workers: 2,
        jobs: 1,
        net_fault: NetFaultPlan::from_specs(&["partial=0.9", "delay=0.3:500"], Some(9)).unwrap(),
        ..ServeConfig::default()
    };
    let (addr, handle, join) = spawn_server(cfg);

    // Partial reads/writes slow requests down but never break them.
    for _ in 0..10 {
        let r = client_request(&addr, "GET", "/healthz", None).unwrap();
        assert_eq!(r.status, 200);
    }
    assert!(handle.net_faults() > 0, "storm never reached the wire");
    let text = metrics(&addr);
    assert!(
        metric_value(&text, "netfault_partials_total").unwrap() > 0.0,
        "{text}"
    );

    stop(handle, join);
}
