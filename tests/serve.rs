//! End-to-end tests of the `comb serve` HTTP subsystem: the
//! reproducibility contract (HTTP bodies byte-identical to the CLI's
//! output), single-flighting of identical concurrent requests,
//! bounded-admission 429s, job status/event streams, and graceful
//! shutdown.

use comb::core::{run_sweep, CacheMode, CellCache, MethodConfig, PollingParams, Transport};
use comb::report::{run_figures_cached, Fidelity, FigureId};
use comb::serve::http::ResponseReader;
use comb::serve::{client_request, metric_value, ServeConfig, Server, ServerHandle};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

type Join = JoinHandle<Result<(), comb::core::CombError>>;

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("comb_serve_test_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Spawn a server on an ephemeral loopback port.
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

/// A cheap sweep configuration used by the byte-identity tests — small
/// enough that a cell costs milliseconds.
const CHEAP_SWEEP: &str =
    r#"{"msg_bytes":4096,"cycles":2,"target_iters":200000,"max_intervals":300,"xs":[1000,10000]}"#;

fn cheap_cfg() -> MethodConfig {
    let mut cfg = MethodConfig::new(Transport::Gm, 4096);
    cfg.cycles = 2;
    cfg.target_iters = 200_000;
    cfg.max_intervals = 300;
    cfg
}

#[test]
fn healthz_metrics_and_errors() {
    let cfg = ServeConfig {
        jobs: 1,
        ..ServeConfig::default()
    };
    let (addr, handle, join) = spawn_server(cfg);

    let r = client_request(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(r.body, b"ok\n");
    assert!(
        r.header("x-comb-request").is_some(),
        "correlation id header"
    );

    let r = client_request(&addr, "GET", "/metrics", None).unwrap();
    assert_eq!(r.status, 200);
    let text = r.text();
    assert_eq!(metric_value(&text, "requests_total"), Some(2.0));
    assert_eq!(metric_value(&text, "in_flight"), Some(1.0));
    assert_eq!(metric_value(&text, "workers"), Some(4.0));

    // Error surface: bad JSON, unknown figure, unknown path, bad method.
    let r = client_request(&addr, "POST", "/v1/sweep", Some(b"not json")).unwrap();
    assert_eq!(r.status, 400);
    let r = client_request(&addr, "GET", "/v1/figures/fig99.csv", None).unwrap();
    assert_eq!(r.status, 404);
    let r = client_request(&addr, "GET", "/nope", None).unwrap();
    assert_eq!(r.status, 404);
    let r = client_request(&addr, "POST", "/healthz", None).unwrap();
    assert_eq!(r.status, 405);

    stop(handle, join);
}

#[test]
fn sweep_body_matches_cli_bytes() {
    let cfg = ServeConfig {
        jobs: 1,
        ..ServeConfig::default()
    };
    let (addr, handle, join) = spawn_server(cfg);

    let r = client_request(&addr, "POST", "/v1/sweep", Some(CHEAP_SWEEP.as_bytes())).unwrap();
    assert_eq!(r.status, 200, "body: {}", r.text());

    // The same sweep run directly — the bytes `comb sweep` would print.
    let mut cfg = cheap_cfg();
    cfg.jobs = 1;
    let samples = run_sweep(&cfg, &[1000, 10_000], |x| PollingParams::new(&cfg, x)).unwrap();
    let expected = comb::report::render_polling_sweep(&cfg, &samples);
    assert_eq!(
        r.text(),
        expected,
        "HTTP sweep body drifted from CLI output"
    );

    // JSON key order must not change the response bytes.
    let reordered = r#"{"max_intervals":300,"xs":[1000,10000],"target_iters":200000,"cycles":2,"msg_bytes":4096}"#;
    let r2 = client_request(&addr, "POST", "/v1/sweep", Some(reordered.as_bytes())).unwrap();
    assert_eq!(r2.status, 200);
    assert_eq!(r2.body, r.body);

    stop(handle, join);
}

#[test]
fn figure_csv_matches_figure_command_bytes() {
    let dir = fresh_dir("figure");
    let cfg = ServeConfig {
        jobs: 2,
        fidelity: Fidelity::smoke().with_jobs(2),
        cache: Some(Arc::new(CellCache::new(dir.clone(), CacheMode::ReadWrite))),
        ..ServeConfig::default()
    };
    let (addr, handle, join) = spawn_server(cfg);

    let r = client_request(&addr, "GET", "/v1/figures/fig04.csv", None).unwrap();
    assert_eq!(r.status, 200, "body: {}", r.text());
    assert_eq!(r.header("content-type"), Some("text/csv"));

    let reports = run_figures_cached(
        &[FigureId::Fig04],
        Fidelity::smoke().with_jobs(2),
        None,
        None,
    )
    .unwrap();
    let expected = reports[0].dataset.to_csv();
    assert_eq!(
        r.text(),
        expected,
        "HTTP figure CSV drifted from `comb figure` bytes"
    );

    stop(handle, join);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The satellite test: N identical concurrent sweeps are single-flighted
/// — one computes, the rest join — and every body equals the direct
/// `comb sweep` bytes.
#[test]
fn identical_concurrent_sweeps_single_flight() {
    const N: usize = 4;
    let dir = fresh_dir("singleflight");
    // The leader computes only once the other N-1 requests have joined
    // it, so the overlap does not depend on how long the cell takes.
    let mut cache = CellCache::new(dir.clone(), CacheMode::ReadWrite);
    cache.set_join_quorum(N - 1);
    let cache = Arc::new(cache);
    let cfg = ServeConfig {
        workers: N,
        queue: 2 * N,
        jobs: 1,
        cache: Some(Arc::clone(&cache)),
        ..ServeConfig::default()
    };
    let (addr, handle, join) = spawn_server(cfg);

    // One cell of the paper-default configuration.
    let body = r#"{"xs":[100000]}"#;
    let bodies: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..N)
            .map(|_| {
                scope.spawn(|| {
                    let r =
                        client_request(&addr, "POST", "/v1/sweep", Some(body.as_bytes())).unwrap();
                    assert_eq!(r.status, 200, "body: {}", r.text());
                    r.body
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });

    // Exactly one computed, the other N-1 joined the in-flight cell.
    let r = client_request(&addr, "GET", "/metrics", None).unwrap();
    let text = r.text();
    assert_eq!(metric_value(&text, "cache_misses"), Some(1.0), "{text}");
    assert_eq!(
        metric_value(&text, "cache_joined"),
        Some((N - 1) as f64),
        "{text}"
    );
    assert_eq!(metric_value(&text, "cache_hits_mem"), Some(0.0), "{text}");

    // All N bodies identical, and equal to the direct CLI bytes.
    let mut cfg = MethodConfig::new(Transport::Gm, 100 * 1024);
    cfg.jobs = 1;
    let samples = run_sweep(&cfg, &[100_000], |x| PollingParams::new(&cfg, x)).unwrap();
    let expected = comb::report::render_polling_sweep(&cfg, &samples);
    for b in &bodies {
        assert_eq!(String::from_utf8_lossy(b), expected);
    }

    stop(handle, join);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn saturated_admission_returns_429_with_retry_after() {
    let cfg = ServeConfig {
        workers: 1,
        queue: 1,
        jobs: 1,
        read_timeout: Duration::from_secs(30),
        // Legacy inline-429 saturation (the shed lane has its own test
        // in serve_chaos.rs).
        shed_queue: 0,
        ..ServeConfig::default()
    };
    let (addr, handle, join) = spawn_server(cfg);

    // Two idle connections hold both admission slots (workers + queue = 2)
    // until their read timeout; the acceptor must then refuse a third.
    let _idle1 = std::net::TcpStream::connect(&addr).unwrap();
    let _idle2 = std::net::TcpStream::connect(&addr).unwrap();

    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let rejected = loop {
        let r = client_request(&addr, "GET", "/healthz", None).unwrap();
        if r.status == 429 {
            break r;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "never saturated: last status {}",
            r.status
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(rejected.header("retry-after"), Some("1"));

    drop(_idle1);
    drop(_idle2);
    stop(handle, join);
}

#[test]
fn job_status_and_event_stream() {
    let cfg = ServeConfig {
        jobs: 1,
        ..ServeConfig::default()
    };
    let (addr, handle, join) = spawn_server(cfg);

    let r = client_request(&addr, "POST", "/v1/sweep", Some(CHEAP_SWEEP.as_bytes())).unwrap();
    assert_eq!(r.status, 200);
    let job_id = r.header("x-comb-job").unwrap().to_string();

    let r = client_request(&addr, "GET", &format!("/v1/jobs/{job_id}"), None).unwrap();
    assert_eq!(r.status, 200);
    let status = r.text();
    assert!(status.contains("\"kind\":\"sweep\""), "{status}");
    assert!(status.contains("\"total\":2"), "{status}");
    assert!(status.contains("\"completed\":2"), "{status}");
    assert!(status.contains("\"done\":true"), "{status}");

    // The chunked event stream replays the job's full history and closes.
    let r = client_request(&addr, "GET", &format!("/v1/jobs/{job_id}/events"), None).unwrap();
    assert_eq!(r.status, 200);
    let events = r.text();
    assert!(events.starts_with("start kind=sweep total=2\n"), "{events}");
    assert!(events.contains("cell x=1000"), "{events}");
    assert!(events.contains("cell x=10000"), "{events}");
    assert!(events.trim_end().ends_with("done status=ok"), "{events}");

    let r = client_request(&addr, "GET", "/v1/jobs/999999", None).unwrap();
    assert_eq!(r.status, 404);

    stop(handle, join);
}

#[test]
fn admin_shutdown_drains_gracefully() {
    let cfg = ServeConfig {
        jobs: 1,
        ..ServeConfig::default()
    };
    let server = Server::bind(cfg).unwrap();
    let addr = server.local_addr().to_string();
    let (_handle, join) = server.spawn();

    let r = client_request(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!(r.status, 200);

    let r = client_request(&addr, "POST", "/admin/shutdown", None).unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(r.body, b"draining\n");

    // The run loop must drain and return cleanly on its own.
    join.join().unwrap().unwrap();
}

/// Repeating an identical sweep on a fresh connection is served from the
/// cache's memory tier, byte-identically.
#[test]
fn repeat_sweep_hits_cache_with_identical_bytes() {
    let dir = fresh_dir("repeat");
    let cfg = ServeConfig {
        jobs: 1,
        cache: Some(Arc::new(CellCache::new(dir.clone(), CacheMode::ReadWrite))),
        ..ServeConfig::default()
    };
    let (addr, handle, join) = spawn_server(cfg);

    let cold = client_request(&addr, "POST", "/v1/sweep", Some(CHEAP_SWEEP.as_bytes())).unwrap();
    assert_eq!(cold.status, 200);
    let warm = client_request(&addr, "POST", "/v1/sweep", Some(CHEAP_SWEEP.as_bytes())).unwrap();
    assert_eq!(warm.status, 200);
    assert_eq!(cold.body, warm.body);

    let r = client_request(&addr, "GET", "/metrics", None).unwrap();
    let text = r.text();
    assert_eq!(metric_value(&text, "cache_misses"), Some(2.0), "{text}");
    assert_eq!(metric_value(&text, "cache_hits_mem"), Some(2.0), "{text}");

    stop(handle, join);
    let _ = std::fs::remove_dir_all(&dir);
}

/// HTTP/1.1 pipelining: requests written back to back in one send on a
/// kept-alive connection are all answered, in order.
#[test]
fn pipelined_requests_on_one_connection_are_answered_in_order() {
    use std::io::Write;
    let dir = fresh_dir("pipelined");
    let cfg = ServeConfig {
        jobs: 1,
        cache: Some(Arc::new(CellCache::new(dir.clone(), CacheMode::ReadWrite))),
        ..ServeConfig::default()
    };
    let (addr, handle, join) = spawn_server(cfg);
    let warm = client_request(&addr, "POST", "/v1/sweep", Some(CHEAP_SWEEP.as_bytes())).unwrap();
    assert_eq!(warm.status, 200);

    let mut wire = Vec::new();
    for _ in 0..2 {
        wire.extend_from_slice(b"GET /healthz HTTP/1.1\r\nHost: comb\r\n\r\n");
    }
    wire.extend_from_slice(
        format!(
            "POST /v1/sweep HTTP/1.1\r\nHost: comb\r\nContent-Length: {}\r\n\r\n{CHEAP_SWEEP}",
            CHEAP_SWEEP.len()
        )
        .as_bytes(),
    );
    let mut s = std::net::TcpStream::connect(&addr).unwrap();
    s.write_all(&wire).unwrap();

    // One 2 s budget for all three answers. A `read` may block several
    // times, so the last check also catches a budget overrun inside one.
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut reader = ResponseReader::new();
    let mut answers = Vec::new();
    while answers.len() < 3 {
        let left = deadline.saturating_duration_since(Instant::now());
        assert!(!left.is_zero(), "only {answers:?} answered within 2 s");
        s.set_read_timeout(Some(left)).unwrap();
        let r = reader
            .read(&mut s)
            .unwrap_or_else(|e| panic!("only {answers:?} answered within 2 s: {e}"));
        let id: u64 = r.header("x-comb-request").unwrap().parse().unwrap();
        answers.push((r.status, id));
    }
    assert!(
        Instant::now() < deadline,
        "{answers:?} answered, but not within 2 s"
    );
    assert!(
        answers.iter().all(|&(status, _)| status == 200),
        "{answers:?}"
    );
    assert!(
        answers.windows(2).all(|w| w[0].1 < w[1].1),
        "request ids out of order: {answers:?}"
    );
    drop(s);

    let r = client_request(&addr, "GET", "/metrics", None).unwrap();
    assert_eq!(metric_value(&r.text(), "cache_misses"), Some(2.0));
    stop(handle, join);
    let _ = std::fs::remove_dir_all(&dir);
}
