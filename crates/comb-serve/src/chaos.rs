//! The serve chaos soak: a seeded client storm against a real server
//! under transport fault injection.
//!
//! `comb soak --serve` (and the CI `serve-chaos` job) run this harness:
//! an in-process server is bound with a seeded [`NetFaultPlan`] tearing
//! its streams while a fleet of client threads issues a deterministic
//! mix of requests — health probes, metrics scrapes, cheap sweeps,
//! malformed bodies. The pass condition is the robustness contract, not
//! any particular status distribution:
//!
//! * the server never crashes: the run loop drains cleanly at the end;
//! * no worker is pinned: a final clean health probe answers promptly;
//! * no protocol corruption: every byte stream a client could read is
//!   either a valid HTTP response or an injected transport casualty
//!   (reset/torn connection) — never garbage.
//!
//! Fault injection happens on the **server** side of each connection, so
//! some client reads legitimately end in resets or truncated bodies;
//! those are counted as casualties, not failures.

use crate::http::{client_request, read_client_response, send_request};
use crate::netfault::NetFaultPlan;
use crate::server::{ServeConfig, Server};
use comb_core::CombError;
use comb_hw::fault::{stream_seed, DetRng};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Seed-stream tag for the soak's client-side request mix (the serving
/// fault tags 16–19 and the fuzz tag 20 are adjacent; see
/// [`crate::netfault`]).
pub const TAG_SOAK: u64 = 21;

/// Configuration for one serve chaos soak.
#[derive(Debug, Clone)]
pub struct ServeSoakConfig {
    /// Master seed: drives both the server's fault plan and the clients'
    /// request mix.
    pub seed: u64,
    /// Total requests to issue across all clients.
    pub requests: usize,
    /// Concurrent client threads.
    pub clients: usize,
    /// Server worker threads.
    pub workers: usize,
    /// Saturation shed-lane capacity (0 disables the lane).
    pub shed_queue: usize,
    /// Transport fault plan installed on the server.
    pub fault: NetFaultPlan,
    /// Test hook: sweeps touching this x panic a worker, driving the
    /// quarantine and circuit-breaker paths under load.
    #[doc(hidden)]
    pub poison_x: Option<u64>,
}

impl ServeSoakConfig {
    /// The default storm at `seed`: moderate delays, frequent partial
    /// reads/writes, occasional torn frames and resets — every fault
    /// class exercised within a few hundred requests.
    pub fn storm(seed: u64) -> ServeSoakConfig {
        let fault = NetFaultPlan::from_specs(
            &["delay=0.25:2000", "partial=0.35", "torn=0.08", "reset=0.05"],
            Some(seed),
        )
        .unwrap_or_else(|_| NetFaultPlan::none());
        ServeSoakConfig {
            seed,
            requests: 500,
            clients: 8,
            workers: 4,
            shed_queue: 16,
            fault,
            poison_x: None,
        }
    }
}

impl Default for ServeSoakConfig {
    fn default() -> Self {
        ServeSoakConfig::storm(42)
    }
}

/// Tallies from one soak run.
#[derive(Debug, Default)]
pub struct ServeSoakReport {
    /// Requests the clients attempted.
    pub sent: u64,
    /// Complete, valid HTTP responses (any status).
    pub answered: u64,
    /// ... of which 2xx.
    pub status_2xx: u64,
    /// ... of which 4xx (shed 429s, malformed-body 400s, 408 cutoffs).
    pub status_4xx: u64,
    /// ... of which 5xx (breaker, quarantine, deadline).
    pub status_5xx: u64,
    /// Connections killed by an injected fault before a full response
    /// (resets, torn frames, timeouts). Expected to be non-zero under a
    /// storm plan; not a failure.
    pub casualties: u64,
    /// Byte streams that were neither a valid response nor a clean
    /// transport error — protocol corruption. Must be zero.
    pub invalid_http: u64,
    /// Transport faults the server actually injected (proves the storm
    /// reached the wire).
    pub faults_injected: u64,
    /// Did the post-storm clean health probe answer 200 promptly?
    pub final_health_ok: bool,
    /// Did the server's run loop drain and exit cleanly?
    pub clean_shutdown: bool,
}

impl ServeSoakReport {
    /// The robustness contract (see module docs).
    pub fn passed(&self) -> bool {
        self.invalid_http == 0
            && self.answered + self.casualties == self.sent
            && self.final_health_ok
            && self.clean_shutdown
    }

    /// One-line human summary for the soak output.
    pub fn summary(&self) -> String {
        format!(
            "serve-chaos: {} requests, {} answered (2xx={} 4xx={} 5xx={}), \
             {} casualties, {} invalid, {} faults injected, health={}, shutdown={}",
            self.sent,
            self.answered,
            self.status_2xx,
            self.status_4xx,
            self.status_5xx,
            self.casualties,
            self.invalid_http,
            self.faults_injected,
            if self.final_health_ok { "ok" } else { "FAIL" },
            if self.clean_shutdown { "clean" } else { "FAIL" },
        )
    }
}

/// A sweep cheap enough that a cell costs milliseconds (matches the
/// integration tests' cheap configuration).
const SOAK_SWEEP: &str =
    r#"{"msg_bytes":4096,"cycles":1,"target_iters":100000,"max_intervals":200,"xs":[1000]}"#;

/// The poisoned variant: touches the soak's poison x, driving the
/// panic → quarantine → breaker path.
const SOAK_POISON_SWEEP: &str =
    r#"{"msg_bytes":4096,"cycles":1,"target_iters":100000,"max_intervals":200,"xs":[777]}"#;

/// The x [`SOAK_POISON_SWEEP`] touches; pass it as
/// [`ServeSoakConfig::poison_x`] to arm it.
pub const SOAK_POISON_X: u64 = 777;

/// Run the storm. Returns the tally; the caller decides what failing
/// means (the CLI exits non-zero when `!passed()`).
pub fn run_serve_soak(cfg: &ServeSoakConfig) -> Result<ServeSoakReport, CombError> {
    let server = Server::bind(ServeConfig {
        workers: cfg.workers.max(1),
        queue: cfg.workers.max(1),
        jobs: 1,
        shed_queue: cfg.shed_queue,
        net_fault: cfg.fault.clone(),
        read_timeout: Duration::from_secs(2),
        request_deadline: Duration::from_secs(10),
        poison_x: cfg.poison_x,
        ..ServeConfig::default()
    })?;
    let addr = server.local_addr().to_string();
    let (handle, join) = server.spawn();

    let answered = AtomicU64::new(0);
    let s2 = AtomicU64::new(0);
    let s4 = AtomicU64::new(0);
    let s5 = AtomicU64::new(0);
    let casualties = AtomicU64::new(0);
    let invalid = AtomicU64::new(0);

    let clients = cfg.clients.max(1);
    let per_client = cfg.requests.div_ceil(clients);
    let sent = (per_client * clients) as u64;

    std::thread::scope(|scope| {
        for client in 0..clients {
            let addr = addr.clone();
            let (answered, s2, s4, s5, casualties, invalid) =
                (&answered, &s2, &s4, &s5, &casualties, &invalid);
            let mut rng = DetRng::new(stream_seed(cfg.seed, client as u64, TAG_SOAK));
            scope.spawn(move || {
                for _ in 0..per_client {
                    let (method, path, body): (&str, &str, Option<&[u8]>) = match rng.next_u64() % 8
                    {
                        0 | 1 => ("GET", "/healthz", None),
                        2 => ("GET", "/metrics", None),
                        3..=5 => ("POST", "/v1/sweep", Some(SOAK_SWEEP.as_bytes())),
                        6 => ("POST", "/v1/sweep", Some(b"{\"xs\": oops")),
                        _ => ("POST", "/v1/sweep", Some(SOAK_POISON_SWEEP.as_bytes())),
                    };
                    match soak_request(&addr, method, path, body) {
                        Ok(status) => {
                            answered.fetch_add(1, Ordering::Relaxed);
                            match status {
                                200..=299 => s2.fetch_add(1, Ordering::Relaxed),
                                400..=499 => s4.fetch_add(1, Ordering::Relaxed),
                                _ => s5.fetch_add(1, Ordering::Relaxed),
                            };
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                            invalid.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            casualties.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });

    // Pinned-worker check: with the storm over, a clean probe must answer
    // promptly even though faulted connections came and went. Retry a few
    // times — the probe's own connection can still draw a faulted conn id.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut final_health_ok = false;
    while Instant::now() < deadline {
        if let Ok(r) = client_request(&addr, "GET", "/healthz", None) {
            if r.status == 200 {
                final_health_ok = true;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }

    let faults_injected = handle.net_faults();
    handle.shutdown();
    let clean_shutdown = join.join().map(|r| r.is_ok()).unwrap_or(false);

    Ok(ServeSoakReport {
        sent,
        answered: answered.into_inner(),
        status_2xx: s2.into_inner(),
        status_4xx: s4.into_inner(),
        status_5xx: s5.into_inner(),
        casualties: casualties.into_inner(),
        invalid_http: invalid.into_inner(),
        faults_injected,
        final_health_ok,
        clean_shutdown,
    })
}

/// One soak request with client-side timeouts so an injected stall can
/// never wedge the harness itself.
fn soak_request(addr: &str, method: &str, path: &str, body: Option<&[u8]>) -> std::io::Result<u16> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(15)))?;
    stream.set_write_timeout(Some(Duration::from_secs(15)))?;
    send_request(&mut stream, method, path, body)?;
    read_client_response(&mut stream).map(|r| r.status)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_fault_free_soak_answers_everything() {
        let mut cfg = ServeSoakConfig::storm(7);
        cfg.fault = NetFaultPlan::none();
        cfg.requests = 24;
        cfg.clients = 3;
        cfg.workers = 2;
        let report = run_serve_soak(&cfg).unwrap();
        assert_eq!(report.sent, 24);
        assert_eq!(report.answered, 24, "{}", report.summary());
        assert_eq!(report.casualties, 0, "{}", report.summary());
        assert!(report.passed(), "{}", report.summary());
        assert_eq!(report.faults_injected, 0);
    }

    #[test]
    fn storm_soak_holds_the_robustness_contract() {
        let mut cfg = ServeSoakConfig::storm(42);
        cfg.requests = 64;
        cfg.clients = 4;
        cfg.workers = 2;
        let report = run_serve_soak(&cfg).unwrap();
        assert!(report.passed(), "{}", report.summary());
        assert!(
            report.faults_injected > 0,
            "storm never reached the wire: {}",
            report.summary()
        );
    }

    #[test]
    fn poison_cell_drives_5xx_not_crashes() {
        let mut cfg = ServeSoakConfig::storm(11);
        cfg.fault = NetFaultPlan::none();
        cfg.requests = 32;
        cfg.clients = 4;
        // A client opens a fresh connection per request, and the server
        // holds a finished connection's permit until it reads the EOF, so
        // each worker can pin one such permit on top of the clients' live
        // connections. Admission capacity is `2 × workers` here; with
        // `workers >= clients` it holds both, no poison sweep is ever shed
        // as a 429 before it reaches a worker, and the 5xx count does not
        // depend on scheduling.
        cfg.workers = 4;
        cfg.poison_x = Some(SOAK_POISON_X);
        let report = run_serve_soak(&cfg).unwrap();
        assert!(report.passed(), "{}", report.summary());
        assert!(
            report.status_5xx > 0,
            "poison cell never surfaced: {}",
            report.summary()
        );
    }
}
