//! `comb bench` — the tracked performance baseline.
//!
//! Five layers of measurement, written to one JSON file (the newest
//! `BENCH_pr<N>.json` at the repo root is the committed baseline):
//!
//! 1. **Kernel microbenches** — the event-queue hot paths (chained
//!    self-schedules, bulk schedule/pop, schedule/cancel), timed with
//!    `Instant` over several repetitions, best run kept. Each carries the
//!    hardcoded pre-overhaul baseline so the speedup is part of the record.
//! 2. **Figure timings** — every data figure of the paper at the chosen
//!    fidelity: wall-clock plus how many kernel events the run executed
//!    (from [`KernelStats::global`]), i.e. end-to-end events/second. These
//!    runs are deliberately uncached so they measure simulation, not I/O.
//! 3. **Cache phase** — the full figure set run cold into a fresh
//!    throwaway cell-cache store, then warm from it: cold/warm wall clock,
//!    the speedup, and the warm hit rate.
//! 4. **Serving phase** — an in-process `comb serve` instance on an
//!    ephemeral loopback port with a fresh throwaway cache: closed-loop
//!    clients issue a fixed set of distinct sweep requests cold, then the
//!    identical set warm. Records cold/warm RPS and whether every warm
//!    body was byte-identical to its cold counterpart.
//! 5. **Shard-scaling phase** — a multi-pair polling workload (the kernels
//!    behind Figures 4/5 and 14) run serial and at 4 conservative shards
//!    inside one simulation each: wall clock for both, the speedup, and
//!    whether the sharded samples were byte-identical to the serial ones.
//!
//! `--check [json]` compares the kernel microbenches against a previously
//! written file and fails (exit 2) when throughput regressed beyond
//! `--tolerance` percent, or when the cache phase misses its gates (warm
//! speedup >= 10x and a 100% warm hit rate), or when the serving phase
//! misses its gates (warm RPS >= 10x cold, byte-identical bodies), or
//! when the shard phase misses its gates (byte-identical samples always,
//! and a 1.5x speedup floor when the host has at least as many cores as
//! shards) — the CI guardrail. With no file argument it discovers the
//! newest committed `BENCH_pr<N>.json` in the current directory; the
//! baseline is read before the new result is written, so checking
//! against the file being regenerated is sound.

use comb_core::{
    run, CacheMode, CellCache, CombError, MethodConfig, PollingPairs, PollingParams, RunSpec,
    Transport,
};
use comb_report::{Fidelity, FigureId};
use comb_sim::{KernelStats, SimDuration, Simulation};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// One kernel microbench result.
struct MicroResult {
    name: &'static str,
    events: u64,
    best_ns: u128,
    events_per_sec: f64,
    /// Pre-overhaul throughput on the reference machine, recorded when the
    /// slab-arena/indexed-heap kernel landed. Speedups are relative to it.
    baseline_events_per_sec: f64,
}

/// One figure timing.
struct FigureResult {
    id: FigureId,
    wall_ms: f64,
    kernel_events: u64,
    kernel_events_per_sec: f64,
}

/// Repetitions per microbench; the best (lowest) time is kept, which is
/// far more stable than the mean under machine noise.
const REPS: usize = 5;

fn run_sim(sim: Simulation) -> Result<(), CombError> {
    let mut sim = sim;
    sim.run()
        .map_err(|e| CombError::internal(format!("bench simulation failed: {e}")))?;
    Ok(())
}

fn best_of<F: FnMut() -> Result<(), CombError>>(mut body: F) -> Result<u128, CombError> {
    let mut best = u128::MAX;
    for _ in 0..REPS {
        let t0 = Instant::now();
        body()?;
        best = best.min(t0.elapsed().as_nanos());
    }
    Ok(best)
}

fn micro(name: &'static str, events: u64, baseline: f64, best_ns: u128) -> MicroResult {
    MicroResult {
        name,
        events,
        best_ns,
        events_per_sec: events as f64 / (best_ns as f64 / 1e9),
        baseline_events_per_sec: baseline,
    }
}

/// A chain of zero-work self-schedules: the pure event-loop round trip
/// (schedule → pop → invoke), one live event at a time.
fn bench_event_chain() -> Result<MicroResult, CombError> {
    const EVENTS: u64 = 10_000;
    let best = best_of(|| {
        let sim = Simulation::new();
        let h = sim.handle();
        fn chain(h: comb_sim::SimHandle, left: u64) {
            if left == 0 {
                return;
            }
            let h2 = h.clone();
            h.schedule_in(SimDuration::from_nanos(1), move || chain(h2, left - 1));
        }
        chain(h, EVENTS);
        run_sim(sim)
    })?;
    Ok(micro("event_chain_10k", EVENTS, 11_097_116.0, best))
}

/// Bulk schedule of 100k timers followed by draining them all: arena
/// growth, the sorted-tail fast path, and pop throughput.
fn bench_schedule_pop() -> Result<MicroResult, CombError> {
    const EVENTS: u64 = 100_000;
    let best = best_of(|| {
        let sim = Simulation::new();
        let h = sim.handle();
        for i in 0..EVENTS {
            h.schedule_in(SimDuration::from_nanos(i + 1), || {});
        }
        run_sim(sim)
    })?;
    Ok(micro("schedule_pop_100k", EVENTS, 6_285_448.0, best))
}

/// Like `schedule_pop` but every other timer is cancelled before the run —
/// the retry-timer pattern. Exercises O(1) cancellation and stale-entry
/// skipping.
fn bench_schedule_cancel() -> Result<MicroResult, CombError> {
    const EVENTS: u64 = 100_000;
    let best = best_of(|| {
        let sim = Simulation::new();
        let h = sim.handle();
        let ids: Vec<_> = (0..EVENTS)
            .map(|i| h.schedule_in(SimDuration::from_nanos(i + 1), || {}))
            .collect();
        for id in ids.iter().skip(1).step_by(2) {
            h.cancel(*id);
        }
        run_sim(sim)
    })?;
    Ok(micro("schedule_cancel_100k", EVENTS, 4_425_660.0, best))
}

/// Cold-vs-warm cell-cache measurement over the full figure set.
struct CacheResult {
    cold_ms: f64,
    warm_ms: f64,
    speedup: f64,
    warm_hit_rate: f64,
    warm_hits: u64,
    warm_misses: u64,
    cold_stored: u64,
    cold_joined: u64,
}

/// Run every figure cold into a fresh throwaway store, then warm from it.
/// A new `CellCache` instance for the warm pass defeats the in-process
/// memory tier, so the warm numbers measure the on-disk path.
fn run_cache_phase(fidelity: Fidelity) -> Result<CacheResult, CombError> {
    let dir = std::env::temp_dir().join(format!("comb-bench-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cold_cache = Arc::new(CellCache::new(dir.clone(), CacheMode::ReadWrite));
    let t0 = Instant::now();
    comb_report::run_figures_cached(
        &FigureId::ALL,
        fidelity,
        None,
        Some(Arc::clone(&cold_cache)),
    )?;
    let cold = t0.elapsed();
    let cold_stats = cold_cache.stats();

    let warm_cache = Arc::new(CellCache::new(dir.clone(), CacheMode::ReadWrite));
    let t0 = Instant::now();
    comb_report::run_figures_cached(
        &FigureId::ALL,
        fidelity,
        None,
        Some(Arc::clone(&warm_cache)),
    )?;
    let warm = t0.elapsed();
    let warm_stats = warm_cache.stats();
    let _ = std::fs::remove_dir_all(&dir);

    let cold_ms = cold.as_secs_f64() * 1e3;
    let warm_ms = warm.as_secs_f64() * 1e3;
    Ok(CacheResult {
        cold_ms,
        warm_ms,
        speedup: cold_ms / warm_ms.max(f64::EPSILON),
        warm_hit_rate: warm_stats.hit_rate(),
        warm_hits: warm_stats.hits(),
        warm_misses: warm_stats.misses,
        cold_stored: cold_stats.stored,
        cold_joined: cold_stats.joined,
    })
}

/// Loopback serving-throughput measurement.
struct ServeResult {
    requests: usize,
    clients: usize,
    cold_ms: f64,
    warm_ms: f64,
    cold_rps: f64,
    warm_rps: f64,
    speedup: f64,
    bodies_identical: bool,
}

/// Distinct sweep requests issued per pass.
const SERVE_REQUESTS: usize = 24;
/// Closed-loop client threads.
const SERVE_CLIENTS: usize = 6;

/// One pass: every request body issued exactly once, spread over
/// closed-loop client threads. Returns the wall time and the response
/// bodies in request order.
fn serve_pass(addr: &str, bodies: &[String]) -> Result<(f64, Vec<Vec<u8>>), CombError> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let next = AtomicUsize::new(0);
    let out: Vec<Mutex<Vec<u8>>> = bodies.iter().map(|_| Mutex::new(Vec::new())).collect();
    let failed: Mutex<Option<String>> = Mutex::new(None);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..SERVE_CLIENTS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= bodies.len() {
                    return;
                }
                match comb_serve::client_request(
                    addr,
                    "POST",
                    "/v1/sweep",
                    Some(bodies[i].as_bytes()),
                ) {
                    Ok(resp) if resp.status == 200 => {
                        *out[i].lock().unwrap_or_else(|p| p.into_inner()) = resp.body;
                    }
                    Ok(resp) => {
                        *failed.lock().unwrap_or_else(|p| p.into_inner()) =
                            Some(format!("request {i}: status {}", resp.status));
                        return;
                    }
                    Err(e) => {
                        *failed.lock().unwrap_or_else(|p| p.into_inner()) =
                            Some(format!("request {i}: {e}"));
                        return;
                    }
                }
            });
        }
    });
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    if let Some(msg) = failed.into_inner().unwrap_or_else(|p| p.into_inner()) {
        return Err(CombError::internal(format!("serve bench: {msg}")));
    }
    let results = out
        .into_iter()
        .map(|m| m.into_inner().unwrap_or_else(|p| p.into_inner()))
        .collect();
    Ok((wall_ms, results))
}

/// Cold-vs-warm serving throughput against an in-process server with a
/// fresh throwaway cache. The warm pass reissues the identical request
/// set against the same server, so every cell resolves from the cache's
/// in-process memory tier.
fn run_serve_phase() -> Result<ServeResult, CombError> {
    let dir = std::env::temp_dir().join(format!("comb-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = comb_serve::ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: SERVE_CLIENTS,
        queue: 2 * SERVE_CLIENTS,
        jobs: 1,
        cache: Some(Arc::new(CellCache::new(dir.clone(), CacheMode::ReadWrite))),
        ..comb_serve::ServeConfig::default()
    };
    let server = comb_serve::Server::bind(cfg)?;
    let addr = server.local_addr().to_string();
    let (handle, join) = server.spawn();

    // Distinct single-cell polling sweeps, sized like the kernel
    // microbench cells: heavy enough that a cold request is dominated by
    // simulation, cheap enough that the pass stays sub-minute.
    let bodies: Vec<String> = (0..SERVE_REQUESTS)
        .map(|i| {
            format!(
                "{{\"method\":\"polling\",\"msg_bytes\":10240,\"cycles\":3,\
                 \"target_iters\":400000,\"max_intervals\":500,\"xs\":[{}]}}",
                10_000 + i as u64 * 1_000
            )
        })
        .collect();

    let cold = serve_pass(&addr, &bodies);
    let warm = cold.as_ref().ok().map(|_| serve_pass(&addr, &bodies));
    handle.shutdown();
    let _ = join.join();
    let _ = std::fs::remove_dir_all(&dir);

    let (cold_ms, cold_bodies) = cold?;
    let (warm_ms, warm_bodies) = match warm {
        Some(w) => w?,
        None => return Err(CombError::internal("serve bench: warm pass skipped")),
    };
    let bodies_identical = cold_bodies == warm_bodies && cold_bodies.iter().all(|b| !b.is_empty());
    let cold_rps = SERVE_REQUESTS as f64 / (cold_ms / 1e3);
    let warm_rps = SERVE_REQUESTS as f64 / (warm_ms / 1e3).max(f64::EPSILON);
    Ok(ServeResult {
        requests: SERVE_REQUESTS,
        clients: SERVE_CLIENTS,
        cold_ms,
        warm_ms,
        cold_rps,
        warm_rps,
        speedup: warm_rps / cold_rps.max(f64::EPSILON),
        bodies_identical,
    })
}

/// Shard-scaling phase output: per-workload rows plus the host core
/// count that decides whether the speedup gate is meaningful.
struct ShardPhase {
    /// `std::thread::available_parallelism()` on this host. A parallel
    /// kernel cannot beat the serial one without cores to run on, so the
    /// `--check` speedup gate only arms when `host_cores >= SHARD_COUNT`;
    /// the byte-identity gate arms unconditionally.
    host_cores: usize,
    rows: Vec<ShardResult>,
}

impl ShardPhase {
    fn speedup_gate_armed(&self) -> bool {
        self.host_cores >= SHARD_COUNT
    }
}

/// One shard-scaling measurement: the same multi-pair polling workload
/// on the serial kernel and on [`SHARD_COUNT`] conservatively
/// synchronized shards, inside one simulation each.
struct ShardResult {
    /// Which figure family the workload's kernel drives.
    workload: &'static str,
    pairs: usize,
    shards: usize,
    serial_ms: f64,
    sharded_ms: f64,
    speedup: f64,
    /// Whether the sharded samples were byte-identical to the serial ones
    /// (they must be: the epoch merge reproduces the serial event order).
    samples_identical: bool,
}

/// Worker/support pairs in the shard-scaling workload (2 nodes each).
/// Four pairs per shard: enough per-epoch work that the lookahead
/// barrier amortizes and the speedup approaches the shard count.
const SHARD_PAIRS: usize = 16;
/// Shards the parallel pass runs on.
const SHARD_COUNT: usize = 4;
/// Repetitions per pass; best time kept, like the microbenches.
const SHARD_REPS: usize = 3;

/// Time one multi-pair polling run, best of [`SHARD_REPS`], returning the
/// best wall time and the (identical across reps — asserted) samples.
fn shard_pass(
    cfg: &MethodConfig,
    poll_interval: u64,
) -> Result<(f64, Vec<comb_core::PollingSample>), CombError> {
    let pairs = PollingPairs {
        params: PollingParams::new(cfg, poll_interval),
        pairs: SHARD_PAIRS,
    };
    let spec = RunSpec::of(cfg);
    let mut best_ns = u128::MAX;
    let mut samples = None;
    for _ in 0..SHARD_REPS {
        let t0 = Instant::now();
        let s = run(&pairs, &spec)
            .map_err(|e| CombError::internal(format!("shard bench failed: {e}")))?
            .sample;
        best_ns = best_ns.min(t0.elapsed().as_nanos());
        if let Some(prev) = &samples {
            assert_eq!(prev, &s, "shard bench run-to-run nondeterminism");
        }
        samples = Some(s);
    }
    let samples = samples.ok_or_else(|| CombError::internal("shard bench produced no samples"))?;
    Ok((best_ns as f64 / 1e6, samples))
}

/// Serial-vs-sharded wall clock on the polling kernels behind the
/// paper's availability/bandwidth figures: Portals polling drives
/// Figures 4/5 (and 15), GM polling drives Figure 14. A two-node figure
/// point caps useful shards at 2, so the workload runs [`SHARD_PAIRS`]
/// independent pairs in one simulation — the shape `--shards` is for.
fn run_shard_phase() -> Result<ShardPhase, CombError> {
    let workloads: [(&'static str, Transport); 2] = [
        ("fig04_fig05_portals_polling", Transport::Portals),
        ("fig14_gm_polling", Transport::Gm),
    ];
    let mut rows = Vec::new();
    for (workload, transport) in workloads {
        let mut cfg = MethodConfig::new(transport, 100 * 1024);
        cfg.target_iters = 1_000_000;
        cfg.max_intervals = 1_000;
        cfg.jobs = 1; // one simulation; the pool is not involved
        let poll_interval = 1_000;

        cfg.shards = 1;
        let (serial_ms, serial_samples) = shard_pass(&cfg, poll_interval)?;
        cfg.shards = SHARD_COUNT;
        let (sharded_ms, sharded_samples) = shard_pass(&cfg, poll_interval)?;

        rows.push(ShardResult {
            workload,
            pairs: SHARD_PAIRS,
            shards: SHARD_COUNT,
            serial_ms,
            sharded_ms,
            speedup: serial_ms / sharded_ms.max(f64::EPSILON),
            samples_identical: serial_samples == sharded_samples,
        });
    }
    Ok(ShardPhase {
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        rows,
    })
}

fn run_figures(fidelity: Fidelity) -> Result<Vec<FigureResult>, CombError> {
    let mut out = Vec::new();
    for id in FigureId::ALL {
        let fired_before = KernelStats::global().fired;
        let t0 = Instant::now();
        comb_report::run_figures(&[id], fidelity, None)?;
        let wall = t0.elapsed();
        let kernel_events = KernelStats::global().fired - fired_before;
        out.push(FigureResult {
            id,
            wall_ms: wall.as_secs_f64() * 1e3,
            kernel_events,
            kernel_events_per_sec: kernel_events as f64 / wall.as_secs_f64(),
        });
    }
    Ok(out)
}

fn render_json(
    fidelity_name: &str,
    micros: &[MicroResult],
    figures: &[FigureResult],
    cache: &CacheResult,
    serve: &ServeResult,
    shards: &ShardPhase,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"comb-bench-v1\",\n");
    s.push_str(&format!("  \"fidelity\": \"{fidelity_name}\",\n"));
    s.push_str("  \"kernel_microbench\": [\n");
    for (i, m) in micros.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"events\": {}, \"best_ns\": {}, \
             \"events_per_sec\": {:.0}, \"baseline_events_per_sec\": {:.0}, \
             \"speedup\": {:.2}}}{}\n",
            m.name,
            m.events,
            m.best_ns,
            m.events_per_sec,
            m.baseline_events_per_sec,
            m.events_per_sec / m.baseline_events_per_sec,
            if i + 1 == micros.len() { "" } else { "," }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"figures\": [\n");
    for (i, f) in figures.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"id\": \"{}\", \"wall_ms\": {:.1}, \"kernel_events\": {}, \
             \"kernel_events_per_sec\": {:.0}}}{}\n",
            f.id,
            f.wall_ms,
            f.kernel_events,
            f.kernel_events_per_sec,
            if i + 1 == figures.len() { "" } else { "," }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"cache\": {{\"cold_ms\": {:.1}, \"warm_ms\": {:.1}, \"speedup\": {:.1}, \
         \"warm_hit_rate\": {:.4}, \"warm_hits\": {}, \"warm_misses\": {}, \
         \"cold_stored\": {}, \"cold_joined\": {}}},\n",
        cache.cold_ms,
        cache.warm_ms,
        cache.speedup,
        cache.warm_hit_rate,
        cache.warm_hits,
        cache.warm_misses,
        cache.cold_stored,
        cache.cold_joined,
    ));
    s.push_str(&format!(
        "  \"serve\": {{\"requests\": {}, \"clients\": {}, \"cold_ms\": {:.1}, \
         \"warm_ms\": {:.1}, \"cold_rps\": {:.1}, \"warm_rps\": {:.1}, \
         \"speedup\": {:.1}, \"bodies_identical\": {}}},\n",
        serve.requests,
        serve.clients,
        serve.cold_ms,
        serve.warm_ms,
        serve.cold_rps,
        serve.warm_rps,
        serve.speedup,
        serve.bodies_identical,
    ));
    s.push_str(&format!(
        "  \"shard_scaling\": {{\"host_cores\": {}, \"speedup_gate_armed\": {}, \"workloads\": [\n",
        shards.host_cores,
        shards.speedup_gate_armed(),
    ));
    for (i, r) in shards.rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"workload\": \"{}\", \"pairs\": {}, \"shards\": {}, \
             \"serial_ms\": {:.1}, \"sharded_ms\": {:.1}, \"speedup\": {:.2}, \
             \"samples_identical\": {}}}{}\n",
            r.workload,
            r.pairs,
            r.shards,
            r.serial_ms,
            r.sharded_ms,
            r.speedup,
            r.samples_identical,
            if i + 1 == shards.rows.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]},\n");
    let k = KernelStats::global();
    s.push_str(&format!(
        "  \"kernel_totals\": {{\"scheduled\": {}, \"fired\": {}, \"cancelled\": {}, \
         \"lane_scheduled\": {}, \"boxed_calls\": {}, \"arena_high_water_max\": {}, \
         \"burst_batched_packets\": {}}}\n",
        k.scheduled,
        k.fired,
        k.cancelled,
        k.lane_scheduled,
        k.boxed_calls,
        k.arena_high_water,
        comb_hw::burst_batched_packets_total(),
    ));
    s.push_str("}\n");
    s
}

/// Pick the newest baseline — the `BENCH_pr<N>.json` with the highest `N`
/// — from a list of file names. Ordering is numeric, never lexicographic:
/// `BENCH_pr10.json` beats `BENCH_pr9.json`. Names that do not match the
/// pattern exactly are ignored. Pure so the ordering is unit-testable
/// without touching the filesystem.
fn newest_baseline<S: AsRef<str>>(names: impl IntoIterator<Item = S>) -> Option<String> {
    let mut best: Option<(u64, String)> = None;
    for name in names {
        let name = name.as_ref();
        let Some(n) = name
            .strip_prefix("BENCH_pr")
            .and_then(|s| s.strip_suffix(".json"))
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        if best.as_ref().is_none_or(|(b, _)| n > *b) {
            best = Some((n, name.to_string()));
        }
    }
    best.map(|(_, name)| name)
}

/// Newest committed baseline in the current directory. Called before the
/// new result is written, so the file being regenerated still counts with
/// its committed contents.
fn discover_baseline() -> Option<PathBuf> {
    let names = std::fs::read_dir(".")
        .ok()?
        .flatten()
        .filter_map(|e| e.file_name().to_str().map(String::from));
    newest_baseline(names).map(PathBuf::from)
}

/// Pull `"events_per_sec": <n>` for `name` out of a bench JSON file. The
/// format is our own (written above), so positional string scanning is
/// reliable and keeps the binary free of a JSON-parser dependency.
fn extract_events_per_sec(json: &str, name: &str) -> Option<f64> {
    let at = json.find(&format!("\"name\": \"{name}\""))?;
    let rest = &json[at..];
    let key = "\"events_per_sec\": ";
    let v = &rest[rest.find(key)? + key.len()..];
    let end = v.find([',', '}'])?;
    v[..end].trim().parse().ok()
}

pub fn cmd_bench(args: Vec<String>) -> Result<(), CombError> {
    let mut fidelity = Fidelity::smoke();
    let mut fidelity_name = "smoke".to_string();
    let mut out = PathBuf::from("BENCH_pr10.json");
    // Some(None) = --check with no file: auto-discover the baseline.
    let mut check: Option<Option<PathBuf>> = None;
    let mut tolerance: f64 = 25.0;
    let mut jobs: Option<usize> = None;
    let mut it = args.into_iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--fidelity" => {
                fidelity_name = it.next().ok_or("--fidelity needs a name")?;
                fidelity = crate::parse_fidelity(&fidelity_name)?;
            }
            "--smoke" => {
                fidelity = Fidelity::smoke();
                fidelity_name = "smoke".into();
            }
            "--quick" => {
                fidelity = Fidelity::quick();
                fidelity_name = "quick".into();
            }
            "--paper" => {
                fidelity = Fidelity::paper();
                fidelity_name = "paper".into();
            }
            "--jobs" => jobs = Some(crate::parse_jobs(it.next())?),
            "--out" => out = PathBuf::from(it.next().ok_or("--out needs a file")?),
            "--check" => {
                // An optional value: consume the next token only when it
                // is not itself a flag.
                check = Some(it.next_if(|next| !next.starts_with('-')).map(PathBuf::from));
            }
            "--tolerance" => {
                tolerance = it
                    .next()
                    .ok_or("--tolerance needs a percentage")?
                    .parse()
                    .map_err(|_| "bad --tolerance")?
            }
            other => return Err(CombError::usage(format!("unknown option '{other}'"))),
        }
    }
    if let Some(jobs) = jobs {
        fidelity.jobs = jobs;
    }
    // Resolve and read the baseline before anything is written, so a
    // bare `--check` can gate against the committed version of the very
    // file this run regenerates.
    let check: Option<(PathBuf, String)> = match check {
        None => None,
        Some(explicit) => {
            let path = match explicit {
                Some(p) => p,
                None => discover_baseline().ok_or_else(|| {
                    CombError::usage(
                        "--check: no BENCH_pr<N>.json baseline in the current directory",
                    )
                })?,
            };
            let contents =
                std::fs::read_to_string(&path).map_err(|e| CombError::io(path.display(), &e))?;
            Some((path, contents))
        }
    };

    println!("kernel microbenches (best of {REPS} runs):");
    let micros = [
        bench_event_chain()?,
        bench_schedule_pop()?,
        bench_schedule_cancel()?,
    ];
    for m in &micros {
        println!(
            "  {:<22} {:>12.0} events/s   ({:.2}x vs pre-overhaul baseline)",
            m.name,
            m.events_per_sec,
            m.events_per_sec / m.baseline_events_per_sec
        );
    }

    println!();
    println!("figure timings at --fidelity {fidelity_name}:");
    let figures = run_figures(fidelity)?;
    for f in &figures {
        println!(
            "  {:<8} {:>9.1} ms   {:>12} kernel events   {:>12.0} events/s",
            f.id.to_string(),
            f.wall_ms,
            f.kernel_events,
            f.kernel_events_per_sec
        );
    }
    let total_ms: f64 = figures.iter().map(|f| f.wall_ms).sum();
    let total_events: u64 = figures.iter().map(|f| f.kernel_events).sum();
    println!(
        "  {:<8} {:>9.1} ms   {:>12} kernel events   (burst-batched packets: {})",
        "total",
        total_ms,
        total_events,
        comb_hw::burst_batched_packets_total()
    );

    println!();
    println!("cell cache, full figure set at --fidelity {fidelity_name} (cold store -> warm):");
    let cache = run_cache_phase(fidelity)?;
    println!(
        "  cold {:>9.1} ms ({} cells stored, {} joined in-flight)",
        cache.cold_ms, cache.cold_stored, cache.cold_joined
    );
    println!(
        "  warm {:>9.1} ms ({} hits, {} misses, hit rate {:.1}%)   {:.0}x speedup",
        cache.warm_ms,
        cache.warm_hits,
        cache.warm_misses,
        cache.warm_hit_rate * 100.0,
        cache.speedup
    );

    println!();
    println!(
        "serving throughput ({SERVE_REQUESTS} distinct sweeps, {SERVE_CLIENTS} loopback clients, cold cache -> warm):"
    );
    let serve = run_serve_phase()?;
    println!(
        "  cold {:>9.1} ms   {:>8.1} req/s",
        serve.cold_ms, serve.cold_rps
    );
    println!(
        "  warm {:>9.1} ms   {:>8.1} req/s   {:.0}x speedup   bodies identical: {}",
        serve.warm_ms, serve.warm_rps, serve.speedup, serve.bodies_identical
    );

    println!();
    println!(
        "shard scaling ({SHARD_PAIRS} polling pairs per simulation, serial kernel -> {SHARD_COUNT} shards, best of {SHARD_REPS}):"
    );
    let shards = run_shard_phase()?;
    for r in &shards.rows {
        println!(
            "  {:<28} serial {:>8.1} ms   {} shards {:>8.1} ms   {:.2}x speedup   samples identical: {}",
            r.workload, r.serial_ms, r.shards, r.sharded_ms, r.speedup, r.samples_identical
        );
    }
    if !shards.speedup_gate_armed() {
        println!(
            "  (host has {} core(s); the {SHARD_COUNT}-shard speedup gate needs >= {SHARD_COUNT})",
            shards.host_cores
        );
    }

    let json = render_json(&fidelity_name, &micros, &figures, &cache, &serve, &shards);
    comb_trace::atomic_write_str(&out, &json).map_err(|e| CombError::io(out.display(), &e))?;
    println!();
    println!("wrote {}", out.display());

    if let Some((path, recorded)) = check {
        let mut regressed = Vec::new();
        for m in &micros {
            let Some(prior) = extract_events_per_sec(&recorded, m.name) else {
                return Err(CombError::internal(format!(
                    "{}: no '{}' entry to check against",
                    path.display(),
                    m.name
                )));
            };
            let floor = prior * (1.0 - tolerance / 100.0);
            let verdict = if m.events_per_sec < floor {
                regressed.push(m.name);
                "REGRESSED"
            } else {
                "ok"
            };
            println!(
                "  check {:<22} {:>12.0} vs recorded {:>12.0} (floor {:>12.0}) {}",
                m.name, m.events_per_sec, prior, floor, verdict
            );
        }
        if !regressed.is_empty() {
            return Err(CombError::internal(format!(
                "kernel throughput regressed beyond {tolerance}% on: {}",
                regressed.join(", ")
            )));
        }
        println!(
            "  all kernel microbenches within {tolerance}% of {}",
            path.display()
        );
        // Cache gates are absolute (not relative to the baseline): a warm
        // rerun must be an order of magnitude faster and serve every cell
        // from the store.
        if cache.speedup < 10.0 {
            return Err(CombError::internal(format!(
                "cache warm speedup {:.1}x is below the 10x gate",
                cache.speedup
            )));
        }
        if cache.warm_misses > 0 {
            return Err(CombError::internal(format!(
                "warm cache run missed {} cells (expected 100% hits)",
                cache.warm_misses
            )));
        }
        println!(
            "  cache gates ok: {:.0}x warm speedup, 100% warm hit rate",
            cache.speedup
        );
        // Serving gates, also absolute: warm requests ride the in-process
        // cache tier, so anything under 10x cold RPS (or any body drift)
        // means the serving path broke.
        if serve.speedup < 10.0 {
            return Err(CombError::internal(format!(
                "serve warm RPS speedup {:.1}x is below the 10x gate",
                serve.speedup
            )));
        }
        if !serve.bodies_identical {
            return Err(CombError::internal(
                "serve warm responses were not byte-identical to cold responses",
            ));
        }
        println!(
            "  serve gates ok: {:.0}x warm RPS speedup, byte-identical bodies",
            serve.speedup
        );
        // Shard gates: byte-identity is unconditional (the epoch merge
        // must reproduce the serial samples exactly, cores or not); the
        // 1.5x speedup gate arms only when the host actually has the
        // cores to run the shard workers in parallel.
        for r in &shards.rows {
            if !r.samples_identical {
                return Err(CombError::internal(format!(
                    "sharded samples on {} were not byte-identical to serial",
                    r.workload
                )));
            }
            if shards.speedup_gate_armed() && r.speedup < 1.5 {
                return Err(CombError::internal(format!(
                    "shard speedup {:.2}x on {} is below the 1.5x gate",
                    r.speedup, r.workload
                )));
            }
        }
        if shards.speedup_gate_armed() {
            println!(
                "  shard gates ok: >=1.5x speedup at {SHARD_COUNT} shards, byte-identical samples"
            );
        } else {
            println!(
                "  shard gates ok: byte-identical samples ({} core(s) — speedup gate needs >= {SHARD_COUNT})",
                shards.host_cores
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_discovery_orders_numerically() {
        // pr10 must beat pr9: the lexicographic order would pick pr9.
        let names = [
            "BENCH_pr9.json",
            "BENCH_pr10.json",
            "BENCH_pr2.json",
            "README.md",
        ];
        assert_eq!(newest_baseline(names).as_deref(), Some("BENCH_pr10.json"));
    }

    #[test]
    fn baseline_discovery_ignores_near_misses() {
        let names = [
            "BENCH_prX.json",  // non-numeric
            "BENCH_pr7.json5", // wrong suffix
            "xBENCH_pr8.json", // wrong prefix
            "BENCH_pr.json",   // empty number
            "BENCH_pr6.json.bak",
        ];
        assert_eq!(newest_baseline(names), None);
        assert_eq!(newest_baseline(Vec::<String>::new()), None);
        assert_eq!(
            newest_baseline(["BENCH_pr6.json"]).as_deref(),
            Some("BENCH_pr6.json")
        );
    }

    #[test]
    fn events_per_sec_extraction_reads_own_format() {
        let json = "{\"name\": \"event_chain_10k\", \"events\": 10000, \
                    \"events_per_sec\": 12345678, \"speedup\": 1.11}";
        assert_eq!(
            extract_events_per_sec(json, "event_chain_10k"),
            Some(12_345_678.0)
        );
        assert_eq!(extract_events_per_sec(json, "missing"), None);
    }
}
