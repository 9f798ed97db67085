//! Per-layer probes: timed loops over one layer's public functions, run in
//! the traced run. Each probe yields `n` samples (n >= 10 at full size);
//! each sample is the mean cost of one call over a batch of calls.

use crate::workloads::{self, pairs_config, Size, PAIRS_POLL};
use comb::core::cache::cell_desc;
use comb::core::codec::{decode_sample, encode_sample};
use comb::core::{
    run_pingpong, run_polling_pairs, run_polling_point, run_pww_point, CacheMode, CacheOutcome,
    CellCache, CellKey, CellMethod, MethodConfig, PointSample, Transport,
};
use comb::hw::{Cpu, CpuConfig};
use comb::report::Fidelity;
use comb::serve::{ServeConfig, Server, SweepRequest};
use comb::sim::{KernelStats, Signal, SimDuration, SimHandle, SimTime, Simulation};
use comb::trace::{Comp, TraceEvent, Tracer};
use std::cell::Cell;
use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// The samples of one probe, in `unit`.
pub struct Probe {
    pub name: String,
    pub unit: &'static str,
    pub samples: Vec<f64>,
}

/// Batch sizes and sample counts.
struct Scale {
    samples: usize,
    /// Divides every batch size.
    shrink: u64,
}

impl Scale {
    fn of(size: Size) -> Scale {
        match size {
            Size::Full => Scale {
                samples: 10,
                shrink: 1,
            },
            Size::Tiny => Scale {
                samples: 3,
                shrink: 20,
            },
        }
    }

    fn batch(&self, full: u64) -> u64 {
        (full / self.shrink).max(1)
    }
}

type Sampler<'a> = Box<dyn FnMut() -> Result<f64, String> + 'a>;

/// Run every probe. `scratch` holds the cache probes' stores.
pub fn run_all(size: Size, scratch: &Path) -> Result<Vec<Probe>, String> {
    let sc = Scale::of(size);
    let mut probes = Vec::new();
    let mut add = |name: &str, unit: &'static str, mut f: Sampler| -> Result<(), String> {
        let samples = (0..sc.samples)
            .map(|_| f())
            .collect::<Result<Vec<f64>, String>>()
            .map_err(|e| format!("probe {name}: {e}"))?;
        probes.push(Probe {
            name: name.to_string(),
            unit,
            samples,
        });
        Ok(())
    };

    // comb-sim: the event loop.
    let (chain, bulk) = (sc.batch(10_000), sc.batch(100_000));
    add("sim.event_ns", "ns", Box::new(|| event_chain_ns(chain)))?;
    add(
        "sim.schedule_pop_ns",
        "ns",
        Box::new(|| schedule_ns(bulk, false)),
    )?;
    add("sim.cancel_ns", "ns", Box::new(|| schedule_ns(bulk, true)))?;

    // comb-sim: process handoff, with the sibling core idle and busy.
    let holds = sc.batch(10_000);
    add("sim.hold_ns.c1", "ns", Box::new(|| hold_ns(holds, 1)))?;
    add("sim.hold_ns.c2", "ns", Box::new(|| hold_ns(holds, 2)))?;
    add(
        "sim.signal_pingpong_ns",
        "ns",
        Box::new(|| signal_pingpong_ns(sc.batch(10_000) as usize)),
    )?;

    // comb-sim: the sharded kernel on the pairs_sharded input, shortened.
    let (pairs, iters) = match size {
        Size::Full => (8, 250_000),
        Size::Tiny => (2, 50_000),
    };
    add(
        "sim.shard_speedup",
        "x",
        Box::new(|| {
            let serial =
                time_s(|| run_polling_pairs(&pairs_config(1, iters, 1), PAIRS_POLL, pairs))?;
            let sharded =
                time_s(|| run_polling_pairs(&pairs_config(1, iters, 2), PAIRS_POLL, pairs))?;
            Ok(serial / sharded)
        }),
    )?;

    // comb-hw: the CPU model with no messaging.
    add(
        "hw.cpu_compute_ns",
        "ns",
        Box::new(|| cpu_compute_ns(holds)),
    )?;

    // comb-mpi with the NIC and switch models: blocking ping-pong.
    let rtts = sc.batch(100);
    for (transport, t) in [(Transport::Gm, "gm"), (Transport::Portals, "portals")] {
        for (bytes, b) in [(1024, "1k"), (100 * 1024, "100k")] {
            let cfg = MethodConfig::new(transport.clone(), bytes);
            let events = Cell::new(0.0);
            add(
                &format!("mpi.rtt_us.{t}.{b}"),
                "us",
                Box::new(|| {
                    let fired = KernelStats::global().fired;
                    let s = time_s(|| run_pingpong(&cfg, &[bytes], rtts))?;
                    events.set((KernelStats::global().fired - fired) as f64 / rtts as f64);
                    Ok(s * 1e6 / rtts as f64)
                }),
            )?;
            // Exact and identical in every sample; repeated so the count is
            // reported like every other probe.
            add(
                &format!("mpi.events_per_rtt.{t}.{b}"),
                "count",
                Box::new(|| Ok(events.get())),
            )?;
        }
    }

    // comb-core: one figure point of each method, quick fidelity, 100 KiB.
    for (transport, t) in [(Transport::Gm, "gm"), (Transport::Portals, "portals")] {
        let cfg = quick_cfg(transport);
        add(
            &format!("core.polling_point_ms.{t}"),
            "ms",
            Box::new(|| Ok(time_s(|| run_polling_point(&cfg, 10_000))? * 1e3)),
        )?;
        add(
            &format!("core.pww_point_ms.{t}"),
            "ms",
            Box::new(|| Ok(time_s(|| run_pww_point(&cfg, 100_000, false))? * 1e3)),
        )?;
    }

    // comb-core: cell keys, the two cache tiers, stores and the codec.
    cache_probes(&sc, scratch, &mut add)?;

    // comb-serve: request parsing, and a live server's cheapest paths.
    let bodies = workloads::probe_bodies();
    add(
        "serve.json_parse_us",
        "us",
        Box::new(|| {
            let t0 = Instant::now();
            for body in &bodies {
                black_box(SweepRequest::parse(black_box(body))?);
            }
            Ok(per_call_us(t0, bodies.len() as u64))
        }),
    )?;
    serve_probes(&sc, scratch, &bodies[0], &mut add)?;

    // comb-trace: the disabled emit every instrumented hot path pays.
    let emits = sc.batch(1_000_000);
    add(
        "trace.emit_off_ns",
        "ns",
        Box::new(|| {
            let tracer = black_box(Tracer::new());
            let t0 = Instant::now();
            for i in 0..emits {
                tracer.emit(SimTime::from_nanos(i), Comp::App(0), || {
                    TraceEvent::Custom("probe")
                });
            }
            Ok(t0.elapsed().as_nanos() as f64 / emits as f64)
        }),
    )?;

    Ok(probes)
}

type Add<'a> = dyn FnMut(&str, &'static str, Sampler) -> Result<(), String> + 'a;

fn cache_probes(sc: &Scale, scratch: &Path, add: &mut Add) -> Result<(), String> {
    let mut cfg = MethodConfig::new(Transport::Gm, 100 * 1024);
    cfg.target_iters = 400_000;
    cfg.max_intervals = 100;
    let hw = cfg.resolved_hw();
    let desc_of = |x: u64| cell_desc(&hw, &cfg, CellMethod::Polling, x);
    let sample = PointSample::Polling(run_polling_point(&cfg, 20_000).map_err(|e| e.to_string())?);
    let dir = scratch.join("probe-cache");
    let (desc, key) = (desc_of(1), CellKey::from_desc(&desc_of(1)));
    let warm = CellCache::new(dir.clone(), CacheMode::ReadWrite);
    lookup(&warm, &desc, &key, &sample, CacheOutcome::Miss)?;

    let keys = sc.batch(1_000);
    add(
        "cache.key_us",
        "us",
        Box::new(|| {
            let t0 = Instant::now();
            for x in 0..keys {
                black_box(CellKey::from_desc(&desc_of(black_box(x))));
            }
            Ok(per_call_us(t0, keys))
        }),
    )?;
    add(
        "cache.mem_hit_us",
        "us",
        Box::new(|| {
            let t0 = Instant::now();
            for _ in 0..keys {
                lookup(&warm, &desc, &key, &sample, CacheOutcome::HitMem)?;
            }
            Ok(per_call_us(t0, keys))
        }),
    )?;
    let files = sc.batch(100);
    add(
        "cache.disk_hit_us",
        "us",
        Box::new(|| {
            let t0 = Instant::now();
            for _ in 0..files {
                let fresh = CellCache::new(dir.clone(), CacheMode::ReadWrite);
                lookup(&fresh, &desc, &key, &sample, CacheOutcome::HitDisk)?;
            }
            Ok(per_call_us(t0, files))
        }),
    )?;
    let mut next_x = 1_000;
    add(
        "cache.store_us",
        "us",
        Box::new(|| {
            let descs: Vec<String> = (0..files).map(|i| desc_of(next_x + i)).collect();
            next_x += files;
            let t0 = Instant::now();
            for d in &descs {
                lookup(
                    &warm,
                    d,
                    &CellKey::from_desc(d),
                    &sample,
                    CacheOutcome::Miss,
                )?;
            }
            Ok(per_call_us(t0, files))
        }),
    )?;

    let codes = sc.batch(1_000);
    let encoded = encode_sample(&sample);
    if decode_sample(&encoded).as_ref() != Some(&sample) {
        return Err("codec round trip changed the sample".to_string());
    }
    add(
        "codec.encode_us",
        "us",
        Box::new(|| {
            let t0 = Instant::now();
            for _ in 0..codes {
                black_box(encode_sample(black_box(&sample)));
            }
            Ok(per_call_us(t0, codes))
        }),
    )?;
    add(
        "codec.decode_us",
        "us",
        Box::new(|| {
            let t0 = Instant::now();
            for _ in 0..codes {
                black_box(decode_sample(black_box(&encoded)));
            }
            Ok(per_call_us(t0, codes))
        }),
    )
}

/// Resolve one cell and insist on how it was answered, so each probe
/// measures the tier it names.
fn lookup(
    cache: &CellCache,
    desc: &str,
    key: &CellKey,
    sample: &PointSample,
    want: CacheOutcome,
) -> Result<(), String> {
    let (_, got) = cache
        .get_or_compute(desc, key, || Ok(sample.clone()))
        .map_err(|e| e.to_string())?;
    if got != want {
        return Err(format!("cache answered {got:?}, expected {want:?}"));
    }
    Ok(())
}

fn serve_probes(sc: &Scale, scratch: &Path, hot: &str, add: &mut Add) -> Result<(), String> {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue: 1,
        jobs: 1,
        fidelity: workloads::figure_fidelity(1),
        cache: Some(Arc::new(CellCache::new(
            scratch.join("probe-serve"),
            CacheMode::ReadWrite,
        ))),
        ..ServeConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let addr = server.local_addr().to_string();
    let (handle, join) = server.spawn();
    let requests = sc.batch(100);
    let mut conn = None;
    let mut timed = |method: &'static str, path: &'static str, body: Option<&str>| {
        let t0 = Instant::now();
        for _ in 0..requests {
            let r = workloads::exchange(&mut conn, &addr, method, path, body)
                .map_err(|e| e.to_string())?;
            if r.status != 200 {
                return Err(format!("{method} {path}: status {}", r.status));
            }
        }
        Ok(per_call_us(t0, requests))
    };
    // The first request fills the hot cell.
    let result = timed("POST", "/v1/sweep", Some(hot)).and_then(|_| {
        add(
            "serve.healthz_us",
            "us",
            Box::new(|| timed("GET", "/healthz", None)),
        )?;
        add(
            "serve.hit_us",
            "us",
            Box::new(|| timed("POST", "/v1/sweep", Some(hot))),
        )
    });
    drop(conn);
    handle.shutdown();
    let _ = join.join();
    result
}

/// The quick-fidelity method configuration `comb all` uses.
fn quick_cfg(transport: Transport) -> MethodConfig {
    let f = Fidelity::quick();
    let mut cfg = MethodConfig::new(transport, 100 * 1024);
    cfg.cycles = f.cycles;
    cfg.target_iters = f.target_iters;
    cfg.max_intervals = f.max_intervals;
    cfg.jobs = 1;
    cfg.shards = 1;
    cfg
}

/// Host ns per event of a chain of zero-work self-schedules, one live
/// event at a time.
fn event_chain_ns(events: u64) -> Result<f64, String> {
    fn chain(h: SimHandle, left: u64) {
        if left > 0 {
            let h2 = h.clone();
            h.schedule_in(SimDuration::from_nanos(1), move || chain(h2, left - 1));
        }
    }
    let mut sim = Simulation::new();
    let h = sim.handle();
    let t0 = Instant::now();
    chain(h, events);
    sim.run().map_err(|e| e.to_string())?;
    Ok(t0.elapsed().as_nanos() as f64 / events as f64)
}

/// Host ns per event to schedule `events` timers and drain them,
/// cancelling every other one first when `cancel` is set.
fn schedule_ns(events: u64, cancel: bool) -> Result<f64, String> {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let t0 = Instant::now();
    let ids: Vec<_> = (0..events)
        .map(|i| h.schedule_in(SimDuration::from_nanos(i + 1), || {}))
        .collect();
    if cancel {
        for id in ids.iter().skip(1).step_by(2) {
            h.cancel(*id);
        }
    }
    sim.run().map_err(|e| e.to_string())?;
    Ok(t0.elapsed().as_nanos() as f64 / events as f64)
}

/// Host ns per `ProcCtx::hold` round trip of one simulated process, on
/// `threads` simulations running at once (1: the sibling core idles).
fn hold_ns(holds: u64, threads: usize) -> Result<f64, String> {
    let start = Barrier::new(threads);
    let per_thread: Vec<Result<f64, String>> = std::thread::scope(|s| {
        let runs: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut sim = Simulation::new();
                    sim.spawn("holder", move |ctx| {
                        for _ in 0..holds {
                            ctx.hold(SimDuration::from_nanos(1));
                        }
                    });
                    start.wait();
                    let t0 = Instant::now();
                    sim.run().map_err(|e| e.to_string())?;
                    Ok(t0.elapsed().as_nanos() as f64 / holds as f64)
                })
            })
            .collect();
        runs.into_iter()
            .map(|r| r.join().expect("a hold probe thread panicked"))
            .collect()
    });
    let per_thread = per_thread
        .into_iter()
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(per_thread.iter().sum::<f64>() / per_thread.len() as f64)
}

/// Host ns per exchange of two processes alternating through one-shot
/// signals: each fires the other's signal and waits on its own.
fn signal_pingpong_ns(rounds: usize) -> Result<f64, String> {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let pings: Arc<Vec<Signal>> = Arc::new((0..rounds).map(|_| Signal::new(&h)).collect());
    let pongs: Arc<Vec<Signal>> = Arc::new((0..rounds).map(|_| Signal::new(&h)).collect());
    let (pi, po) = (Arc::clone(&pings), Arc::clone(&pongs));
    sim.spawn("pong", move |ctx| {
        for i in 0..rounds {
            pi[i].wait(ctx);
            po[i].fire();
        }
    });
    sim.spawn("ping", move |ctx| {
        for i in 0..rounds {
            pings[i].fire();
            pongs[i].wait(ctx);
        }
    });
    let t0 = Instant::now();
    sim.run().map_err(|e| e.to_string())?;
    Ok(t0.elapsed().as_nanos() as f64 / rounds as f64)
}

/// Host ns per `Cpu::compute` call of a process with no messaging.
fn cpu_compute_ns(calls: u64) -> Result<f64, String> {
    let mut sim = Simulation::new();
    let cpu = Cpu::new(&sim.handle(), CpuConfig::default());
    sim.spawn("compute", move |ctx| {
        for _ in 0..calls {
            black_box(cpu.compute(ctx, SimDuration::from_micros(1)));
        }
    });
    let t0 = Instant::now();
    sim.run().map_err(|e| e.to_string())?;
    Ok(t0.elapsed().as_nanos() as f64 / calls as f64)
}

fn time_s<T, E: std::fmt::Display>(f: impl FnOnce() -> Result<T, E>) -> Result<f64, String> {
    let t0 = Instant::now();
    black_box(f().map_err(|e| e.to_string())?);
    Ok(t0.elapsed().as_secs_f64())
}

fn per_call_us(t0: Instant, calls: u64) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6 / calls as f64
}
