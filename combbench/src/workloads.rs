//! The four workloads: how each is set up, what one measured operation is,
//! and how its outputs are checked.
//!
//! Every workload drives the library only through public functions, timed
//! from outside. An operation is one repetition of the workload's unit of
//! work (the figure set, one multi-pair simulation) or, for `serve_mix`,
//! one request.

use crate::expected::Expected;
use crate::spans::{span, Spans};
use comb::core::{
    run_polling_pairs, run_polling_point, run_pww_point, CacheMode, CellCache, CellKey, CombError,
    MethodConfig, PollingSample, Transport,
};
use comb::hw::{HwConfig, PerturbPlan};
use comb::report::{
    check_figure, generate, render_polling_sweep, render_pww_sweep, run_figures_cached, Campaigns,
};
use comb::report::{Check, Fidelity, FigureId};
use comb::serve::http::{read_client_response, send_request};
use comb::serve::{ServeConfig, Server, ServerHandle};
use comb::sim::KernelStats;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Set-up is repeated this many times per run and its median reported, so
/// work moved into set-up shows in a steady number.
pub const SETUP_REPS: usize = 3;

/// Failure descriptions kept per run (the count is always exact).
const MAX_PROBLEMS: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FiguresCold,
    FiguresWarm,
    ServeMix,
    PairsSharded,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FiguresCold,
        Workload::FiguresWarm,
        Workload::ServeMix,
        Workload::PairsSharded,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FiguresCold => "figures_cold",
            Workload::FiguresWarm => "figures_warm",
            Workload::ServeMix => "serve_mix",
            Workload::PairsSharded => "pairs_sharded",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How big a workload's inputs are. `Tiny` keeps the shape of every
/// workload at a size the unit tests can afford.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    /// Only the unit tests run this size.
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// Everything a workload needs from its caller.
pub struct Ctx<'a> {
    pub seed: u64,
    pub size: Size,
    /// Worker threads for campaigns and the number of serve clients.
    pub jobs: usize,
    /// Throwaway directory for cache stores; removed by the caller.
    pub scratch: &'a Path,
    pub expected: Expected,
}

/// When a measured phase stops.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// After this much host time (and at least one operation).
    Elapsed(Duration),
    /// After exactly this many operations.
    Ops(usize),
}

impl Until {
    fn more(self, done: usize, start: Instant) -> bool {
        match self {
            Until::Elapsed(d) => done == 0 || start.elapsed() < d,
            Until::Ops(n) => done < n,
        }
    }
}

/// Operations attempted and failed, with the first few failure reasons.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    /// Count one operation; it failed when `problems` is not empty.
    fn op(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.note(problems);
        }
    }

    /// Mark an already counted operation as failed by a later check.
    fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.note(vec![problem]);
    }

    fn note(&mut self, problems: Vec<String>) {
        let room = MAX_PROBLEMS.saturating_sub(self.problems.len());
        self.problems.extend(problems.into_iter().take(room));
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.note(other.problems);
    }
}

/// Library counters over one measured phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Kernel event counters (deltas, except `arena_high_water`, which is
    /// the process-wide high-water mark at the end of the phase).
    pub kernel: KernelStats,
    pub burst_batched_packets: u64,
    pub cache_hits: u64,
    pub cache_lookups: u64,
}

/// Result of one measured phase, or of several merged.
#[derive(Debug, Default)]
pub struct Phase {
    /// Host seconds of each operation, in completion order per thread.
    pub op_s: Vec<f64>,
    /// Host seconds from the first operation's start to the last one's end.
    pub elapsed_s: f64,
    pub counters: Counters,
    pub tally: Tally,
}

impl Phase {
    /// Add a later phase of the same fixture.
    pub fn merge(&mut self, later: Phase) {
        let (k, l) = (&mut self.counters.kernel, later.counters.kernel);
        k.scheduled += l.scheduled;
        k.fired += l.fired;
        k.cancelled += l.cancelled;
        k.arena_high_water = k.arena_high_water.max(l.arena_high_water);
        k.lane_scheduled += l.lane_scheduled;
        k.boxed_calls += l.boxed_calls;
        let c = &mut self.counters;
        c.burst_batched_packets += later.counters.burst_batched_packets;
        c.cache_hits += later.counters.cache_hits;
        c.cache_lookups += later.counters.cache_lookups;
        self.op_s.extend(later.op_s);
        self.elapsed_s += later.elapsed_s;
        self.tally.merge(later.tally);
    }
}

/// A workload after set-up, ready to run measured operations.
pub trait Fixture {
    /// Run operations until `until` says stop, checking each one's outputs;
    /// returns each operation's host seconds.
    fn ops(&mut self, until: Until, rec: Option<&Spans>, tally: &mut Tally) -> Vec<f64>;

    /// Checks that run after the measured phase, outside its time.
    fn verify(&mut self, _tally: &mut Tally) {}

    /// Cell-cache `(hits, lookups)` so far.
    fn cache(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// Set `workload` up [`SETUP_REPS`] times, keeping the last fixture.
/// Returns it with the host seconds of each set-up.
pub fn setup(workload: Workload, ctx: &Ctx) -> Result<(Box<dyn Fixture>, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut fixture: Option<Box<dyn Fixture>> = None;
    for _ in 0..SETUP_REPS {
        // The previous fixture goes first: a server must release its
        // threads and store before the next one starts.
        drop(fixture.take());
        let t0 = Instant::now();
        fixture = Some(match workload {
            Workload::FiguresCold => Box::new(Figures::cold(ctx)?),
            Workload::FiguresWarm => Box::new(Figures::warm(ctx)?),
            Workload::ServeMix => Box::new(Serve::new(ctx)?),
            Workload::PairsSharded => Box::new(Pairs::new(ctx)?),
        });
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((fixture.expect("SETUP_REPS is at least one"), times))
}

/// Run one measured phase of `fixture`, then its after-phase checks.
pub fn measure(fixture: &mut dyn Fixture, until: Until, rec: Option<&Spans>) -> Phase {
    let (k0, b0, (h0, l0)) = (
        KernelStats::global(),
        comb::hw::burst_batched_packets_total(),
        fixture.cache(),
    );
    let mut tally = Tally::default();
    let t0 = Instant::now();
    let op_s = fixture.ops(until, rec, &mut tally);
    let elapsed_s = t0.elapsed().as_secs_f64();
    let (k1, (h1, l1)) = (KernelStats::global(), fixture.cache());
    let counters = Counters {
        kernel: KernelStats {
            scheduled: k1.scheduled - k0.scheduled,
            fired: k1.fired - k0.fired,
            cancelled: k1.cancelled - k0.cancelled,
            arena_high_water: k1.arena_high_water,
            lane_scheduled: k1.lane_scheduled - k0.lane_scheduled,
            boxed_calls: k1.boxed_calls - k0.boxed_calls,
        },
        burst_batched_packets: comb::hw::burst_batched_packets_total() - b0,
        cache_hits: h1 - h0,
        cache_lookups: l1 - l0,
    };
    fixture.verify(&mut tally);
    Phase {
        op_s,
        elapsed_s,
        counters,
        tally,
    }
}

/// SHA-256 of `text`, in lowercase hex, by the library's cell-key hash.
pub fn sha256(text: &str) -> String {
    CellKey::from_desc(text).hex().to_string()
}

// --- figures_cold / figures_warm ----------------------------------------

/// One figure's outputs: its CSV bytes and its shape checks.
type FigureOut = (FigureId, String, Vec<Check>);

/// The `comb all --smoke` evaluation: the paper's figures at smoke
/// fidelity, serial kernel, a fixed worker count. Smoke rather than the
/// default quick fidelity so that a run holds enough repetitions for a
/// steady median: about 1.3 s each instead of 4-6 s.
pub fn figure_fidelity(jobs: usize) -> Fidelity {
    Fidelity::smoke().with_jobs(jobs).with_shards(1)
}

/// The figure set as `comb all` makes it: one `run_figures_cached` call,
/// then each figure's CSV. A traced run makes the calls that function is
/// built from one by one instead, with a span around each.
pub fn run_figure_set(
    ids: &[FigureId],
    fidelity: Fidelity,
    cache: Option<Arc<CellCache>>,
    rec: Option<&Spans>,
    parent: Option<usize>,
) -> Result<Vec<FigureOut>, CombError> {
    if rec.is_none() {
        let reports = run_figures_cached(ids, fidelity, None, cache)?;
        return Ok(reports
            .into_iter()
            .map(|r| (r.id, r.dataset.to_csv(), r.checks))
            .collect());
    }
    let mut campaigns = Campaigns::new(fidelity);
    if let Some(c) = cache {
        campaigns.set_cache(c);
    }
    span(rec, "report.prepare", parent, None, |_| {
        campaigns.prepare(ids)
    })?;
    ids.iter()
        .map(|&id| {
            let ds = span(rec, "report.generate", parent, None, |_| {
                generate(id, &mut campaigns)
            })?;
            let checks = span(rec, "report.check", parent, None, |_| check_figure(id, &ds));
            let csv = span(rec, "report.csv", parent, None, |_| ds.to_csv());
            Ok((id, csv, checks))
        })
        .collect()
}

/// Every CSV digest must match the recorded one and every shape check
/// must pass.
fn check_figures(outs: &[FigureOut], expected: &Expected) -> Vec<String> {
    let mut problems = Vec::new();
    for (id, csv, checks) in outs {
        let name = id.to_string();
        let got = sha256(csv);
        match expected.figure_csv(&name) {
            Some(want) if want == got => {}
            Some(want) => problems.push(format!("{name}.csv sha256 {got}, expected {want}")),
            None => problems.push(format!("{name}: no recorded digest")),
        }
        for c in checks.iter().filter(|c| !c.pass) {
            problems.push(format!(
                "{name} shape check '{}' failed: {}",
                c.name, c.detail
            ));
        }
    }
    problems
}

struct Figures {
    ids: Vec<FigureId>,
    fidelity: Fidelity,
    /// The filled store a warm run reads; `None` runs uncached.
    store: Option<PathBuf>,
    expected: Expected,
    cache_hits: u64,
    cache_lookups: u64,
}

impl Figures {
    fn ids(size: Size) -> Vec<FigureId> {
        match size {
            Size::Full => FigureId::ALL.to_vec(),
            Size::Tiny => vec![FigureId::Fig12, FigureId::Fig13],
        }
    }

    /// Set-up is a warm-up: one cold run of Figure 16, which runs both
    /// methods on GM, so lazy initialisation is not charged to the first
    /// measured repetition.
    fn cold(ctx: &Ctx) -> Result<Figures, String> {
        let fidelity = figure_fidelity(ctx.jobs);
        let outs = run_figure_set(&[FigureId::Fig16], fidelity, None, None, None)
            .map_err(|e| format!("warm-up: {e}"))?;
        first_problem("warm-up", check_figures(&outs, &ctx.expected))?;
        Ok(Figures {
            ids: Figures::ids(ctx.size),
            fidelity,
            store: None,
            expected: ctx.expected,
            cache_hits: 0,
            cache_lookups: 0,
        })
    }

    /// Set-up fills a fresh store with every cell of the figure set.
    fn warm(ctx: &Ctx) -> Result<Figures, String> {
        let store = ctx.scratch.join("figures-store");
        remove_dir(&store)?;
        let fx = Figures {
            ids: Figures::ids(ctx.size),
            fidelity: figure_fidelity(ctx.jobs),
            store: Some(store.clone()),
            expected: ctx.expected,
            cache_hits: 0,
            cache_lookups: 0,
        };
        let cache = Arc::new(CellCache::new(store, CacheMode::ReadWrite));
        let outs = run_figure_set(&fx.ids, fx.fidelity, Some(cache), None, None)
            .map_err(|e| format!("store fill: {e}"))?;
        first_problem("store fill", check_figures(&outs, &ctx.expected))?;
        Ok(fx)
    }
}

impl Fixture for Figures {
    fn ops(&mut self, until: Until, rec: Option<&Spans>, tally: &mut Tally) -> Vec<f64> {
        let mut op_s = Vec::new();
        let start = Instant::now();
        while until.more(op_s.len(), start) {
            // A fresh cache instance per repetition: its memory tier is
            // empty, so every cell is answered by the disk store.
            let cache = self
                .store
                .as_ref()
                .map(|d| Arc::new(CellCache::new(d.clone(), CacheMode::ReadWrite)));
            let t0 = Instant::now();
            let outs = span(rec, "figures.rep", None, None, |p| {
                run_figure_set(&self.ids, self.fidelity, cache.clone(), rec, p)
            });
            op_s.push(t0.elapsed().as_secs_f64());
            let mut problems = match outs {
                Ok(outs) => check_figures(&outs, &self.expected),
                Err(e) => vec![e.to_string()],
            };
            if let Some(c) = cache {
                let s = c.stats();
                self.cache_hits += s.hits();
                self.cache_lookups += s.lookups();
                if s.misses > 0 || s.invalid > 0 {
                    problems.push(format!(
                        "warm repetition missed {} of {} cells ({} invalid entries)",
                        s.misses,
                        s.lookups(),
                        s.invalid
                    ));
                }
            }
            tally.op(problems);
        }
        op_s
    }

    fn cache(&self) -> (u64, u64) {
        (self.cache_hits, self.cache_lookups)
    }
}

// --- serve_mix -----------------------------------------------------------

/// Requests per script block. Each block holds exactly the mix below in an
/// order drawn from the seed, so every run sees the same proportions.
const BLOCK: usize = 20;
/// Repeats of a hot body filled during set-up: 80%.
const BLOCK_HOT: usize = 16;
/// Distinct cold cells: 15%. The block's last request (5%) is a figure.
const BLOCK_COLD: usize = 3;

/// Hot bodies per family (four families make the 32 hot bodies).
const HOT_PER_FAMILY: usize = 8;

/// Cold responses recomputed directly through the library after a
/// measured phase, outside its time: the first ones of the run.
const COLD_VERIFY: usize = 8;

/// Hot x values are `HOT_X0 + k * HOT_DX`; cold ones start at `COLD_X0`,
/// past every hot one, so a cold cell can never be a hit.
const HOT_X0: u64 = 20_000;
const HOT_DX: u64 = 1_000;
const COLD_X0: u64 = 40_000;

/// A single-cell sweep request kind: method by transport.
#[derive(Debug, Clone, Copy)]
struct Family {
    pww: bool,
    portals: bool,
}

const FAMILIES: [Family; 4] = [
    Family {
        pww: false,
        portals: false,
    },
    Family {
        pww: false,
        portals: true,
    },
    Family {
        pww: true,
        portals: false,
    },
    Family {
        pww: true,
        portals: true,
    },
];

/// Polling cells: work iterations and the poll-interval cap.
const SWEEP_TARGET_ITERS: u64 = 400_000;
const SWEEP_MAX_INTERVALS: u64 = 100;
/// PWW cells: post-work-wait cycles.
const SWEEP_CYCLES: u64 = 3;
const SWEEP_MSG_BYTES: u64 = 100 * 1024;

impl Family {
    fn transport_name(self) -> &'static str {
        if self.portals {
            "portals"
        } else {
            "gm"
        }
    }

    fn body(self, x: u64) -> String {
        let t = self.transport_name();
        if self.pww {
            format!(
                "{{\"method\":\"pww\",\"transport\":\"{t}\",\"msg_bytes\":{SWEEP_MSG_BYTES},\
                 \"cycles\":{SWEEP_CYCLES},\"xs\":[{x}]}}"
            )
        } else {
            format!(
                "{{\"method\":\"polling\",\"transport\":\"{t}\",\"msg_bytes\":{SWEEP_MSG_BYTES},\
                 \"target_iters\":{SWEEP_TARGET_ITERS},\"max_intervals\":{SWEEP_MAX_INTERVALS},\
                 \"xs\":[{x}]}}"
            )
        }
    }

    /// The body `comb sweep` would print for this cell, computed by
    /// calling the point runner directly.
    fn direct_body(self, x: u64) -> Result<String, String> {
        let transport = if self.portals {
            Transport::Portals
        } else {
            Transport::Gm
        };
        let mut cfg = MethodConfig::new(transport, SWEEP_MSG_BYTES);
        cfg.jobs = 1;
        cfg.shards = 1;
        if self.pww {
            cfg.cycles = SWEEP_CYCLES;
            let s = run_pww_point(&cfg, x, false).map_err(|e| e.to_string())?;
            Ok(render_pww_sweep(&cfg, &[s]))
        } else {
            cfg.target_iters = SWEEP_TARGET_ITERS;
            cfg.max_intervals = SWEEP_MAX_INTERVALS;
            let s = run_polling_point(&cfg, x).map_err(|e| e.to_string())?;
            Ok(render_polling_sweep(&cfg, &[s]))
        }
    }
}

/// The 32 hot bodies (a prefix of them at `Size::Tiny`); they do not
/// depend on the seed, so their digests are recorded.
fn hot_bodies(size: Size) -> Vec<String> {
    let per_family = match size {
        Size::Full => HOT_PER_FAMILY,
        Size::Tiny => 1,
    };
    (0..per_family as u64)
        .flat_map(|k| FAMILIES.iter().map(move |f| f.body(HOT_X0 + k * HOT_DX)))
        .collect()
}

/// splitmix64: the harness's own generator, so the inputs never depend on
/// the library under test.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One scripted request.
#[derive(Debug, Clone, Copy)]
enum Req {
    /// Repeat of hot body `k`.
    Hot(usize),
    /// The `c`-th distinct cold cell of the script.
    Cold(usize),
    Figure(FigureId),
}

/// Request `i` of the script for `seed`: a pure function, so two clients
/// sharing one counter play one script and a run may stop anywhere.
fn script(seed: u64, hot: usize, i: usize) -> Req {
    let (block, pos) = (i / BLOCK, i % BLOCK);
    let mut rng = Rng(Rng(seed).next() ^ block as u64);
    let mut order: [usize; BLOCK] = std::array::from_fn(|k| k);
    for k in (1..BLOCK).rev() {
        order.swap(k, rng.below(k + 1));
    }
    let mut draw = Rng(rng.next() ^ pos as u64);
    match order[pos] {
        slot if slot < BLOCK_HOT => Req::Hot(draw.below(hot)),
        slot if slot < BLOCK_HOT + BLOCK_COLD => Req::Cold(block * BLOCK_COLD + slot - BLOCK_HOT),
        _ if draw.next().is_multiple_of(2) => Req::Figure(FigureId::Fig12),
        _ => Req::Figure(FigureId::Fig13),
    }
}

/// The family and x of cold cell `c`: families rotate, and x starts at a
/// seed-drawn offset and never repeats within a run.
fn cold_cell(seed: u64, c: usize) -> (Family, u64) {
    let offset = Rng(seed ^ 0xC01D).next() % 4_000;
    (
        FAMILIES[c % FAMILIES.len()],
        COLD_X0 + offset + (c / FAMILIES.len()) as u64,
    )
}

#[derive(Default)]
struct ClientLog {
    op_s: Vec<f64>,
    tally: Tally,
    /// `(script index, cold cell, body)` of cold responses.
    cold: Vec<(usize, usize, Vec<u8>)>,
}

/// An in-process `comb serve` with a fresh cache, its hot bodies filled.
struct Serve {
    handle: ServerHandle,
    join: Option<JoinHandle<Result<(), CombError>>>,
    addr: String,
    seed: u64,
    clients: usize,
    expected: Expected,
    /// Hot request bodies with the responses set-up got for them.
    hot: Vec<(String, Vec<u8>)>,
    /// The first cold responses in script order, checked in `verify`.
    cold_seen: Vec<(usize, usize, Vec<u8>)>,
    /// Cold responses checked so far, at most [`COLD_VERIFY`].
    cold_checked: usize,
    /// Script position: a later measured phase continues the script, so
    /// its cold cells are still cold.
    next_req: usize,
}

impl Serve {
    fn new(ctx: &Ctx) -> Result<Serve, String> {
        let store = ctx.scratch.join("serve-store");
        remove_dir(&store)?;
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue: 4,
            jobs: 1,
            fidelity: figure_fidelity(1),
            cache: Some(Arc::new(CellCache::new(store, CacheMode::ReadWrite))),
            ..ServeConfig::default()
        })
        .map_err(|e| format!("binding the server: {e}"))?;
        let addr = server.local_addr().to_string();
        let (handle, join) = server.spawn();
        // From here on, dropping `fx` shuts the server down.
        let mut fx = Serve {
            handle,
            join: Some(join),
            addr,
            seed: ctx.seed,
            clients: ctx.jobs,
            expected: ctx.expected,
            hot: Vec::new(),
            cold_seen: Vec::new(),
            cold_checked: 0,
            next_req: 0,
        };
        let mut conn = None;
        for (k, body) in hot_bodies(ctx.size).into_iter().enumerate() {
            let resp = exchange(&mut conn, &fx.addr, "POST", "/v1/sweep", Some(&body))
                .map_err(|e| format!("filling hot body {k}: {e}"))?;
            if resp.status != 200 {
                return Err(format!("filling hot body {k}: status {}", resp.status));
            }
            let got = sha256(&String::from_utf8_lossy(&resp.body));
            let want = fx.expected.serve_hot.get(k).copied().unwrap_or("none");
            if got != want {
                return Err(format!("hot body {k}: sha256 {got}, expected {want}"));
            }
            fx.hot.push((body, resp.body));
        }
        Ok(fx)
    }

    fn request(&self, req: Req) -> (&'static str, &'static str, String, Option<String>) {
        match req {
            Req::Hot(k) => (
                "serve.hit",
                "POST",
                "/v1/sweep".into(),
                Some(self.hot[k].0.clone()),
            ),
            Req::Cold(c) => {
                let (family, x) = cold_cell(self.seed, c);
                (
                    "serve.miss",
                    "POST",
                    "/v1/sweep".into(),
                    Some(family.body(x)),
                )
            }
            Req::Figure(id) => ("serve.figure", "GET", format!("/v1/figures/{id}.csv"), None),
        }
    }

    /// One closed-loop client: send the next scripted request, wait for
    /// its reply, check it, repeat.
    fn client(
        &self,
        until: Until,
        start: Instant,
        next: &AtomicUsize,
        rec: Option<&Spans>,
    ) -> ClientLog {
        let mut log = ClientLog::default();
        let mut conn = None;
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if !until.more(i - self.next_req, start) {
                return log;
            }
            let req = script(self.seed, self.hot.len(), i);
            let (name, method, path, body) = self.request(req);
            let t0 = Instant::now();
            let resp = span(rec, name, None, Some(i as u64), |_| {
                exchange(&mut conn, &self.addr, method, &path, body.as_deref())
            });
            log.op_s.push(t0.elapsed().as_secs_f64());
            let problems = match resp {
                Err(e) => vec![format!("request {i} ({path}): {e}")],
                Ok(r) if r.status != 200 => {
                    vec![format!("request {i} ({path}): status {}", r.status)]
                }
                Ok(r) => match req {
                    Req::Hot(k) if r.body != self.hot[k].1 => {
                        vec![format!(
                            "request {i}: hot body {k} differs from its set-up response"
                        )]
                    }
                    Req::Figure(id) => {
                        let got = sha256(&String::from_utf8_lossy(&r.body));
                        match self.expected.figure_csv(&id.to_string()) {
                            Some(want) if want == got => vec![],
                            want => vec![format!(
                                "request {i}: {id}.csv sha256 {got}, expected {want:?}"
                            )],
                        }
                    }
                    Req::Cold(c) => {
                        log.cold.push((i, c, r.body));
                        vec![]
                    }
                    Req::Hot(_) => vec![],
                },
            };
            log.tally.op(problems);
        }
    }
}

/// One request on a kept-alive connection, opening it when needed.
pub fn exchange(
    conn: &mut Option<TcpStream>,
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<comb::serve::ClientResponse> {
    if conn.is_none() {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        *conn = Some(stream);
    }
    let stream = conn.as_mut().expect("connected above");
    let out = send_request(stream, method, path, body.map(str::as_bytes))
        .and_then(|()| read_client_response(stream));
    if !matches!(&out, Ok(r) if r.header("connection") != Some("close")) {
        *conn = None;
    }
    out
}

impl Fixture for Serve {
    fn ops(&mut self, until: Until, rec: Option<&Spans>, tally: &mut Tally) -> Vec<f64> {
        let next = AtomicUsize::new(self.next_req);
        let start = Instant::now();
        let this = &*self;
        let logs: Vec<ClientLog> = std::thread::scope(|s| {
            let clients: Vec<_> = (0..this.clients)
                .map(|_| s.spawn(|| this.client(until, start, &next, rec)))
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("a serve client thread panicked"))
                .collect()
        });
        self.next_req = next.into_inner();
        let mut op_s = Vec::new();
        for log in logs {
            op_s.extend(log.op_s);
            tally.merge(log.tally);
            self.cold_seen.extend(log.cold);
        }
        self.cold_seen.sort_by_key(|&(i, ..)| i);
        self.cold_seen.truncate(COLD_VERIFY - self.cold_checked);
        op_s
    }

    fn verify(&mut self, tally: &mut Tally) {
        self.cold_checked += self.cold_seen.len();
        for (i, c, body) in std::mem::take(&mut self.cold_seen) {
            let (family, x) = cold_cell(self.seed, c);
            match family.direct_body(x) {
                Ok(want) if want.as_bytes() == body => {}
                Ok(_) => tally.fail(format!("request {i}: cold body differs from a direct run")),
                Err(e) => tally.fail(format!("request {i}: direct run failed: {e}")),
            }
        }
    }

    fn cache(&self) -> (u64, u64) {
        self.handle
            .cache_stats()
            .map_or((0, 0), |s| (s.hits(), s.lookups()))
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

// --- pairs_sharded -------------------------------------------------------

/// Poll interval of every pair, in loop iterations.
pub const PAIRS_POLL: u64 = 3_000;
const PAIRS_SHARDS: usize = 2;

/// The multi-pair polling input: GM hardware jittered by the library's
/// seeded perturbation model (so the seed changes every simulated cost by
/// a few percent but not the amount of work), 100 KiB messages.
pub fn pairs_config(seed: u64, target_iters: u64, shards: usize) -> MethodConfig {
    let hw = PerturbPlan::new(seed).hw_for_replicate(&HwConfig::gm_myrinet(), 1);
    let mut cfg = MethodConfig::new(Transport::Custom(Box::new(hw)), 100 * 1024);
    cfg.target_iters = target_iters;
    cfg.max_intervals = 1_000;
    cfg.jobs = 1;
    cfg.shards = shards;
    cfg
}

/// `(pairs, target_iters)` of the workload.
fn pairs_size(size: Size) -> (usize, u64) {
    match size {
        Size::Full => (8, 1_000_000),
        Size::Tiny => (2, 100_000),
    }
}

struct Pairs {
    cfg: MethodConfig,
    pairs: usize,
    /// The serial kernel's samples, computed during set-up.
    reference: Vec<PollingSample>,
}

impl Pairs {
    fn new(ctx: &Ctx) -> Result<Pairs, String> {
        let (pairs, iters) = pairs_size(ctx.size);
        let serial = pairs_config(ctx.seed, iters, 1);
        let reference = run_polling_pairs(&serial, PAIRS_POLL, pairs)
            .map_err(|e| format!("serial reference run: {e}"))?;
        Ok(Pairs {
            cfg: pairs_config(ctx.seed, iters, PAIRS_SHARDS),
            pairs,
            reference,
        })
    }
}

impl Fixture for Pairs {
    fn ops(&mut self, until: Until, rec: Option<&Spans>, tally: &mut Tally) -> Vec<f64> {
        let mut op_s = Vec::new();
        let start = Instant::now();
        while until.more(op_s.len(), start) {
            let t0 = Instant::now();
            let samples = span(rec, "core.run_polling_pairs", None, None, |_| {
                run_polling_pairs(&self.cfg, PAIRS_POLL, self.pairs)
            });
            op_s.push(t0.elapsed().as_secs_f64());
            tally.op(match samples {
                Ok(s) if s == self.reference => vec![],
                Ok(_) => vec!["sharded samples differ from the serial kernel's".to_string()],
                Err(e) => vec![e.to_string()],
            });
        }
        op_s
    }
}

// --- helpers -------------------------------------------------------------

fn first_problem(what: &str, problems: Vec<String>) -> Result<(), String> {
    match problems.into_iter().next() {
        None => Ok(()),
        Some(p) => Err(format!("{what}: {p}")),
    }
}

fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("removing {}: {e}", dir.display()))
        }
        _ => Ok(()),
    }
}

/// Hot request bodies, for the JSON parse probe.
pub fn probe_bodies() -> Vec<String> {
    hot_bodies(Size::Full)
}
