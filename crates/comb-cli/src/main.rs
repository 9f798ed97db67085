//! `comb` — command-line front end for the COMB reproduction.
//!
//! Regenerates any (or every) data figure of the paper on the simulated
//! GM and Portals platforms, prints ASCII plots, writes CSVs, runs the
//! qualitative shape checks, and exposes raw sweeps for ad-hoc experiments.
//!
//! Exit codes follow a fixed contract (see `--help`): 0 success,
//! 1 usage error, 2 run failure, 3 watchdog abort.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use comb_core::{
    default_cache_dir, log_spaced, run_cell_cached, run_ordered, AdaptiveParams, AdaptiveStats,
    CacheMode, CampaignDesc, CellCache, CellMethod, CombError, ErrorKind, MethodConfig,
    NetperfParams, PingPong, PointSample, PollingParams, PwwParams, RunSpec, Transport,
};
use comb_hw::FaultPlan;
use comb_report::{generate_degradation, run_figures_cached, Fidelity, FigureId};
use comb_sim::KernelStats;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            if e.kind == ErrorKind::Usage {
                eprintln!();
                eprintln!("{USAGE}");
            }
            ExitCode::from(e.exit_code())
        }
    }
}

const USAGE: &str = "\
COMB: a portable benchmark suite for assessing MPI overlap (CLUSTER 2002)
Rust reproduction on a deterministic simulated cluster.

USAGE:
    comb list                              list the paper's data figures
    comb info                              show the simulated platform presets
    comb figure <id>... [options]          regenerate figures (e.g. fig08, 11)
    comb all [options]                     regenerate all 14 data figures
    comb report [--paper] [--out <file>]   full run + markdown evaluation record
    comb sweep [polling|pww] [options]     run a raw sweep (default: polling);
                                           prints a table, or CSV when faulted
    comb soak [options]                    chaos soak: randomized fault-injected
                                           points under the watchdog; failures
                                           land in a JSON manifest with the
                                           reproducing seed
    comb degrade [options]                 bandwidth/availability degradation
                                           figures vs loss rate and stall duty
    comb halo [--shards <n>] [--out <dir>] application scenario: 1-D stencil
                                           halo exchange (4 ranks) with and
                                           without overlap, one CSV
                                           (halo.csv); byte-identical at any
                                           shard count
    comb netperf [--transport T] [--size N] compare COMB vs netperf methodology
    comb latency [--transport T]           classic ping-pong latency table
    comb trace [options]                   run one traced point: overlap
                                           analysis, ASCII timeline, and a
                                           Chrome/Perfetto trace file
    comb cache <stats|verify|gc|clear>     inspect or maintain the on-disk
                                           sweep-cell result cache
    comb serve [options]                   HTTP serving front end: sweep and
                                           figure requests scheduled onto the
                                           shared pool and cell cache (see
                                           README \"Serving\")

EXIT CODES:
    0  success (all requested work done, all checks passed)
    1  usage error (bad flags, unknown command or figure id)
    2  run failure (simulation error, worker panic, I/O, failed checks)
    3  watchdog abort (livelocked or over-deadline simulation)

OPTIONS (figure/all/report):
    --fidelity <f>     sweep density: smoke | quick | paper (default: quick)
    --paper            shorthand for --fidelity paper
    --smoke            shorthand for --fidelity smoke
    --jobs <n>         worker threads for campaign execution (default: auto —
                       COMB_JOBS if set, else all cores; results are
                       byte-identical for any value)
    --shards <n>       kernel shards per simulation: each point's event
                       kernel runs on <n> conservatively synchronized
                       shards (precedence: this flag, else COMB_SHARDS,
                       else 1 = the serial kernel). CSVs, traces and cache
                       keys are byte-identical for any value — the epoch
                       merge reproduces the serial event order exactly
    --out <dir>        write CSVs into <dir> (default: results/)
    --no-csv           do not write CSVs
    --plot <WxH>       ASCII plot size (default 72x20; 0x0 disables plots)
    --checks           print every shape check (default: failures only)
    --resume           removed: rerun an interrupted command to resume it
    --replicates <n>   adaptive sampling: repeat every sweep cell under
                       seeded run-to-run perturbation, up to <n> replicates
                       per cell, stopping each cell early once its CI
                       target is met; figures plot per-cell means and CSVs
                       gain y_lo,y_hi,n confidence-band columns. Results
                       stay byte-identical for any --jobs
    --ci-target <f>    relative 95% CI half-width to stop at, as a fraction
                       of the mean (default 0.02; needs --replicates)
    --perturb-seed <n> master seed for the perturbation model (default
                       fixed; needs --replicates)
    --no-cache         disable the content-addressed sweep-cell cache
    --cache-refresh    recompute every cell and overwrite its cache entry
    --cache-dir <dir>  cache location (default: $COMB_CACHE_DIR, else
                       $XDG_CACHE_HOME/comb, else ~/.cache/comb); cached
                       campaigns are byte-identical to uncached ones, and
                       every finished cell is stored as it completes, so
                       rerunning an interrupted command resumes it

OPTIONS (sweep):
    --transport <gm|portals|emp>   platform (default gm)
    --size <bytes>                 message size (default 102400)
    --queue <n>                    polling queue depth (default 4)
    --batch <n>                    PWW batch size (default 1)
    --cycles <n>                   PWW cycles per point (default 12)
    --jobs <n>                     worker threads (default: auto)
    --shards <n>                   kernel shards per point (flag, else
                                   COMB_SHARDS, else 1; byte-identical output)
    --test-in-work                 PWW: insert one MPI_Test in the work phase
    --range <lo:hi[:per_decade]>   x range in loop iterations
    --fault <spec>                 inject faults (repeatable); specs:
                                     loss=uniform:R | loss=burst:R[:LEN]
                                     stall=PERIOD_US:DUTY | storm=PERIOD_US:COST_US
                                     degrade=PERIOD_US:DUTY:FACTOR | dropctl=R
                                   faulted sweeps print CSV and stay
                                   byte-deterministic for any --jobs value
    --fault-seed <n>               seed for all fault randomness (default fixed)
    --trace <file>                 also capture every point with tracing on and
                                   write one Chrome/Perfetto JSON (points get
                                   separate pid groups; byte-identical for any
                                   --jobs value; serial kernel only, so not
                                   combinable with more than one shard)
    --resume                       removed: rerun a sweep to resume it
    --no-cache / --cache-refresh / --cache-dir <dir>
                                   sweep-cell cache controls, as for figure;
                                   untraced sweeps resolve each point
                                   through the cache

OPTIONS (soak):
    --iters <n>                    scenarios to run (default 25)
    --start <n>                    first scenario index (default 0; scenarios
                                   are a pure function of seed and index, so
                                   --start N --iters 1 replays scenario N)
    --fault-seed <n>               master scenario seed (default 42)
    --jobs <n>                     worker threads (default: auto)
    --attempts <n>                 attempts per scenario; retryable failures
                                   retry with a reseeded fault plan (default 2)
    --manifest <file>              failure manifest path
                                   (default soak-failures.json)
    --serve                        serve chaos mode instead: a seeded
                                   transport-fault client storm against a
                                   live server, then the protocol fuzz
                                   harness; exits non-zero if either the
                                   robustness contract or a fuzz case fails
    --requests <n> (serve)         storm size (default 500)
    --clients <n> (serve)          concurrent storm clients (default 8)
    --fuzz-iters <n> (serve)       fuzz cases (default 10000)
    --net-fault <k=v> (serve)      override the storm's fault plan
                                   (repeatable; same specs as serve)

OPTIONS (trace):
    --method <pww|polling>         traced method (default pww)
    --transport <gm|portals|emp>   platform (default gm)
    --size <bytes>                 message size (default 102400)
    --work-interval <iters>        PWW work interval (default 1000000)
    --poll-interval <iters>        polling poll interval (default 10000)
    --batch / --cycles / --queue / --test-in-work   as for sweep
    --out <file>                   write Chrome trace JSON (default run.trace.json)
    --csv <file>                   also write the raw event CSV
    --width <cols>                 ASCII timeline width (default 100)
    Tracing runs on the serial kernel: COMB_SHARDS above 1 is a usage error.

OPTIONS (degrade):
    --fidelity <f> | --smoke | --paper     sweep density (default: quick)
    --jobs <n>                             worker threads (default: auto)
    --out <dir>                            write CSVs into <dir> (default: results/)
    --no-csv                               do not write CSVs
    --plot <WxH>                           ASCII plot size (default 72x20; 0x0 off)

OPTIONS (cache):
    --cache-dir <dir>  store to operate on (default: resolved as above)
    --json             stats: machine-readable output (for CI artifacts)
    --max-age <days>   gc: also evict valid entries older than <days>
                       (by file modification time; fractions allowed)

OPTIONS (serve):
    --addr <host:port>             bind address (default 127.0.0.1:8080;
                                   port 0 picks an ephemeral port). The
                                   resolved address is printed as a
                                   parseable `serve: listening on <addr>`
    --workers <n>                  connection worker threads (default 4)
    --queue <n>                    connections allowed to wait beyond the
                                   workers; past that, new connections get
                                   429 + Retry-After (default 16)
    --jobs <n>                     sweep pool width per request (default: auto)
    --fidelity <f> | --smoke | --quick | --paper   figure fidelity served by
                                   /v1/figures (default: quick, matching
                                   `comb figure`)
    --read-timeout <secs>          idle-connection reap timeout (default 5)
    --request-deadline <secs>      per-request hard budget: slowloris
                                   requests are cut off with 408, campaigns
                                   still running at the deadline answer 503
                                   (default 30; clients may shrink it per
                                   request via deadline_ms)
    --shed-queue <n>               saturation shed lane: up to n overflow
                                   connections get priority triage (health
                                   and metrics always answered, all-cached
                                   sweeps served, the rest shed with a
                                   derived Retry-After); 0 restores plain
                                   inline 429s (default 16)
    --journal                      removed: restart the server and resend;
                                   stored cells replay from the cell cache
    --breaker <n:secs>             circuit breaker: n consecutive worker
                                   panics refuse campaigns for secs, then a
                                   half-open probe (default 3:2)
    --quarantine <n>               poison-cell quarantine: refuse a cell
                                   after n worker panics instead of
                                   recomputing it (default 3)
    --net-fault <k=v>              seeded transport fault injection on
                                   server connections (repeatable):
                                   delay=P:MAX_US, partial=P, torn=P,
                                   reset=P, seed=N
    --no-cache / --cache-refresh / --cache-dir <dir>
                                   cell cache controls, as for figure; the
                                   cache is what makes repeated and
                                   concurrent identical requests cheap
";

fn parse_fidelity(name: &str) -> Result<Fidelity, String> {
    match name.to_lowercase().as_str() {
        "smoke" => Ok(Fidelity::smoke()),
        "quick" => Ok(Fidelity::quick()),
        "paper" => Ok(Fidelity::paper()),
        other => Err(format!(
            "unknown fidelity '{other}' (expected smoke, quick or paper)"
        )),
    }
}

fn parse_jobs(arg: Option<String>) -> Result<usize, String> {
    arg.ok_or("--jobs needs a worker count")?
        .parse()
        .map_err(|_| "bad --jobs (expected a non-negative integer, 0 = auto)".to_string())
}

fn parse_shards(arg: Option<String>) -> Result<usize, String> {
    arg.ok_or("--shards needs a shard count")?
        .parse()
        .map_err(|_| "bad --shards (expected a non-negative integer, 0 = auto)".to_string())
}

fn run(args: Vec<String>) -> Result<(), CombError> {
    let mut it = args.into_iter();
    match it.next().as_deref() {
        Some("list") => cmd_list(),
        Some("info") => cmd_info(),
        Some("figure") => cmd_figures(it.collect(), false),
        Some("all") => cmd_figures(it.collect(), true),
        Some("report") => cmd_report(it.collect()),
        Some("netperf") => cmd_netperf(it.collect()),
        Some("latency") => cmd_latency(it.collect()),
        Some("sweep") => cmd_sweep(it.collect()),
        Some("soak") => cmd_soak(it.collect()),
        Some("trace") => cmd_trace(it.collect()),
        Some("degrade") => cmd_degrade(it.collect()),
        Some("halo") => cmd_halo(it.collect()),
        Some("cache") => cmd_cache(it.collect()),
        Some("serve") => cmd_serve(it.collect()),
        Some("help") | Some("--help") | Some("-h") => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(CombError::usage(format!("unknown command '{other}'"))),
        None => Err(CombError::usage("no command given")),
    }
}

fn cmd_list() -> Result<(), CombError> {
    println!("The paper's data figures (Figures 1-3 are method diagrams):\n");
    for id in FigureId::ALL {
        println!("  {id}  {}", id.title());
        println!("         {}", id.description());
    }
    Ok(())
}

fn cmd_info() -> Result<(), CombError> {
    for t in [Transport::Gm, Transport::Portals, Transport::Emp] {
        let cfg = t.config();
        println!("platform {} :", cfg.name);
        println!(
            "  cpu: {} MHz, {} cycles per benchmark loop iteration",
            cfg.cpu.freq_hz / 1_000_000,
            cfg.cpu.cycles_per_iter
        );
        println!(
            "  link: mtu {} B, one-way latency {}",
            cfg.link.mtu, cfg.link.latency
        );
        println!(
            "  nic: {} | tx {}/pkt @ {} MB/s | rx {}/pkt @ {} MB/s",
            cfg.nic.kind,
            cfg.nic.tx_per_packet,
            cfg.nic.tx_bandwidth / 1_000_000,
            cfg.nic.rx_per_packet,
            cfg.nic.rx_bandwidth / 1_000_000
        );
        println!(
            "  mpi: progress={:?} eager<{} B | isend {} (eager) / {} (rndv) | irecv {}",
            cfg.mpi.progress,
            cfg.mpi.eager_threshold,
            cfg.mpi.isend_eager,
            cfg.mpi.isend_rndv,
            cfg.mpi.irecv
        );
        println!();
    }
    Ok(())
}

/// Shared `--no-cache` / `--cache-refresh` / `--cache-dir` state.
#[derive(Default)]
struct CacheOpts {
    no_cache: bool,
    refresh: bool,
    dir: Option<PathBuf>,
    /// The first removed resume flag given, see [`CacheOpts::remove`].
    removed: Option<Removed>,
}

/// A removed flag whose message names the cache directory: an
/// interrupted run now resumes from the cell cache.
#[derive(Clone, Copy)]
enum Removed {
    /// `--resume <ckpt>` on the campaign commands.
    Resume,
    /// `comb serve --journal <file>`.
    Journal,
}

type Args = std::iter::Peekable<std::vec::IntoIter<String>>;

impl CacheOpts {
    /// Consume one flag if it is a cache flag. Returns false otherwise.
    fn consume(&mut self, flag: &str, it: &mut Args) -> Result<bool, String> {
        match flag {
            "--no-cache" => self.no_cache = true,
            "--cache-refresh" => self.refresh = true,
            "--cache-dir" => {
                self.dir = Some(PathBuf::from(
                    it.next().ok_or("--cache-dir needs a directory")?,
                ))
            }
            "--resume" => self.remove(Removed::Resume, it),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Note a removed flag and skip the value it used to take. The error
    /// waits for [`CacheOpts::reject_removed`], after the whole argument
    /// list, so that it names the directory a later `--cache-dir` chose.
    fn remove(&mut self, flag: Removed, it: &mut Args) {
        self.removed.get_or_insert(flag);
        it.next_if(|value| !value.starts_with('-'));
    }

    /// The usage error for a removed flag given anywhere in the
    /// arguments; call once they are all parsed.
    fn reject_removed(&self) -> Result<(), String> {
        let Some(flag) = self.removed else {
            return Ok(());
        };
        let dir = match self.dir.clone().or_else(default_cache_dir) {
            Some(d) => d.display().to_string(),
            None => "the directory --cache-dir names".to_string(),
        };
        Err(match flag {
            Removed::Resume => format!(
                "--resume was removed: rerun the same command to resume an \
                 interrupted run; its finished cells replay from the cell cache \
                 in {dir} (--no-cache runs cannot resume)"
            ),
            Removed::Journal => format!(
                "--journal was removed: restart the server and resend the request; \
                 its stored cells replay from the cell cache in {dir} \
                 (--no-cache servers cannot resume)"
            ),
        })
    }

    /// Build the cache these flags describe. `None` when caching is off
    /// (explicitly, or because no cache directory resolves).
    fn build(&self) -> Option<Arc<CellCache>> {
        if self.no_cache {
            return None;
        }
        let dir = self.dir.clone().or_else(default_cache_dir)?;
        let mode = if self.refresh {
            CacheMode::Refresh
        } else {
            CacheMode::ReadWrite
        };
        Some(Arc::new(CellCache::new(dir, mode)))
    }
}

/// Shared `--replicates` / `--ci-target` / `--perturb-seed` state for the
/// commands that can run adaptive replicate campaigns.
#[derive(Default)]
struct AdaptiveOpts {
    replicates: Option<u32>,
    ci_target: Option<f64>,
    perturb_seed: Option<u64>,
}

impl AdaptiveOpts {
    /// Consume one flag if it is an adaptive flag. Returns false otherwise.
    fn consume(
        &mut self,
        flag: &str,
        it: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        match flag {
            "--replicates" => {
                let n: u32 = it
                    .next()
                    .ok_or("--replicates needs a count")?
                    .parse()
                    .map_err(|_| "bad --replicates (expected a positive integer)")?;
                if n == 0 {
                    return Err("--replicates must be at least 1".into());
                }
                self.replicates = Some(n);
            }
            "--ci-target" => {
                let t: f64 = it
                    .next()
                    .ok_or("--ci-target needs a fraction")?
                    .parse()
                    .map_err(|_| "bad --ci-target (expected a number like 0.02)")?;
                // Non-finite targets would also poison AdaptiveParams
                // equality.
                if !t.is_finite() || t < 0.0 {
                    return Err("--ci-target must be a finite non-negative fraction".into());
                }
                self.ci_target = Some(t);
            }
            "--perturb-seed" => {
                self.perturb_seed = Some(
                    it.next()
                        .ok_or("--perturb-seed needs n")?
                        .parse()
                        .map_err(|_| "bad --perturb-seed")?,
                )
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The adaptive campaign these flags describe. `--replicates` enables
    /// it; the refinement knobs are rejected on their own.
    fn build(&self) -> Result<Option<AdaptiveParams>, String> {
        let Some(replicates) = self.replicates else {
            if self.ci_target.is_some() || self.perturb_seed.is_some() {
                return Err(
                    "--ci-target / --perturb-seed need --replicates to enable adaptive sampling"
                        .into(),
                );
            }
            return Ok(None);
        };
        let mut params = AdaptiveParams::new(replicates);
        if let Some(t) = self.ci_target {
            params.ci_target = t;
        }
        if let Some(s) = self.perturb_seed {
            params.perturb_seed = s;
        }
        Ok(Some(params))
    }
}

/// The greppable one-line summary an adaptive campaign prints: how much
/// work the CI-driven stopping rule saved over fixed-N replication.
fn adaptive_summary(params: &AdaptiveParams, stats: &AdaptiveStats) -> String {
    let fixed = stats.cells * params.replicates as usize;
    format!(
        "adaptive: {} cells, {} replicates, {} converged, {} capped; \
         fixed-N at cap {} would run {} (saved {})",
        stats.cells,
        stats.replicates,
        stats.converged,
        stats.capped,
        params.replicates,
        fixed,
        fixed.saturating_sub(stats.replicates)
    )
}

/// The greppable one-line cache summary commands print after a cached run.
fn cache_summary(cache: &CellCache) -> String {
    let s = cache.stats();
    format!(
        "cache: {} hits, {} misses, {} joined in-flight ({} stored, {} invalid, dir {})",
        s.hits_mem + s.hits_disk,
        s.misses,
        s.joined,
        s.stored,
        s.invalid,
        cache.dir().display()
    )
}

struct FigureOpts {
    ids: Vec<FigureId>,
    fidelity: Fidelity,
    out: Option<PathBuf>,
    plot: (usize, usize),
    show_checks: bool,
    cache: CacheOpts,
}

fn parse_figure_opts(args: Vec<String>, all: bool) -> Result<FigureOpts, String> {
    let mut opts = FigureOpts {
        ids: if all { FigureId::ALL.to_vec() } else { vec![] },
        fidelity: Fidelity::quick(),
        out: Some(PathBuf::from("results")),
        plot: (72, 20),
        show_checks: false,
        cache: CacheOpts::default(),
    };
    let mut adaptive = AdaptiveOpts::default();
    let mut jobs: Option<usize> = None;
    let mut shards: Option<usize> = None;
    let mut it = args.into_iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--paper" => opts.fidelity = Fidelity::paper(),
            "--quick" => opts.fidelity = Fidelity::quick(),
            "--smoke" => opts.fidelity = Fidelity::smoke(),
            "--fidelity" => {
                opts.fidelity = parse_fidelity(&it.next().ok_or("--fidelity needs a name")?)?
            }
            "--jobs" => jobs = Some(parse_jobs(it.next())?),
            "--shards" => shards = Some(parse_shards(it.next())?),
            "--out" => opts.out = Some(PathBuf::from(it.next().ok_or("--out needs a directory")?)),
            "--no-csv" => opts.out = None,
            "--checks" => opts.show_checks = true,
            "--plot" => {
                let spec = it.next().ok_or("--plot needs WxH")?;
                let (w, h) = spec
                    .split_once('x')
                    .ok_or_else(|| format!("bad --plot '{spec}', expected WxH"))?;
                opts.plot = (
                    w.parse().map_err(|_| "bad plot width")?,
                    h.parse().map_err(|_| "bad plot height")?,
                );
            }
            flag if adaptive.consume(flag, &mut it)? => {}
            flag if opts.cache.consume(flag, &mut it)? => {}
            other if !all => {
                opts.ids.push(other.parse::<FigureId>()?);
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    opts.cache.reject_removed()?;
    if let Some(jobs) = jobs {
        opts.fidelity.jobs = jobs;
    }
    if let Some(shards) = shards {
        opts.fidelity.shards = shards;
    }
    // Applied after the loop: `--fidelity` resets the whole struct, so an
    // adaptive flag given before it must not be clobbered.
    if let Some(params) = adaptive.build()? {
        opts.fidelity = opts.fidelity.with_adaptive(params);
    }
    if opts.ids.is_empty() {
        return Err("no figure ids given (try `comb list`)".into());
    }
    Ok(opts)
}

fn cmd_figures(args: Vec<String>, all: bool) -> Result<(), CombError> {
    let opts = parse_figure_opts(args, all)?;
    let cache = opts.cache.build();
    let started = std::time::Instant::now();
    let reports = if let Some(params) = opts.fidelity.adaptive {
        let (reports, stats) = comb_report::run_figures_adaptive(
            &opts.ids,
            opts.fidelity,
            opts.out.as_deref(),
            cache.clone(),
            &comb_trace::Tracer::default(),
            None,
        )?;
        println!("{}", adaptive_summary(&params, &stats));
        reports
    } else {
        run_figures_cached(&opts.ids, opts.fidelity, opts.out.as_deref(), cache.clone())?
    };
    let mut failed = 0usize;
    for r in &reports {
        println!("================================================================");
        println!("{}", r.summary());
        println!("  {}", r.id.description());
        if opts.plot.0 > 0 && opts.plot.1 > 0 {
            println!();
            println!("{}", r.plot(opts.plot.0, opts.plot.1));
        }
        for c in &r.checks {
            if !c.pass {
                failed += 1;
            }
            if opts.show_checks || !c.pass {
                println!(
                    "  [{}] {} — {}",
                    if c.pass { "PASS" } else { "FAIL" },
                    c.name,
                    c.detail
                );
            }
        }
        if let Some(c) = &r.cache {
            println!(
                "  cache: {} hits, {} misses, {} joined in-flight",
                c.hits, c.misses, c.joined
            );
        }
        if let Some(p) = &r.csv_path {
            println!("  csv: {}", p.display());
        }
    }
    println!("================================================================");
    let total: usize = reports.iter().map(|r| r.checks.len()).sum();
    if let Some(cache) = &cache {
        println!("{}", cache_summary(cache));
    }
    println!(
        "{} figures, {}/{} shape checks passed, {:.1}s",
        reports.len(),
        total - failed,
        total,
        started.elapsed().as_secs_f64()
    );
    if failed > 0 {
        Err(CombError::internal(format!("{failed} shape checks failed")))
    } else {
        Ok(())
    }
}

fn cmd_report(args: Vec<String>) -> Result<(), CombError> {
    let mut fidelity = Fidelity::quick();
    let mut out: Option<PathBuf> = None;
    let mut cache_opts = CacheOpts::default();
    let mut adaptive_opts = AdaptiveOpts::default();
    let mut it = args.into_iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--paper" => fidelity = Fidelity::paper(),
            "--quick" => fidelity = Fidelity::quick(),
            "--smoke" => fidelity = Fidelity::smoke(),
            "--fidelity" => {
                fidelity = parse_fidelity(&it.next().ok_or("--fidelity needs a name")?)?
            }
            "--jobs" => fidelity.jobs = parse_jobs(it.next())?,
            "--shards" => fidelity.shards = parse_shards(it.next())?,
            "--out" => out = Some(PathBuf::from(it.next().ok_or("--out needs a file")?)),
            flag if adaptive_opts.consume(flag, &mut it)? => {}
            flag if cache_opts.consume(flag, &mut it)? => {}
            other => return Err(CombError::usage(format!("unknown option '{other}'"))),
        }
    }
    cache_opts.reject_removed()?;
    if let Some(params) = adaptive_opts.build()? {
        fidelity = fidelity.with_adaptive(params);
    }
    let cache = cache_opts.build();
    let csv_dir = std::path::Path::new("results");
    let reports = if let Some(params) = fidelity.adaptive {
        let (reports, stats) = comb_report::run_figures_adaptive(
            &FigureId::ALL,
            fidelity,
            Some(csv_dir),
            cache.clone(),
            &comb_trace::Tracer::default(),
            None,
        )?;
        eprintln!("{}", adaptive_summary(&params, &stats));
        reports
    } else {
        run_figures_cached(&FigureId::ALL, fidelity, Some(csv_dir), cache.clone())?
    };
    if let Some(c) = &cache {
        eprintln!("{}", cache_summary(c));
    }
    let md = comb_report::markdown_report(&reports);
    match out {
        Some(path) => {
            comb_trace::atomic_write_str(&path, &md)
                .map_err(|e| CombError::io(path.display(), &e))?;
            println!("wrote {}", path.display());
        }
        None => print!("{md}"),
    }
    let failed: usize = reports
        .iter()
        .map(|r| r.checks.iter().filter(|c| !c.pass).count())
        .sum();
    if failed > 0 {
        Err(CombError::internal(format!("{failed} shape checks failed")))
    } else {
        Ok(())
    }
}

fn cmd_halo(args: Vec<String>) -> Result<(), CombError> {
    let mut fidelity = Fidelity::smoke();
    let mut out = PathBuf::from("results");
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--shards" => fidelity.shards = parse_shards(it.next())?,
            "--out" => out = PathBuf::from(it.next().ok_or("--out needs a directory")?),
            other => return Err(CombError::usage(format!("unknown option '{other}'"))),
        }
    }
    let ds = comb_report::generate_halo(fidelity)?;
    println!("{}\n", ds.title);
    for s in &ds.series {
        if let Some(p) = s.points.last() {
            println!("  {:<22} {:>10.0} iters -> {:>8.2} ms", s.label, p.x, p.y);
        }
    }
    std::fs::create_dir_all(&out).map_err(|e| CombError::io(out.display(), &e))?;
    let path = ds
        .write_csv(&out)
        .map_err(|e| CombError::io(out.display(), &e))?;
    println!("\nwrote {}", path.display());
    Ok(())
}

fn parse_transport(s: &str) -> Result<Transport, String> {
    match s.to_lowercase().as_str() {
        "gm" => Ok(Transport::Gm),
        "portals" => Ok(Transport::Portals),
        "emp" => Ok(Transport::Emp),
        other => Err(format!("unknown transport '{other}'")),
    }
}

fn cmd_netperf(args: Vec<String>) -> Result<(), CombError> {
    let mut transport = Transport::Gm;
    let mut size: u64 = 100 * 1024;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--transport" => {
                transport = parse_transport(&it.next().ok_or("--transport needs a value")?)?
            }
            "--size" => {
                size = it
                    .next()
                    .ok_or("--size needs bytes")?
                    .parse()
                    .map_err(|_| "bad size")?
            }
            other => return Err(CombError::usage(format!("unknown option '{other}'"))),
        }
    }
    let cfg = comb_core::MethodConfig::new(transport, size);
    let spec = RunSpec::of(&cfg);
    let netperf = |busy_wait| NetperfParams {
        msg_bytes: size,
        total_iters: 4_000_000,
        busy_wait,
    };
    let busy = comb_core::run(&netperf(true), &spec)?.sample;
    let sleepy = comb_core::run(&netperf(false), &spec)?.sample;
    let comb = comb_core::run(&PollingParams::new(&cfg, 10_000), &spec)?.sample;
    println!(
        "methodology comparison on {} ({} B messages):",
        cfg.transport.name(),
        size
    );
    println!(
        "  netperf, busy-wait driver : availability {:.3} at {:>6.1} MB/s",
        busy.availability, busy.bandwidth_mbs
    );
    println!(
        "  netperf, select driver    : availability {:.3} at {:>6.1} MB/s",
        sleepy.availability, sleepy.bandwidth_mbs
    );
    println!(
        "  COMB polling method       : availability {:.3} at {:>6.1} MB/s",
        comb.availability, comb.bandwidth_mbs
    );
    Ok(())
}

fn cmd_latency(args: Vec<String>) -> Result<(), CombError> {
    let mut transport = Transport::Gm;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--transport" => {
                transport = parse_transport(&it.next().ok_or("--transport needs a value")?)?
            }
            other => return Err(CombError::usage(format!("unknown option '{other}'"))),
        }
    }
    let cfg = comb_core::MethodConfig::new(transport, 0);
    let sizes = [
        0u64,
        1024,
        4096,
        16 * 1024,
        64 * 1024,
        256 * 1024,
        1024 * 1024,
    ];
    let spec = RunSpec::of(&cfg);
    let rows = sizes
        .iter()
        .map(|&msg_bytes| {
            let pingpong = PingPong {
                msg_bytes,
                iterations: 50,
            };
            Ok(comb_core::run(&pingpong, &spec)?.sample)
        })
        .collect::<Result<Vec<_>, CombError>>()?;
    println!(
        "ping-pong on {} (50 round trips per size):",
        cfg.transport.name()
    );
    println!("{:>10} {:>14} {:>12}", "bytes", "half-RTT", "bandwidth");
    for r in rows {
        println!(
            "{:>10} {:>14} {:>9.1} MB/s",
            r.msg_bytes,
            r.half_rtt.to_string(),
            r.bandwidth_mbs
        );
    }
    println!();
    println!("(COMB exists because this table alone cannot tell you whether the");
    println!(" platform overlaps communication with computation — run `comb all`.)");
    Ok(())
}

fn cmd_trace(args: Vec<String>) -> Result<(), CombError> {
    let mut method = "pww".to_string();
    let mut transport = Transport::Gm;
    let mut size: u64 = 100 * 1024;
    let mut work_interval: u64 = 1_000_000;
    let mut poll_interval: u64 = 10_000;
    let mut batch: usize = 1;
    let mut cycles: u64 = 12;
    let mut queue: usize = 4;
    let mut test_in_work = false;
    let mut out = PathBuf::from("run.trace.json");
    let mut csv: Option<PathBuf> = None;
    let mut width: usize = 100;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--method" => method = it.next().ok_or("--method needs pww or polling")?,
            "--transport" => {
                transport = parse_transport(&it.next().ok_or("--transport needs a value")?)?
            }
            "--size" => {
                size = it
                    .next()
                    .ok_or("--size needs bytes")?
                    .parse()
                    .map_err(|_| "bad size")?
            }
            "--work-interval" => {
                work_interval = it
                    .next()
                    .ok_or("--work-interval needs iters")?
                    .parse()
                    .map_err(|_| "bad work interval")?
            }
            "--poll-interval" => {
                poll_interval = it
                    .next()
                    .ok_or("--poll-interval needs iters")?
                    .parse()
                    .map_err(|_| "bad poll interval")?
            }
            "--batch" => {
                batch = it
                    .next()
                    .ok_or("--batch needs n")?
                    .parse()
                    .map_err(|_| "bad batch")?
            }
            "--cycles" => {
                cycles = it
                    .next()
                    .ok_or("--cycles needs n")?
                    .parse()
                    .map_err(|_| "bad cycles")?
            }
            "--queue" => {
                queue = it
                    .next()
                    .ok_or("--queue needs n")?
                    .parse()
                    .map_err(|_| "bad queue")?
            }
            "--test-in-work" => test_in_work = true,
            "--out" => out = PathBuf::from(it.next().ok_or("--out needs a file")?),
            "--csv" => csv = Some(PathBuf::from(it.next().ok_or("--csv needs a file")?)),
            "--width" => {
                width = it
                    .next()
                    .ok_or("--width needs cols")?
                    .parse()
                    .map_err(|_| "bad width")?
            }
            other => return Err(CombError::usage(format!("unknown option '{other}'"))),
        }
    }
    require_positive(size, queue, batch, cycles)?;
    let mut cfg = MethodConfig::new(transport, size);
    cfg.batch = batch;
    cfg.cycles = cycles;
    cfg.queue_depth = queue;
    let spec = RunSpec {
        trace: true,
        ..RunSpec::of(&cfg)
    };
    let records = match method.as_str() {
        "pww" => {
            let run = comb_core::run(&PwwParams::new(&cfg, work_interval, test_in_work), &spec)?;
            println!(
                "pww on {} | {} B messages, work interval {} iters, {} cycles",
                cfg.transport.name(),
                size,
                work_interval,
                cycles
            );
            println!(
                "  bandwidth {:.1} MB/s, availability {:.3}, wait/msg {}",
                run.sample.bandwidth_mbs, run.sample.availability, run.sample.wait_per_msg
            );
            println!();
            print!("{}", comb_report::render_pww_timeline(&run.records, width));
            run.records
        }
        "polling" => {
            let run = comb_core::run(&PollingParams::new(&cfg, poll_interval), &spec)?;
            println!(
                "polling on {} | {} B messages, poll interval {} iters",
                cfg.transport.name(),
                size,
                poll_interval
            );
            println!(
                "  bandwidth {:.1} MB/s, availability {:.3}, {} messages",
                run.sample.bandwidth_mbs, run.sample.availability, run.sample.messages_received
            );
            run.records
        }
        other => return Err(CombError::usage(format!("unknown trace method '{other}'"))),
    };
    println!();
    print!(
        "{}",
        comb_trace::TraceAnalysis::from_records(&records).render()
    );
    comb_trace::atomic_write_str(&out, &comb_trace::chrome_trace_json(&records))
        .map_err(|e| CombError::io(out.display(), &e))?;
    println!();
    println!(
        "trace: {} (load in ui.perfetto.dev or chrome://tracing)",
        out.display()
    );
    if let Some(path) = csv {
        comb_trace::atomic_write_str(&path, &comb_trace::csv_export(&records))
            .map_err(|e| CombError::io(path.display(), &e))?;
        println!("csv:   {}", path.display());
    }
    Ok(())
}

/// `comb serve` rejects a zero message size, queue depth, batch or cycle
/// count in a sweep request, and `sweep` and `trace` reject them the same
/// way: a zero batch or cycle count would divide by zero inside the run.
fn require_positive(size: u64, queue: usize, batch: usize, cycles: u64) -> Result<(), CombError> {
    let knobs = [
        ("--size", size),
        ("--queue", queue as u64),
        ("--batch", batch as u64),
        ("--cycles", cycles),
    ];
    match knobs.into_iter().find(|&(_, v)| v == 0) {
        Some((flag, _)) => Err(CombError::usage(format!("{flag} must be >= 1"))),
        None => Ok(()),
    }
}

fn cmd_sweep(args: Vec<String>) -> Result<(), CombError> {
    // The method is optional: `comb sweep --fault ...` defaults to polling.
    let mut args = args;
    let method = match args.first() {
        Some(a) if !a.starts_with('-') => args.remove(0),
        _ => "polling".to_string(),
    };
    let mut it = args.into_iter().peekable();
    let mut transport = Transport::Gm;
    let mut size: u64 = 100 * 1024;
    let mut queue: usize = 4;
    let mut batch: usize = 1;
    let mut cycles: u64 = 12;
    let mut jobs: usize = 0;
    let mut shards: usize = 0;
    let mut test_in_work = false;
    let mut range = (1_000u64, 100_000_000u64, 2u32);
    let mut fault_specs: Vec<String> = Vec::new();
    let mut fault_seed: Option<u64> = None;
    let mut trace_path: Option<PathBuf> = None;
    let mut cache_opts = CacheOpts::default();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--transport" => {
                transport = parse_transport(&it.next().ok_or("--transport needs a value")?)?
            }
            "--size" => {
                size = it
                    .next()
                    .ok_or("--size needs bytes")?
                    .parse()
                    .map_err(|_| "bad size")?
            }
            "--queue" => {
                queue = it
                    .next()
                    .ok_or("--queue needs n")?
                    .parse()
                    .map_err(|_| "bad queue")?
            }
            "--batch" => {
                batch = it
                    .next()
                    .ok_or("--batch needs n")?
                    .parse()
                    .map_err(|_| "bad batch")?
            }
            "--cycles" => {
                cycles = it
                    .next()
                    .ok_or("--cycles needs n")?
                    .parse()
                    .map_err(|_| "bad cycles")?
            }
            "--jobs" => jobs = parse_jobs(it.next())?,
            "--shards" => shards = parse_shards(it.next())?,
            "--test-in-work" => test_in_work = true,
            "--fault" => fault_specs.push(it.next().ok_or("--fault needs a spec")?),
            "--trace" => trace_path = Some(PathBuf::from(it.next().ok_or("--trace needs a file")?)),
            "--fault-seed" => {
                fault_seed = Some(
                    it.next()
                        .ok_or("--fault-seed needs n")?
                        .parse()
                        .map_err(|_| "bad fault seed")?,
                )
            }
            "--range" => {
                let spec = it.next().ok_or("--range needs lo:hi[:per_decade]")?;
                let parts: Vec<&str> = spec.split(':').collect();
                if parts.len() < 2 || parts.len() > 3 {
                    return Err(CombError::usage(format!("bad --range '{spec}'")));
                }
                range.0 = parts[0].parse().map_err(|_| "bad range lo")?;
                range.1 = parts[1].parse().map_err(|_| "bad range hi")?;
                if let Some(pd) = parts.get(2) {
                    range.2 = pd.parse().map_err(|_| "bad range per_decade")?;
                }
                if range.0 < 1 || range.1 < range.0 || range.2 < 1 {
                    return Err("range needs 1 <= lo <= hi and per_decade >= 1".into());
                }
            }
            flag if cache_opts.consume(flag, &mut it)? => {}
            other => return Err(CombError::usage(format!("unknown option '{other}'"))),
        }
    }
    cache_opts.reject_removed()?;
    require_positive(size, queue, batch, cycles)?;
    let fault = FaultPlan::from_specs(&fault_specs, fault_seed)?;
    let mut cfg = MethodConfig::new(transport, size);
    cfg.queue_depth = queue;
    cfg.batch = batch;
    cfg.cycles = cycles;
    cfg.jobs = jobs;
    cfg.shards = shards;
    cfg.fault = fault.clone();
    // The cache only backs plain sweeps: traced runs capture records the
    // cache cannot restore.
    let cache = if trace_path.is_none() {
        cache_opts.build()
    } else {
        None
    };
    let method = match method.as_str() {
        "polling" => CellMethod::Polling,
        "pww" => CellMethod::Pww { test_in_work },
        other => return Err(CombError::usage(format!("unknown sweep method '{other}'"))),
    };
    let xs = log_spaced(range.0, range.1, range.2);
    // Run the sweep once. With --trace every point is traced — the
    // samples are identical to an untraced sweep's — and lands in its own
    // pid group of one Chrome trace file.
    let mut trace_json: Option<String> = None;
    let samples = if trace_path.is_some() {
        let spec = RunSpec {
            trace: true,
            ..RunSpec::of(&cfg)
        };
        let runs = run_ordered(cfg.jobs, &xs, |&x| method.run(&cfg, x, &spec))?;
        let axis = match method {
            CellMethod::Polling => "poll",
            CellMethod::Pww { .. } => "work",
        };
        let mut ct = comb_trace::ChromeTrace::new();
        for (i, (run, &x)) in runs.iter().zip(&xs).enumerate() {
            ct.add_run(&format!("{axis}={x}"), i as u32 * 2000, &run.records);
        }
        trace_json = Some(ct.finish());
        runs.into_iter().map(|r| r.sample).collect()
    } else {
        cached_sweep(cache.as_deref(), &cfg, &xs, method)?
    };
    // Faulted sweeps print CSV (with the plan in the header) so runs can be
    // diffed byte-for-byte — the acceptance mode for fault determinism.
    // The shared renderer is the same one `comb serve` uses, which is what
    // makes HTTP sweep bodies byte-identical to this stdout.
    print!("{}", comb_report::render_sweep(&cfg, method, samples));
    if let (Some(path), Some(json)) = (&trace_path, &trace_json) {
        comb_trace::atomic_write_str(path, json).map_err(|e| CombError::io(path.display(), &e))?;
        eprintln!("trace: {}", path.display());
        // Stderr so faulted-sweep CSV on stdout stays byte-diffable.
        eprintln!("{}", kernel_summary());
    }
    if let Some(c) = &cache {
        // Stderr for the same reason as the kernel summary above.
        eprintln!("{}", cache_summary(c));
    }
    Ok(())
}

/// Run a plain sweep through the cell cache: identical results to the
/// uncached sweep functions (same resolved hardware, same executors),
/// with entries shared with figure campaigns that use the same config.
fn cached_sweep(
    cache: Option<&CellCache>,
    cfg: &MethodConfig,
    xs: &[u64],
    method: CellMethod,
) -> Result<Vec<PointSample>, CombError> {
    let hw = cfg.resolved_hw();
    let shared = cache.map(|_| CampaignDesc::new(&hw, cfg));
    comb_core::run_ordered(cfg.jobs, xs, |&x| {
        let ident = shared.as_ref().map(|d| d.ident(method, x));
        let ident = ident.as_ref().map(|(desc, key)| (desc.as_str(), key));
        run_cell_cached(cache, &hw, cfg, method, x, None, ident).map(|(s, _)| s)
    })
    .map_err(CombError::from)
}

fn cmd_cache(args: Vec<String>) -> Result<(), CombError> {
    let mut it = args.into_iter();
    let sub = it
        .next()
        .ok_or_else(|| CombError::usage("cache needs a subcommand: stats, verify, gc or clear"))?;
    let mut dir: Option<PathBuf> = None;
    let mut json = false;
    let mut max_age: Option<std::time::Duration> = None;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--cache-dir" => {
                dir = Some(PathBuf::from(
                    it.next().ok_or("--cache-dir needs a directory")?,
                ))
            }
            "--json" => json = true,
            "--max-age" => {
                let days: f64 = it
                    .next()
                    .ok_or("--max-age needs a day count")?
                    .parse()
                    .map_err(|_| "bad --max-age (expected days, fractions allowed)")?;
                if !days.is_finite() || days < 0.0 {
                    return Err(CombError::usage("--max-age must be >= 0"));
                }
                max_age = Some(std::time::Duration::from_secs_f64(days * 86_400.0));
            }
            other => return Err(CombError::usage(format!("unknown option '{other}'"))),
        }
    }
    if max_age.is_some() && sub != "gc" {
        return Err(CombError::usage("--max-age only applies to `cache gc`"));
    }
    let dir = dir.or_else(default_cache_dir).ok_or_else(|| {
        CombError::usage(
            "no cache directory (pass --cache-dir or set COMB_CACHE_DIR / XDG_CACHE_HOME / HOME)",
        )
    })?;
    match sub.as_str() {
        "stats" => {
            let r = comb_core::cache::verify_store(&dir);
            if json {
                let escaped = dir
                    .display()
                    .to_string()
                    .replace('\\', "\\\\")
                    .replace('"', "\\\"");
                println!(
                    "{{\"schema\":\"comb-cache-stats-v1\",\"dir\":\"{escaped}\",\
                     \"entries\":{},\"bytes\":{},\"invalid\":{}}}",
                    r.entries, r.bytes, r.invalid
                );
            } else {
                println!(
                    "cache store {}: {} entries, {} bytes, {} invalid",
                    dir.display(),
                    r.entries,
                    r.bytes,
                    r.invalid
                );
            }
            Ok(())
        }
        "verify" => {
            let r = comb_core::cache::verify_store(&dir);
            println!(
                "verified {}: {} valid entries, {} invalid",
                dir.display(),
                r.entries,
                r.invalid
            );
            if r.invalid > 0 {
                Err(CombError::internal(format!(
                    "{} invalid cache entries (run `comb cache gc` to remove them)",
                    r.invalid
                )))
            } else {
                Ok(())
            }
        }
        "gc" => {
            let r = comb_core::gc_store_with_max_age(&dir, max_age);
            println!(
                "gc {}: kept {} entries, removed {} files ({} expired)",
                dir.display(),
                r.entries,
                r.removed,
                r.expired
            );
            Ok(())
        }
        "clear" => {
            let r = comb_core::cache::clear_store(&dir);
            println!("cleared {}: removed {} entries", dir.display(), r.removed);
            Ok(())
        }
        other => Err(CombError::usage(format!(
            "unknown cache subcommand '{other}' (expected stats, verify, gc or clear)"
        ))),
    }
}

fn cmd_serve(args: Vec<String>) -> Result<(), CombError> {
    let mut cfg = comb_serve::ServeConfig {
        addr: "127.0.0.1:8080".to_string(),
        ..comb_serve::ServeConfig::default()
    };
    let mut cache_opts = CacheOpts::default();
    let mut it = args.into_iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => cfg.addr = it.next().ok_or("--addr needs host:port")?,
            "--workers" => {
                cfg.workers = it
                    .next()
                    .ok_or("--workers needs n")?
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or("bad --workers (expected an integer >= 1)")?
            }
            "--queue" => {
                cfg.queue = it
                    .next()
                    .ok_or("--queue needs n")?
                    .parse()
                    .map_err(|_| "bad --queue")?
            }
            "--jobs" => cfg.jobs = parse_jobs(it.next())?,
            "--fidelity" => {
                cfg.fidelity = parse_fidelity(&it.next().ok_or("--fidelity needs a name")?)?
            }
            "--smoke" => cfg.fidelity = Fidelity::smoke(),
            "--quick" => cfg.fidelity = Fidelity::quick(),
            "--paper" => cfg.fidelity = Fidelity::paper(),
            "--read-timeout" => {
                let secs: f64 = it
                    .next()
                    .ok_or("--read-timeout needs seconds")?
                    .parse()
                    .map_err(|_| "bad --read-timeout")?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(CombError::usage("--read-timeout must be > 0"));
                }
                cfg.read_timeout = std::time::Duration::from_secs_f64(secs);
            }
            "--request-deadline" => {
                let secs: f64 = it
                    .next()
                    .ok_or("--request-deadline needs seconds")?
                    .parse()
                    .map_err(|_| "bad --request-deadline")?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(CombError::usage("--request-deadline must be > 0"));
                }
                cfg.request_deadline = std::time::Duration::from_secs_f64(secs);
            }
            "--shed-queue" => {
                cfg.shed_queue = it
                    .next()
                    .ok_or("--shed-queue needs n")?
                    .parse()
                    .map_err(|_| "bad --shed-queue")?
            }
            "--journal" => cache_opts.remove(Removed::Journal, &mut it),
            "--net-fault" => {
                let spec = it.next().ok_or("--net-fault needs KEY=VALUE")?;
                cfg.net_fault.parse_spec(&spec).map_err(CombError::usage)?;
            }
            "--breaker" => {
                let v = it.next().ok_or("--breaker needs THRESHOLD:COOLDOWN_SECS")?;
                let (t, c) = v
                    .split_once(':')
                    .ok_or("--breaker needs THRESHOLD:COOLDOWN_SECS")?;
                cfg.breaker_threshold = t
                    .parse::<u32>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or("bad --breaker threshold (integer >= 1)")?;
                let secs: f64 = c.parse().map_err(|_| "bad --breaker cooldown")?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(CombError::usage("--breaker cooldown must be > 0"));
                }
                cfg.breaker_cooldown = std::time::Duration::from_secs_f64(secs);
            }
            "--quarantine" => {
                cfg.quarantine_threshold = it
                    .next()
                    .ok_or("--quarantine needs n")?
                    .parse::<u32>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or("bad --quarantine (integer >= 1)")?
            }
            flag if cache_opts.consume(flag, &mut it)? => {}
            other => return Err(CombError::usage(format!("unknown option '{other}'"))),
        }
    }
    cache_opts.reject_removed()?;
    cfg.cache = cache_opts.build();
    if !cfg.net_fault.is_none() {
        println!("serve: net-fault {}", cfg.net_fault);
    }
    let server = comb_serve::Server::bind(cfg)?;
    // The parseable line CI and loopback tests anchor on. Stdout is
    // line-buffered, so this is visible even when redirected to a file.
    println!("serve: listening on {}", server.local_addr());
    server.run()
}

/// One-line simulation-kernel counter summary (process-wide totals).
fn kernel_summary() -> String {
    let k = KernelStats::global();
    format!(
        "kernel: {} events fired / {} scheduled ({} cancelled, {} zero-delay, \
         {} boxed closures, arena high-water {})",
        k.fired, k.scheduled, k.cancelled, k.lane_scheduled, k.boxed_calls, k.arena_high_water
    )
}

fn cmd_soak(args: Vec<String>) -> Result<(), CombError> {
    let mut config = comb_report::SoakConfig::default();
    let mut manifest = PathBuf::from("soak-failures.json");
    let mut manifest_requested = false;
    let mut serve_mode = false;
    let mut serve_requests: Option<usize> = None;
    let mut serve_clients: Option<usize> = None;
    let mut fuzz_iters: Option<usize> = None;
    let mut net_fault_specs: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--serve" => serve_mode = true,
            "--requests" => {
                serve_requests = Some(
                    it.next()
                        .ok_or("--requests needs n")?
                        .parse()
                        .map_err(|_| "bad --requests")?,
                )
            }
            "--clients" => {
                serve_clients = Some(
                    it.next()
                        .ok_or("--clients needs n")?
                        .parse()
                        .map_err(|_| "bad --clients")?,
                )
            }
            "--fuzz-iters" => {
                fuzz_iters = Some(
                    it.next()
                        .ok_or("--fuzz-iters needs n")?
                        .parse()
                        .map_err(|_| "bad --fuzz-iters")?,
                )
            }
            "--net-fault" => net_fault_specs.push(it.next().ok_or("--net-fault needs KEY=VALUE")?),
            "--iters" => {
                config.iters = it
                    .next()
                    .ok_or("--iters needs n")?
                    .parse()
                    .map_err(|_| "bad --iters")?
            }
            "--start" => {
                config.start = it
                    .next()
                    .ok_or("--start needs n")?
                    .parse()
                    .map_err(|_| "bad --start")?
            }
            "--fault-seed" => {
                config.fault_seed = it
                    .next()
                    .ok_or("--fault-seed needs n")?
                    .parse()
                    .map_err(|_| "bad --fault-seed")?
            }
            "--jobs" => config.jobs = parse_jobs(it.next())?,
            "--attempts" => {
                config.max_attempts = it
                    .next()
                    .ok_or("--attempts needs n")?
                    .parse()
                    .map_err(|_| "bad --attempts")?
            }
            "--manifest" => {
                manifest = PathBuf::from(it.next().ok_or("--manifest needs a file")?);
                manifest_requested = true;
            }
            other => return Err(CombError::usage(format!("unknown option '{other}'"))),
        }
    }
    if serve_mode {
        return cmd_soak_serve(
            config.fault_seed,
            serve_requests,
            serve_clients,
            fuzz_iters,
            &net_fault_specs,
        );
    }
    if serve_requests.is_some()
        || serve_clients.is_some()
        || fuzz_iters.is_some()
        || !net_fault_specs.is_empty()
    {
        return Err(CombError::usage(
            "--requests/--clients/--fuzz-iters/--net-fault only apply with --serve",
        ));
    }
    println!(
        "soak: {} scenarios from index {} (seed {}), {} attempt(s) each",
        config.iters, config.start, config.fault_seed, config.max_attempts
    );
    let started = std::time::Instant::now();
    let report = comb_report::run_soak(&config);
    println!(
        "soak: {} passed ({} after retry), {} failed, {:.1}s",
        report.passed,
        report.retried,
        report.failures.len(),
        started.elapsed().as_secs_f64()
    );
    println!("{}", kernel_summary());
    for f in &report.failures {
        println!("  iter {:>4} [{}] {}", f.iter, f.kind, f.scenario);
        println!("    repro: {}", f.repro);
    }
    // The manifest is written whenever something failed (or on explicit
    // request), atomically, so CI can collect it as an artifact.
    if !report.all_pass() || manifest_requested {
        report.write_manifest(&manifest)?;
        println!("manifest: {}", manifest.display());
    }
    if report.all_pass() {
        Ok(())
    } else {
        Err(CombError::internal(format!(
            "{} of {} soak iterations failed (manifest: {})",
            report.failures.len(),
            config.iters,
            manifest.display()
        )))
    }
}

/// `comb soak --serve`: the serve chaos soak (seeded transport-fault
/// client storm against a live server) followed by the protocol fuzz
/// harness, both deterministic from `--fault-seed`.
fn cmd_soak_serve(
    seed: u64,
    requests: Option<usize>,
    clients: Option<usize>,
    fuzz_iters: Option<usize>,
    net_fault_specs: &[String],
) -> Result<(), CombError> {
    let mut cfg = comb_serve::ServeSoakConfig::storm(seed);
    if let Some(r) = requests {
        cfg.requests = r;
    }
    if let Some(c) = clients {
        cfg.clients = c.max(1);
    }
    if !net_fault_specs.is_empty() {
        cfg.fault = comb_serve::NetFaultPlan::from_specs(net_fault_specs, Some(seed))
            .map_err(CombError::usage)?;
    }
    println!(
        "soak: serve chaos, {} requests over {} clients (seed {}), net-fault {}",
        cfg.requests, cfg.clients, seed, cfg.fault
    );
    let started = std::time::Instant::now();
    let report = comb_serve::run_serve_soak(&cfg)?;
    println!("{}", report.summary());

    let fuzz_cfg = comb_serve::FuzzConfig {
        seed,
        iters: fuzz_iters.unwrap_or(10_000) as u64,
    };
    let fuzz = comb_serve::run_fuzz(fuzz_cfg);
    println!("{}", fuzz.summary());
    println!(
        "soak: serve chaos + fuzz done in {:.1}s",
        started.elapsed().as_secs_f64()
    );

    if report.passed() && fuzz.passed() {
        Ok(())
    } else {
        Err(CombError::internal(format!(
            "serve soak failed (soak pass={}, fuzz failures={})",
            report.passed(),
            fuzz.failures.len()
        )))
    }
}

fn cmd_degrade(args: Vec<String>) -> Result<(), CombError> {
    let mut fidelity = Fidelity::quick();
    let mut out: Option<PathBuf> = Some(PathBuf::from("results"));
    let mut plot = (72usize, 20usize);
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--paper" => fidelity = Fidelity::paper(),
            "--quick" => fidelity = Fidelity::quick(),
            "--smoke" => fidelity = Fidelity::smoke(),
            "--fidelity" => {
                fidelity = parse_fidelity(&it.next().ok_or("--fidelity needs a name")?)?
            }
            "--jobs" => fidelity.jobs = parse_jobs(it.next())?,
            "--shards" => fidelity.shards = parse_shards(it.next())?,
            "--out" => out = Some(PathBuf::from(it.next().ok_or("--out needs a directory")?)),
            "--no-csv" => out = None,
            "--plot" => {
                let spec = it.next().ok_or("--plot needs WxH")?;
                let (w, h) = spec
                    .split_once('x')
                    .ok_or_else(|| format!("bad --plot '{spec}', expected WxH"))?;
                plot = (
                    w.parse().map_err(|_| "bad plot width")?,
                    h.parse().map_err(|_| "bad plot height")?,
                );
            }
            other => return Err(CombError::usage(format!("unknown option '{other}'"))),
        }
    }
    let figs = generate_degradation(fidelity)?;
    for ds in &figs {
        println!("================================================================");
        println!("{}: {}", ds.id, ds.title);
        if plot.0 > 0 && plot.1 > 0 {
            println!();
            println!("{}", comb_report::ascii::render(ds, plot.0, plot.1));
        }
        if let Some(dir) = &out {
            let path = ds
                .write_csv(dir)
                .map_err(|e| CombError::io(dir.display(), &e))?;
            println!("  csv: {}", path.display());
        }
    }
    println!("================================================================");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_opts_defaults_and_flags() {
        let opts = parse_figure_opts(
            vec!["fig08".into(), "--paper".into(), "--no-csv".into()],
            false,
        )
        .unwrap();
        assert_eq!(opts.ids, vec![FigureId::Fig08]);
        assert_eq!(opts.fidelity, Fidelity::paper());
        assert!(opts.out.is_none());
        assert!(!opts.show_checks);
    }

    #[test]
    fn all_mode_rejects_positional_ids_but_takes_flags() {
        assert!(parse_figure_opts(vec!["fig08".into()], true).is_err());
        let opts = parse_figure_opts(vec!["--plot".into(), "100x30".into()], true).unwrap();
        assert_eq!(opts.ids.len(), 14);
        assert_eq!(opts.plot, (100, 30));
    }

    #[test]
    fn jobs_and_fidelity_flags_parse() {
        let opts = parse_figure_opts(
            vec![
                "--fidelity".into(),
                "smoke".into(),
                "--jobs".into(),
                "3".into(),
            ],
            true,
        )
        .unwrap();
        assert_eq!(opts.fidelity, Fidelity::smoke().with_jobs(3));
        let opts = parse_figure_opts(vec!["fig08".into(), "--smoke".into()], false).unwrap();
        assert_eq!(opts.fidelity, Fidelity::smoke());
        assert_eq!(opts.fidelity.jobs, 0, "default is auto");
        assert!(parse_figure_opts(vec!["--jobs".into(), "-1".into()], true).is_err());
        assert!(parse_figure_opts(vec!["--fidelity".into(), "warp".into()], true).is_err());
    }

    #[test]
    fn adaptive_flags_enable_replicate_campaigns() {
        let opts = parse_figure_opts(
            vec![
                "--replicates".into(),
                "6".into(),
                "--ci-target".into(),
                "0.1".into(),
                "--perturb-seed".into(),
                "99".into(),
            ],
            true,
        )
        .unwrap();
        let params = opts.fidelity.adaptive.expect("adaptive enabled");
        assert_eq!(params.replicates, 6);
        assert_eq!(params.ci_target, 0.1);
        assert_eq!(params.perturb_seed, 99);
        // Flag order does not matter: `--fidelity` after `--replicates`
        // must not clobber the adaptive knobs.
        let opts = parse_figure_opts(
            vec![
                "--replicates".into(),
                "3".into(),
                "--fidelity".into(),
                "smoke".into(),
            ],
            true,
        )
        .unwrap();
        assert_eq!(opts.fidelity.adaptive.map(|a| a.replicates), Some(3));
        // Defaults flow from AdaptiveParams::new.
        let opts = parse_figure_opts(vec!["--replicates".into(), "4".into()], true).unwrap();
        assert_eq!(
            opts.fidelity.adaptive,
            Some(AdaptiveParams::new(4)),
            "unrefined flags take the stock target and seed"
        );
        assert!(parse_figure_opts(vec!["--replicates".into(), "0".into()], true).is_err());
        assert!(parse_figure_opts(vec!["--ci-target".into(), "0.1".into()], true).is_err());
        assert!(parse_figure_opts(vec!["--perturb-seed".into(), "7".into()], true).is_err());
        assert!(
            parse_figure_opts(
                vec![
                    "--replicates".into(),
                    "2".into(),
                    "--ci-target".into(),
                    "nan".into()
                ],
                true
            )
            .is_err(),
            "non-finite targets are rejected at the parser"
        );
    }

    #[test]
    fn adaptive_summary_reports_savings() {
        let params = AdaptiveParams::new(5);
        let stats = AdaptiveStats {
            cells: 4,
            replicates: 11,
            converged: 3,
            capped: 1,
        };
        let line = adaptive_summary(&params, &stats);
        assert!(line.contains("4 cells, 11 replicates"), "{line}");
        assert!(line.contains("would run 20 (saved 9)"), "{line}");
    }

    #[test]
    fn bad_inputs_are_reported() {
        assert!(parse_figure_opts(vec!["fig03".into()], false).is_err());
        assert!(parse_figure_opts(vec![], false).is_err());
        assert!(parse_figure_opts(vec!["--plot".into(), "banana".into()], true).is_err());
        assert!(parse_transport("quadrics").is_err());
        assert!(parse_transport("GM").is_ok());
    }

    #[test]
    fn unknown_commands_error() {
        assert!(run(vec!["frobnicate".into()]).is_err());
        assert!(run(vec![]).is_err());
        assert!(run(vec!["list".into()]).is_ok());
        assert!(run(vec!["info".into()]).is_ok());
    }
}
