//! `comb` — command-line front end for the COMB reproduction.
//!
//! Regenerates any (or every) data figure of the paper on the simulated
//! GM and Portals platforms, prints ASCII plots, writes CSVs, runs the
//! qualitative shape checks, and exposes raw sweeps for ad-hoc experiments.
//!
//! Exit codes follow a fixed contract (see `--help`): 0 success,
//! 1 usage error, 2 run failure, 3 watchdog abort.
//!
//! Every option of every command is a row of one table, [`OPTIONS`], and
//! [`Opts::parse`] reads the whole command line, environment fallbacks
//! included, into one typed [`Opts`] before any work runs. The library
//! reads no environment: it takes the values resolved here.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use comb_core::{
    log_spaced, run_cell_cached, run_ordered, AdaptiveParams, AdaptiveStats, CacheMode,
    CampaignDesc, CellCache, CellMethod, CombError, ErrorKind, MethodConfig, NetperfParams,
    PingPong, PointSample, PollingParams, PwwParams, RunSpec, Transport,
};
use comb_report::{
    generate_degradation, run_figures_cached, Fidelity, FigureId, FigureReport, SoakConfig,
};
use comb_serve::{NetFaultPlan, ServeConfig};
use comb_sim::KernelStats;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;
use std::time::{Duration, Instant};
use Arity::{Gone, Switch, Value};
use Cmd::*;

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
    comb netperf [--transport T] [--size N] [--shards N]
                                           compare COMB vs netperf methodology
    comb latency [--transport T] [--shards N]
                                           classic ping-pong latency table
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

ENVIRONMENT:
    Each variable is the default of one option, read only by the commands
    that take that option; the flag, when given, wins. A value that does
    not parse is a usage error that names the variable.
    COMB_JOBS       --jobs: figure, all, report, sweep, soak, degrade, serve
    COMB_SHARDS     --shards: figure, all, report, sweep, degrade, halo,
                    netperf, latency, trace
    COMB_CACHE_DIR  --cache-dir: figure, all, report, sweep, cache, serve;
                    when unset, $XDG_CACHE_HOME/comb, else $HOME/.cache/comb

OPTIONS (figure/all/report):
    --fidelity <f>     sweep density: smoke | quick | paper (default: quick)
    --paper            shorthand for --fidelity paper
    --smoke            shorthand for --fidelity smoke
    --jobs <n>         worker threads for campaign execution (default:
                       $COMB_JOBS, else 0 = all cores; results are
                       byte-identical for any value)
    --shards <n>       kernel shards per simulation: each point's event
                       kernel runs on <n> conservatively synchronized
                       shards (default: $COMB_SHARDS, else 0 = 1 = the
                       serial kernel). CSVs, traces and cache keys are
                       byte-identical for any value — the epoch merge
                       reproduces the serial event order exactly
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
    --jobs <n>                     worker threads (default: $COMB_JOBS, else
                                   all cores)
    --shards <n>                   kernel shards per point (default:
                                   $COMB_SHARDS, else 1; byte-identical output)
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
    --jobs <n>                     worker threads (default: $COMB_JOBS, else
                                   all cores)
    --attempts <n>                 attempts per scenario, >= 1; retryable
                                   failures retry with a reseeded fault plan
                                   (default 2)
    --manifest <file>              failure manifest path
                                   (default soak-failures.json)
    --serve                        serve chaos mode instead: a seeded
                                   transport-fault client storm against a
                                   live server, then the protocol fuzz
                                   harness; exits non-zero if either the
                                   robustness contract or a fuzz case fails
    --requests <n> (serve)         storm size (default 500)
    --clients <n> (serve)          concurrent storm clients, >= 1 (default 8)
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
    --shards <n>                   tracing runs on the serial kernel: more
                                   than one shard (by flag or $COMB_SHARDS)
                                   is a usage error

OPTIONS (degrade):
    --fidelity <f> | --smoke | --paper     sweep density (default: quick)
    --jobs <n>                             worker threads (default: auto)
    --shards <n>                           kernel shards (default: serial)
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
    --jobs <n>                     pool width per sweep or figure request
                                   (default: $COMB_JOBS, else all cores)
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

/// Every command, with the name it is invoked by.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Cmd {
    List,
    Info,
    Figure,
    All,
    Report,
    Sweep,
    Soak,
    Degrade,
    Halo,
    Netperf,
    Latency,
    Trace,
    Cache,
    Serve,
}

const COMMANDS: [(&str, Cmd); 14] = [
    ("list", List),
    ("info", Info),
    ("figure", Figure),
    ("all", All),
    ("report", Report),
    ("sweep", Sweep),
    ("soak", Soak),
    ("degrade", Degrade),
    ("halo", Halo),
    ("netperf", Netperf),
    ("latency", Latency),
    ("trace", Trace),
    ("cache", Cache),
    ("serve", Serve),
];

/// How an option takes its value, and what it does with it.
#[derive(Clone, Copy)]
enum Arity {
    /// A switch: no value.
    Switch(fn(&mut Opts)),
    /// One value, the next argument: parsed and range-checked into
    /// [`Opts`], or a message saying what was expected.
    Value(fn(&mut Opts, &str) -> Result<(), String>),
    /// A removed flag. It skips the value it used to take, if one follows;
    /// its error waits for the whole list (see [`removed_error`]).
    Gone(Removed),
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

/// One row of the option table.
struct Opt {
    name: &'static str,
    /// The commands that take the option.
    cmds: &'static [Cmd],
    arity: Arity,
    /// The environment fallback: the first of these variables set to a
    /// non-empty value, with its path suffix joined on, is parsed as if it
    /// came ahead of the arguments, so the flag wins.
    env: &'static [(&'static str, &'static str)],
}

const fn opt(name: &'static str, cmds: &'static [Cmd], arity: Arity) -> Opt {
    Opt {
        name,
        cmds,
        arity,
        env: &[],
    }
}

const PRESET: &[Cmd] = &[Figure, All, Report, Degrade, Serve];
const JOBS: &[Cmd] = &[Figure, All, Report, Sweep, Soak, Degrade, Serve];
const SHARDS: &[Cmd] = &[
    Figure, All, Report, Sweep, Degrade, Halo, Netperf, Latency, Trace,
];
const FIGURES: &[Cmd] = &[Figure, All, Report];
const CACHED: &[Cmd] = &[Figure, All, Report, Sweep, Serve];
const CACHE_DIR: &[Cmd] = &[Figure, All, Report, Sweep, Cache, Serve];
const OUT: &[Cmd] = &[Figure, All, Report, Degrade, Halo, Trace];
const PLOTS: &[Cmd] = &[Figure, All, Degrade];
const POINT: &[Cmd] = &[Sweep, Trace];
const METHOD: &[Cmd] = &[Sweep, Trace, Netperf, Latency];

/// Every option of every command, one row each (an option whose meaning
/// differs between commands, such as `--queue`, has one row per meaning).
#[rustfmt::skip]
const OPTIONS: &[Opt] = &[
    opt("--fidelity", PRESET, Value(|o, v| set(&mut o.fidelity, fidelity(v)?))),
    opt("--smoke", PRESET, Switch(|o| o.fidelity = Fidelity::smoke())),
    opt("--quick", PRESET, Switch(|o| o.fidelity = Fidelity::quick())),
    opt("--paper", PRESET, Switch(|o| o.fidelity = Fidelity::paper())),
    Opt { env: &[("COMB_JOBS", "")], ..opt("--jobs", JOBS, Value(|o, v| set(&mut o.jobs, int(v)?))) },
    Opt { env: &[("COMB_SHARDS", "")], ..opt("--shards", SHARDS, Value(|o, v| set(&mut o.shards, int(v)?))) },
    opt("--out", OUT, Value(|o, v| set(&mut o.out, Some(v.into())))),
    opt("--no-csv", PLOTS, Switch(|o| o.out = None)),
    opt("--checks", &[Figure, All], Switch(|o| o.checks = true)),
    opt("--plot", PLOTS, Value(|o, v| set(&mut o.plot, plot(v)?))),
    opt("--replicates", FIGURES, Value(|o, v| set(&mut o.replicates, Some(at_least_one(v)?)))),
    opt("--ci-target", FIGURES, Value(|o, v| set(&mut o.ci_target, Some(ci_target(v)?)))),
    opt("--perturb-seed", FIGURES, Value(|o, v| set(&mut o.perturb_seed, Some(int(v)?)))),
    opt("--no-cache", CACHED, Switch(|o| o.no_cache = true)),
    opt("--cache-refresh", CACHED, Switch(|o| o.cache_refresh = true)),
    Opt {
        env: &[("COMB_CACHE_DIR", ""), ("XDG_CACHE_HOME", "comb"), ("HOME", ".cache/comb")],
        ..opt("--cache-dir", CACHE_DIR, Value(|o, v| set(&mut o.cache_dir, Some(v.into()))))
    },
    opt("--resume", CACHED, Gone(Removed::Resume)),
    opt("--journal", &[Serve], Gone(Removed::Journal)),
    opt("--transport", METHOD, Value(|o, v| set(&mut o.cfg.transport, transport(v)?))),
    opt("--size", &[Sweep, Trace, Netperf], Value(|o, v| set(&mut o.cfg.msg_bytes, int(v)?))),
    opt("--queue", POINT, Value(|o, v| set(&mut o.cfg.queue_depth, int(v)?))),
    opt("--batch", POINT, Value(|o, v| set(&mut o.cfg.batch, int(v)?))),
    opt("--cycles", POINT, Value(|o, v| set(&mut o.cfg.cycles, int(v)?))),
    opt("--test-in-work", POINT, Switch(|o| o.test_in_work = true)),
    opt("--range", &[Sweep], Value(|o, v| set(&mut o.range, range(v)?))),
    opt("--fault", &[Sweep], Value(|o, v| o.cfg.fault.parse_spec(v))),
    opt("--fault-seed", &[Sweep, Soak], Value(|o, v| set(&mut o.fault_seed, Some(int(v)?)))),
    opt("--trace", &[Sweep], Value(|o, v| set(&mut o.trace, Some(v.into())))),
    opt("--method", &[Trace], Value(|o, v| set(&mut o.method, Some(v.into())))),
    opt("--work-interval", &[Trace], Value(|o, v| set(&mut o.work_interval, int(v)?))),
    opt("--poll-interval", &[Trace], Value(|o, v| set(&mut o.poll_interval, int(v)?))),
    opt("--csv", &[Trace], Value(|o, v| set(&mut o.csv, Some(v.into())))),
    opt("--width", &[Trace], Value(|o, v| set(&mut o.width, int(v)?))),
    opt("--json", &[Cache], Switch(|o| o.json = true)),
    opt("--max-age", &[Cache], Value(|o, v| set(&mut o.max_age, Some(days(v)?)))),
    opt("--addr", &[Serve], Value(|o, v| set(&mut o.serve.addr, v.into()))),
    opt("--workers", &[Serve], Value(|o, v| set(&mut o.serve.workers, at_least_one(v)?))),
    opt("--queue", &[Serve], Value(|o, v| set(&mut o.serve.queue, int(v)?))),
    opt("--read-timeout", &[Serve], Value(|o, v| set(&mut o.serve.read_timeout, secs(v)?))),
    opt("--request-deadline", &[Serve], Value(|o, v| set(&mut o.serve.request_deadline, secs(v)?))),
    opt("--shed-queue", &[Serve], Value(|o, v| set(&mut o.serve.shed_queue, int(v)?))),
    opt("--breaker", &[Serve], Value(|o, v| breaker(&mut o.serve, v))),
    opt("--quarantine", &[Serve], Value(|o, v| set(&mut o.serve.quarantine_threshold, at_least_one(v)?))),
    opt("--net-fault", &[Serve, Soak], Value(|o, v| set_push(&mut o.net_faults, v))),
    opt("--iters", &[Soak], Value(|o, v| set(&mut o.soak.iters, int(v)?))),
    opt("--start", &[Soak], Value(|o, v| set(&mut o.soak.start, int(v)?))),
    opt("--attempts", &[Soak], Value(|o, v| set(&mut o.soak.max_attempts, at_least_one(v)?))),
    opt("--manifest", &[Soak], Value(|o, v| set(&mut o.manifest, Some(v.into())))),
    opt("--serve", &[Soak], Switch(|o| o.soak_serve = true)),
    opt("--requests", &[Soak], Value(|o, v| set(&mut o.requests, Some(int(v)?)))),
    opt("--clients", &[Soak], Value(|o, v| set(&mut o.clients, Some(at_least_one(v)?)))),
    opt("--fuzz-iters", &[Soak], Value(|o, v| set(&mut o.fuzz_iters, Some(int(v)?)))),
];

fn set<T>(slot: &mut T, value: T) -> Result<(), String> {
    *slot = value;
    Ok(())
}

fn set_push(list: &mut Vec<String>, value: &str) -> Result<(), String> {
    list.push(value.to_string());
    Ok(())
}

fn int<T: FromStr>(v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| "expected a non-negative integer".to_string())
}

fn at_least_one<T: FromStr + PartialOrd + From<u8>>(v: &str) -> Result<T, String> {
    let n: T = int(v)?;
    if n >= T::from(1) {
        Ok(n)
    } else {
        Err("must be >= 1".into())
    }
}

/// A finite number that satisfies `ok`, or `expected`.
fn number(v: &str, ok: fn(f64) -> bool, expected: &str) -> Result<f64, String> {
    match v.parse::<f64>() {
        Ok(x) if x.is_finite() && ok(x) => Ok(x),
        _ => Err(format!("expected {expected}")),
    }
}

fn secs(v: &str) -> Result<Duration, String> {
    number(v, |s| s > 0.0, "seconds > 0").map(Duration::from_secs_f64)
}

fn days(v: &str) -> Result<Duration, String> {
    number(v, |d| d >= 0.0, "days >= 0, fractions allowed")
        .map(|d| Duration::from_secs_f64(d * 86_400.0))
}

/// Non-finite targets would also poison `AdaptiveParams` equality.
fn ci_target(v: &str) -> Result<f64, String> {
    number(v, |t| t >= 0.0, "a finite non-negative fraction like 0.02")
}

fn fidelity(name: &str) -> Result<Fidelity, String> {
    match name.to_lowercase().as_str() {
        "smoke" => Ok(Fidelity::smoke()),
        "quick" => Ok(Fidelity::quick()),
        "paper" => Ok(Fidelity::paper()),
        _ => Err("expected smoke, quick or paper".into()),
    }
}

fn transport(s: &str) -> Result<Transport, String> {
    match s.to_lowercase().as_str() {
        "gm" => Ok(Transport::Gm),
        "portals" => Ok(Transport::Portals),
        "emp" => Ok(Transport::Emp),
        _ => Err("expected gm, portals or emp".into()),
    }
}

fn plot(spec: &str) -> Result<(usize, usize), String> {
    let (w, h) = spec.split_once('x').ok_or("expected WxH")?;
    Ok((int(w)?, int(h)?))
}

fn range(spec: &str) -> Result<(u64, u64, u32), String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let (lo, hi, per_decade) = match parts[..] {
        [lo, hi] => (int(lo)?, int(hi)?, 2),
        [lo, hi, pd] => (int(lo)?, int(hi)?, int(pd)?),
        _ => return Err("expected lo:hi[:per_decade]".into()),
    };
    if lo < 1 || hi < lo || per_decade < 1 {
        return Err("range needs 1 <= lo <= hi and per_decade >= 1".into());
    }
    Ok((lo, hi, per_decade))
}

fn breaker(cfg: &mut ServeConfig, v: &str) -> Result<(), String> {
    let (n, cooldown) = v
        .split_once(':')
        .ok_or("expected THRESHOLD:COOLDOWN_SECS")?;
    cfg.breaker_threshold = at_least_one(n)?;
    cfg.breaker_cooldown = secs(cooldown)?;
    Ok(())
}

/// A whole command line, parsed and checked. Fields a command does not
/// take keep their defaults.
struct Opts {
    cmd: Cmd,
    /// `figure`'s positional ids (every id for `all`).
    ids: Vec<FigureId>,
    /// `sweep`'s positional method, or `trace --method`.
    method: Option<String>,
    /// `cache`'s positional subcommand.
    sub: Option<String>,
    /// The preset; jobs, shards and adaptive sampling are composed into it
    /// once the whole list is parsed, so flag order cannot lose them.
    fidelity: Fidelity,
    jobs: usize,
    shards: usize,
    replicates: Option<u32>,
    ci_target: Option<f64>,
    perturb_seed: Option<u64>,
    out: Option<PathBuf>,
    plot: (usize, usize),
    checks: bool,
    no_cache: bool,
    cache_refresh: bool,
    cache_dir: Option<PathBuf>,
    /// The first removed flag given.
    removed: Option<Removed>,
    /// One point's or sweep's method knobs (`sweep`, `trace`, `netperf`,
    /// `latency`).
    cfg: MethodConfig,
    test_in_work: bool,
    range: (u64, u64, u32),
    fault_seed: Option<u64>,
    trace: Option<PathBuf>,
    work_interval: u64,
    poll_interval: u64,
    csv: Option<PathBuf>,
    width: usize,
    json: bool,
    max_age: Option<Duration>,
    serve: ServeConfig,
    soak: SoakConfig,
    /// `soak --serve` and its storm knobs.
    soak_serve: bool,
    requests: Option<usize>,
    clients: Option<usize>,
    fuzz_iters: Option<usize>,
    net_faults: Vec<String>,
    manifest: Option<PathBuf>,
}

impl Opts {
    fn new(cmd: Cmd) -> Opts {
        Opts {
            cmd,
            ids: if cmd == All {
                FigureId::ALL.to_vec()
            } else {
                vec![]
            },
            method: None,
            sub: None,
            fidelity: if cmd == Halo {
                Fidelity::smoke()
            } else {
                Fidelity::quick()
            },
            jobs: 0,
            shards: 0,
            replicates: None,
            ci_target: None,
            perturb_seed: None,
            out: match cmd {
                Report => None,
                Trace => Some("run.trace.json".into()),
                _ => Some("results".into()),
            },
            plot: (72, 20),
            checks: false,
            no_cache: false,
            cache_refresh: false,
            cache_dir: None,
            removed: None,
            cfg: MethodConfig::new(Transport::Gm, 100 * 1024),
            test_in_work: false,
            range: (1_000, 100_000_000, 2),
            fault_seed: None,
            trace: None,
            work_interval: 1_000_000,
            poll_interval: 10_000,
            csv: None,
            width: 100,
            json: false,
            max_age: None,
            serve: ServeConfig {
                addr: "127.0.0.1:8080".to_string(),
                ..ServeConfig::default()
            },
            soak: SoakConfig::default(),
            soak_serve: false,
            requests: None,
            clients: None,
            fuzz_iters: None,
            net_faults: vec![],
            manifest: None,
        }
    }

    /// Parse `args` (the command, then its arguments) against [`OPTIONS`],
    /// with `env` as the process environment. The option rows the command
    /// takes read their environment fallbacks first, then the arguments
    /// override them; the cross-option rules run once everything is in.
    fn parse(args: &[String], env: impl Fn(&str) -> Option<String>) -> Result<Opts, CombError> {
        let (name, args) = args.split_first().ok_or("no command given")?;
        let cmd = COMMANDS
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, cmd)| cmd)
            .ok_or_else(|| format!("unknown command '{name}'"))?;
        let mut o = Opts::new(cmd);
        let rows = || OPTIONS.iter().filter(move |row| row.cmds.contains(&cmd));
        for row in rows() {
            let (Value(parse), Some((var, value))) = (row.arity, fallback(row, &env)) else {
                continue;
            };
            parse(&mut o, &value)
                .map_err(|e| format!("bad {var} '{value}' (the default of {}): {e}", row.name))?;
        }
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            if !arg.starts_with('-') {
                o.positional(arg)?;
                continue;
            }
            let row = rows().find(|row| row.name == arg).ok_or_else(|| {
                if OPTIONS.iter().any(|row| row.name == arg) {
                    format!("`comb {name}` does not take {arg}")
                } else {
                    format!("unknown option '{arg}'")
                }
            })?;
            match row.arity {
                Switch(set) => set(&mut o),
                Value(parse) => {
                    let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                    parse(&mut o, value).map_err(|e| format!("bad {arg} '{value}': {e}"))?;
                }
                Gone(flag) => {
                    o.removed.get_or_insert(flag);
                    it.next_if(|value| !value.starts_with('-'));
                }
            }
        }
        o.check()?;
        o.compose()?;
        Ok(o)
    }

    /// A positional argument: a figure id, the sweep method or the cache
    /// subcommand.
    fn positional(&mut self, arg: &str) -> Result<(), String> {
        match self.cmd {
            Figure => self.ids.push(arg.parse()?),
            Sweep if self.method.is_none() => self.method = Some(arg.to_string()),
            Cache if self.sub.is_none() => self.sub = Some(arg.to_string()),
            _ => return Err(format!("unexpected argument '{arg}'")),
        }
        Ok(())
    }

    /// The rules that span more than one argument.
    fn check(&self) -> Result<(), String> {
        if let Some(flag) = self.removed {
            return Err(removed_error(flag, self.cache_dir.as_deref()));
        }
        if self.cmd == Figure && self.ids.is_empty() {
            return Err("no figure ids given (try `comb list`)".into());
        }
        if self.replicates.is_none() && (self.ci_target.is_some() || self.perturb_seed.is_some()) {
            return Err(
                "--ci-target / --perturb-seed need --replicates to enable adaptive sampling".into(),
            );
        }
        let storm = self.requests.is_some() || self.clients.is_some() || self.fuzz_iters.is_some();
        if self.cmd == Soak && !self.soak_serve && (storm || !self.net_faults.is_empty()) {
            return Err(
                "--requests/--clients/--fuzz-iters/--net-fault only apply with --serve".into(),
            );
        }
        match (self.cmd, self.sub.as_deref()) {
            (Cache, None) => Err("cache needs a subcommand: stats, verify, gc or clear".into()),
            (Cache, Some(sub)) if !["stats", "verify", "gc", "clear"].contains(&sub) => Err(
                format!("unknown cache subcommand '{sub}' (expected stats, verify, gc or clear)"),
            ),
            (Cache, Some(sub)) if sub != "gc" && self.max_age.is_some() => {
                Err("--max-age only applies to `cache gc`".into())
            }
            (Sweep | Trace, _) => require_positive(&self.cfg),
            _ => Ok(()),
        }
    }

    /// Compose the values that more than one option feeds.
    fn compose(&mut self) -> Result<(), String> {
        self.fidelity.jobs = self.jobs;
        self.fidelity.shards = self.shards;
        self.fidelity.adaptive = self.replicates.map(|n| {
            let stock = AdaptiveParams::new(n);
            AdaptiveParams {
                ci_target: self.ci_target.unwrap_or(stock.ci_target),
                perturb_seed: self.perturb_seed.unwrap_or(stock.perturb_seed),
                ..stock
            }
        });
        self.cfg.jobs = self.jobs;
        self.cfg.shards = self.shards;
        if let Some(seed) = self.fault_seed {
            self.cfg.fault.seed = seed;
            self.soak.fault_seed = seed;
        }
        self.soak.jobs = self.jobs;
        self.serve.jobs = self.jobs;
        self.serve.fidelity = self.fidelity;
        if self.cmd == Serve {
            self.serve.net_fault = NetFaultPlan::from_specs(&self.net_faults, None)?;
        }
        Ok(())
    }

    /// The cell cache these options describe. `None` when caching is off
    /// (explicitly, or because no cache directory resolves).
    fn cache(&self) -> Option<Arc<CellCache>> {
        if self.no_cache {
            return None;
        }
        let mode = if self.cache_refresh {
            CacheMode::Refresh
        } else {
            CacheMode::ReadWrite
        };
        Some(Arc::new(CellCache::new(self.cache_dir.clone()?, mode)))
    }
}

/// A row's environment fallback: the variable that supplied it and the
/// value to parse, or `None` when none of its variables is set.
fn fallback(row: &Opt, env: &impl Fn(&str) -> Option<String>) -> Option<(&'static str, String)> {
    row.env.iter().find_map(|&(var, suffix)| {
        let value = env(var).filter(|v| !v.is_empty())?;
        Some(match suffix {
            "" => (var, value),
            _ => (var, Path::new(&value).join(suffix).display().to_string()),
        })
    })
}

/// The usage error for a removed flag, naming the directory the
/// arguments (or the environment) chose for the cell cache.
fn removed_error(flag: Removed, cache_dir: Option<&Path>) -> String {
    let dir = match cache_dir {
        Some(d) => d.display().to_string(),
        None => "the directory --cache-dir names".to_string(),
    };
    match flag {
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
    }
}

/// `comb serve` rejects a zero message size, queue depth, batch or cycle
/// count in a sweep request, and `sweep` and `trace` reject them the same
/// way: a zero batch or cycle count would divide by zero inside the run.
fn require_positive(cfg: &MethodConfig) -> Result<(), String> {
    let knobs = [
        ("--size", cfg.msg_bytes),
        ("--queue", cfg.queue_depth as u64),
        ("--batch", cfg.batch as u64),
        ("--cycles", cfg.cycles),
    ];
    match knobs.into_iter().find(|&(_, v)| v == 0) {
        Some((flag, _)) => Err(format!("{flag} must be >= 1")),
        None => Ok(()),
    }
}

fn run(args: Vec<String>) -> Result<(), CombError> {
    if let Some("help" | "--help" | "-h") = args.first().map(String::as_str) {
        println!("{USAGE}");
        return Ok(());
    }
    let o = Opts::parse(&args, |var| std::env::var(var).ok())?;
    match o.cmd {
        List => cmd_list(),
        Info => cmd_info(),
        Figure | All => cmd_figures(o),
        Report => cmd_report(o),
        Netperf => cmd_netperf(o),
        Latency => cmd_latency(o),
        Sweep => cmd_sweep(o),
        Soak if o.soak_serve => cmd_soak_serve(o),
        Soak => cmd_soak(o),
        Trace => cmd_trace(o),
        Degrade => cmd_degrade(o),
        Halo => cmd_halo(o),
        Cache => cmd_cache(o),
        Serve => cmd_serve(o),
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

/// Run figures through the cell cache, as an adaptive campaign when the
/// fidelity asks for replicates; the adaptive summary line comes back too.
fn figure_reports(
    ids: &[FigureId],
    fidelity: Fidelity,
    out: Option<&Path>,
    cache: Option<Arc<CellCache>>,
) -> Result<(Vec<FigureReport>, Option<String>), CombError> {
    let Some(params) = fidelity.adaptive else {
        return Ok((run_figures_cached(ids, fidelity, out, cache)?, None));
    };
    let tracer = comb_trace::Tracer::default();
    let (reports, stats) =
        comb_report::run_figures_adaptive(ids, fidelity, out, cache, &tracer, None)?;
    Ok((reports, Some(adaptive_summary(&params, &stats))))
}

fn cmd_figures(o: Opts) -> Result<(), CombError> {
    let cache = o.cache();
    let started = Instant::now();
    let (reports, adaptive) = figure_reports(&o.ids, o.fidelity, o.out.as_deref(), cache.clone())?;
    if let Some(line) = adaptive {
        println!("{line}");
    }
    let mut failed = 0usize;
    for r in &reports {
        println!("================================================================");
        println!("{}", r.summary());
        println!("  {}", r.id.description());
        if o.plot.0 > 0 && o.plot.1 > 0 {
            println!();
            println!("{}", r.plot(o.plot.0, o.plot.1));
        }
        for c in &r.checks {
            if !c.pass {
                failed += 1;
            }
            if o.checks || !c.pass {
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

fn cmd_report(o: Opts) -> Result<(), CombError> {
    let cache = o.cache();
    let csv_dir = Path::new("results");
    let (reports, adaptive) =
        figure_reports(&FigureId::ALL, o.fidelity, Some(csv_dir), cache.clone())?;
    if let Some(line) = adaptive {
        eprintln!("{line}");
    }
    if let Some(c) = &cache {
        eprintln!("{}", cache_summary(c));
    }
    let md = comb_report::markdown_report(&reports);
    match o.out {
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

fn cmd_halo(o: Opts) -> Result<(), CombError> {
    // Always set: `halo` takes no --no-csv.
    let out = o.out.unwrap_or_default();
    let ds = comb_report::generate_halo(o.fidelity)?;
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

fn cmd_netperf(o: Opts) -> Result<(), CombError> {
    let cfg = o.cfg;
    let spec = RunSpec::of(&cfg);
    let netperf = |busy_wait| NetperfParams {
        msg_bytes: cfg.msg_bytes,
        total_iters: 4_000_000,
        busy_wait,
    };
    let busy = comb_core::run(&netperf(true), &spec)?.sample;
    let sleepy = comb_core::run(&netperf(false), &spec)?.sample;
    let comb = comb_core::run(&PollingParams::new(&cfg, 10_000), &spec)?.sample;
    println!(
        "methodology comparison on {} ({} B messages):",
        cfg.transport.name(),
        cfg.msg_bytes
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

fn cmd_latency(o: Opts) -> Result<(), CombError> {
    let sizes = [
        0u64,
        1024,
        4096,
        16 * 1024,
        64 * 1024,
        256 * 1024,
        1024 * 1024,
    ];
    let spec = RunSpec::of(&o.cfg);
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
        o.cfg.transport.name()
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

fn cmd_trace(o: Opts) -> Result<(), CombError> {
    let cfg = &o.cfg;
    let spec = RunSpec {
        trace: true,
        ..RunSpec::of(cfg)
    };
    let records = match o.method.as_deref().unwrap_or("pww") {
        "pww" => {
            let params = PwwParams::new(cfg, o.work_interval, o.test_in_work);
            let run = comb_core::run(&params, &spec)?;
            println!(
                "pww on {} | {} B messages, work interval {} iters, {} cycles",
                cfg.transport.name(),
                cfg.msg_bytes,
                o.work_interval,
                cfg.cycles
            );
            println!(
                "  bandwidth {:.1} MB/s, availability {:.3}, wait/msg {}",
                run.sample.bandwidth_mbs, run.sample.availability, run.sample.wait_per_msg
            );
            println!();
            print!(
                "{}",
                comb_report::render_pww_timeline(&run.records, o.width)
            );
            run.records
        }
        "polling" => {
            let run = comb_core::run(&PollingParams::new(cfg, o.poll_interval), &spec)?;
            println!(
                "polling on {} | {} B messages, poll interval {} iters",
                cfg.transport.name(),
                cfg.msg_bytes,
                o.poll_interval
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
    // Always set: `trace` takes no --no-csv.
    let out = o.out.unwrap_or_default();
    comb_trace::atomic_write_str(&out, &comb_trace::chrome_trace_json(&records))
        .map_err(|e| CombError::io(out.display(), &e))?;
    println!();
    println!(
        "trace: {} (load in ui.perfetto.dev or chrome://tracing)",
        out.display()
    );
    if let Some(path) = o.csv {
        comb_trace::atomic_write_str(&path, &comb_trace::csv_export(&records))
            .map_err(|e| CombError::io(path.display(), &e))?;
        println!("csv:   {}", path.display());
    }
    Ok(())
}

fn cmd_sweep(o: Opts) -> Result<(), CombError> {
    let cfg = &o.cfg;
    // The cache only backs plain sweeps: traced runs capture records the
    // cache cannot restore.
    let cache = if o.trace.is_none() { o.cache() } else { None };
    let method = match o.method.as_deref().unwrap_or("polling") {
        "polling" => CellMethod::Polling,
        "pww" => CellMethod::Pww {
            test_in_work: o.test_in_work,
        },
        other => return Err(CombError::usage(format!("unknown sweep method '{other}'"))),
    };
    let xs = log_spaced(o.range.0, o.range.1, o.range.2);
    // Run the sweep once. With --trace every point is traced — the
    // samples are identical to an untraced sweep's — and lands in its own
    // pid group of one Chrome trace file.
    let mut trace_json: Option<String> = None;
    let samples = if o.trace.is_some() {
        let spec = RunSpec {
            trace: true,
            ..RunSpec::of(cfg)
        };
        let runs = run_ordered(cfg.jobs, &xs, |&x| method.run(cfg, x, &spec))?;
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
        cached_sweep(cache.as_deref(), cfg, &xs, method)?
    };
    // Faulted sweeps print CSV (with the plan in the header) so runs can be
    // diffed byte-for-byte — the acceptance mode for fault determinism.
    // The shared renderer is the same one `comb serve` uses, which is what
    // makes HTTP sweep bodies byte-identical to this stdout.
    print!("{}", comb_report::render_sweep(cfg, method, samples));
    if let (Some(path), Some(json)) = (&o.trace, &trace_json) {
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

fn cmd_cache(o: Opts) -> Result<(), CombError> {
    let dir = o.cache_dir.ok_or_else(|| {
        CombError::usage(
            "no cache directory (pass --cache-dir or set COMB_CACHE_DIR / XDG_CACHE_HOME / HOME)",
        )
    })?;
    match o.sub.as_deref() {
        Some("stats") => {
            let r = comb_core::cache::verify_store(&dir);
            if o.json {
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
        Some("verify") => {
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
        Some("gc") => {
            let r = comb_core::gc_store_with_max_age(&dir, o.max_age);
            println!(
                "gc {}: kept {} entries, removed {} files ({} expired)",
                dir.display(),
                r.entries,
                r.removed,
                r.expired
            );
            Ok(())
        }
        // `clear`: `Opts::check` admits no other subcommand.
        _ => {
            let r = comb_core::cache::clear_store(&dir);
            println!("cleared {}: removed {} entries", dir.display(), r.removed);
            Ok(())
        }
    }
}

fn cmd_serve(o: Opts) -> Result<(), CombError> {
    let cfg = ServeConfig {
        cache: o.cache(),
        ..o.serve
    };
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

fn cmd_soak(o: Opts) -> Result<(), CombError> {
    let config = o.soak;
    println!(
        "soak: {} scenarios from index {} (seed {}), {} attempt(s) each",
        config.iters, config.start, config.fault_seed, config.max_attempts
    );
    let started = Instant::now();
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
    let manifest = o
        .manifest
        .clone()
        .unwrap_or_else(|| PathBuf::from("soak-failures.json"));
    if !report.all_pass() || o.manifest.is_some() {
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
fn cmd_soak_serve(o: Opts) -> Result<(), CombError> {
    let seed = o.soak.fault_seed;
    let mut cfg = comb_serve::ServeSoakConfig::storm(seed);
    cfg.requests = o.requests.unwrap_or(cfg.requests);
    cfg.clients = o.clients.unwrap_or(cfg.clients);
    if !o.net_faults.is_empty() {
        cfg.fault =
            NetFaultPlan::from_specs(&o.net_faults, Some(seed)).map_err(CombError::usage)?;
    }
    println!(
        "soak: serve chaos, {} requests over {} clients (seed {}), net-fault {}",
        cfg.requests, cfg.clients, seed, cfg.fault
    );
    let started = Instant::now();
    let report = comb_serve::run_serve_soak(&cfg)?;
    println!("{}", report.summary());

    let fuzz_cfg = comb_serve::FuzzConfig {
        seed,
        iters: o.fuzz_iters.unwrap_or(10_000) as u64,
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

fn cmd_degrade(o: Opts) -> Result<(), CombError> {
    let figs = generate_degradation(o.fidelity)?;
    for ds in &figs {
        println!("================================================================");
        println!("{}: {}", ds.id, ds.title);
        if o.plot.0 > 0 && o.plot.1 > 0 {
            println!();
            println!("{}", comb_report::ascii::render(ds, o.plot.0, o.plot.1));
        }
        if let Some(dir) = &o.out {
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

    /// Parse a command line with the given environment.
    fn parse_env(args: &[&str], env: &[(&str, &str)]) -> Result<Opts, CombError> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Opts::parse(&args, |var| {
            env.iter()
                .find(|(k, _)| *k == var)
                .map(|(_, v)| v.to_string())
        })
    }

    /// Parse a command line with an empty environment.
    fn parse(args: &[&str]) -> Result<Opts, CombError> {
        parse_env(args, &[])
    }

    #[test]
    fn figure_opts_defaults_and_flags() {
        let opts = parse(&["figure", "fig08", "--paper", "--no-csv"]).unwrap();
        assert_eq!(opts.ids, vec![FigureId::Fig08]);
        assert_eq!(opts.fidelity, Fidelity::paper());
        assert!(opts.out.is_none());
        assert!(!opts.checks);
    }

    #[test]
    fn all_mode_rejects_positional_ids_but_takes_flags() {
        assert!(parse(&["all", "fig08"]).is_err());
        let opts = parse(&["all", "--plot", "100x30"]).unwrap();
        assert_eq!(opts.ids.len(), 14);
        assert_eq!(opts.plot, (100, 30));
    }

    #[test]
    fn jobs_and_fidelity_flags_parse() {
        let opts = parse(&["all", "--fidelity", "smoke", "--jobs", "3"]).unwrap();
        assert_eq!(opts.fidelity, Fidelity::smoke().with_jobs(3));
        let opts = parse(&["figure", "fig08", "--smoke"]).unwrap();
        assert_eq!(opts.fidelity, Fidelity::smoke());
        assert_eq!(opts.fidelity.jobs, 0, "default is auto");
        assert!(parse(&["all", "--jobs", "-1"]).is_err());
        assert!(parse(&["all", "--fidelity", "warp"]).is_err());
    }

    #[test]
    fn jobs_and_shards_survive_a_preset_on_either_side_in_report_and_degrade() {
        let knobs = ["--jobs", "3", "--shards", "2"];
        let presets: [(&[&str], Fidelity); 4] = [
            (&["--smoke"], Fidelity::smoke()),
            (&["--quick"], Fidelity::quick()),
            (&["--paper"], Fidelity::paper()),
            (&["--fidelity", "smoke"], Fidelity::smoke()),
        ];
        for cmd in ["report", "degrade"] {
            for (preset, fidelity) in presets {
                let want = fidelity.with_jobs(3).with_shards(2);
                let before: Vec<&str> = [cmd].iter().chain(&knobs).chain(preset).copied().collect();
                let after: Vec<&str> = [cmd].iter().chain(preset).chain(&knobs).copied().collect();
                assert_eq!(parse(&before).unwrap().fidelity, want, "{before:?}");
                assert_eq!(parse(&after).unwrap().fidelity, want, "{after:?}");
            }
        }
    }

    #[test]
    fn adaptive_flags_enable_replicate_campaigns() {
        let opts = parse(&[
            "all",
            "--replicates",
            "6",
            "--ci-target",
            "0.1",
            "--perturb-seed",
            "99",
        ])
        .unwrap();
        let params = opts.fidelity.adaptive.expect("adaptive enabled");
        assert_eq!(params.replicates, 6);
        assert_eq!(params.ci_target, 0.1);
        assert_eq!(params.perturb_seed, 99);
        // Flag order does not matter: `--fidelity` after `--replicates`
        // must not clobber the adaptive knobs.
        let opts = parse(&["all", "--replicates", "3", "--fidelity", "smoke"]).unwrap();
        assert_eq!(opts.fidelity.adaptive.map(|a| a.replicates), Some(3));
        // Defaults flow from AdaptiveParams::new.
        let opts = parse(&["all", "--replicates", "4"]).unwrap();
        assert_eq!(
            opts.fidelity.adaptive,
            Some(AdaptiveParams::new(4)),
            "unrefined flags take the stock target and seed"
        );
        assert!(parse(&["all", "--replicates", "0"]).is_err());
        assert!(parse(&["all", "--ci-target", "0.1"]).is_err());
        assert!(parse(&["all", "--perturb-seed", "7"]).is_err());
        assert!(
            parse(&["all", "--replicates", "2", "--ci-target", "nan"]).is_err(),
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
        assert!(parse(&["figure", "fig03"]).is_err());
        assert!(parse(&["figure"]).is_err());
        assert!(parse(&["all", "--plot", "banana"]).is_err());
        assert!(transport("quadrics").is_err());
        assert!(transport("GM").is_ok());
    }

    #[test]
    fn unknown_commands_error() {
        assert!(run(vec!["frobnicate".into()]).is_err());
        assert!(run(vec![]).is_err());
        assert!(run(vec!["list".into()]).is_ok());
        assert!(run(vec!["info".into()]).is_ok());
    }

    #[test]
    fn environment_fallbacks_are_read_only_where_the_option_is_taken() {
        let jobs = [("COMB_JOBS", "5"), ("COMB_SHARDS", "2")];
        let o = parse_env(&["all"], &jobs).unwrap();
        assert_eq!((o.fidelity.jobs, o.fidelity.shards), (5, 2));
        let o = parse_env(&["all", "--jobs", "1", "--shards", "1"], &jobs).unwrap();
        assert_eq!(
            (o.fidelity.jobs, o.fidelity.shards),
            (1, 1),
            "the flag wins"
        );
        assert_eq!(parse_env(&["latency"], &jobs).unwrap().cfg.shards, 2);
        assert_eq!(parse_env(&["serve"], &jobs).unwrap().serve.jobs, 5);
        let garbage = [("COMB_JOBS", "banana"), ("COMB_SHARDS", "x")];
        let e = parse_env(&["sweep", "polling"], &garbage).err().unwrap();
        assert_eq!(e.kind, ErrorKind::Usage);
        assert!(e.to_string().contains("COMB_JOBS"), "{e}");
        let e = parse_env(&["latency"], &garbage).err().unwrap();
        assert!(e.to_string().contains("COMB_SHARDS"), "{e}");
        // Commands without the option never look at the variable.
        assert!(parse_env(&["list"], &garbage).is_ok());
        assert_eq!(
            parse_env(&["soak"], &[("COMB_SHARDS", "x")])
                .unwrap()
                .shards,
            0
        );
        assert!(parse_env(&["serve"], &[("COMB_SHARDS", "x")]).is_ok());
    }

    #[test]
    fn cache_dir_falls_back_through_the_environment() {
        let dir = |env: &[(&str, &str)]| parse_env(&["cache", "stats"], env).unwrap().cache_dir;
        let home = [
            ("HOME", "/h"),
            ("XDG_CACHE_HOME", ""),
            ("COMB_CACHE_DIR", ""),
        ];
        assert_eq!(dir(&home), Some(PathBuf::from("/h/.cache/comb")));
        assert_eq!(
            dir(&[("XDG_CACHE_HOME", "/x"), ("HOME", "/h")]),
            Some("/x/comb".into())
        );
        assert_eq!(
            dir(&[("COMB_CACHE_DIR", "/c"), ("HOME", "/h")]),
            Some("/c".into())
        );
        let o = parse_env(
            &["cache", "stats", "--cache-dir", "/d"],
            &[("COMB_CACHE_DIR", "/c")],
        );
        assert_eq!(o.unwrap().cache_dir, Some("/d".into()));
        assert_eq!(dir(&[]), None);
    }

    #[test]
    fn zero_counts_the_library_would_clamp_are_usage_errors() {
        assert!(parse(&["soak", "--attempts", "0"]).is_err());
        assert!(parse(&["soak", "--serve", "--clients", "0"]).is_err());
        assert!(parse(&["soak", "--clients", "2"]).is_err(), "needs --serve");
        assert!(parse(&["soak", "--serve", "--clients", "2", "--attempts", "1"]).is_ok());
    }

    #[test]
    fn options_are_checked_against_the_command() {
        let e = parse(&["latency", "--jobs", "2"]).err().unwrap();
        assert!(
            e.to_string()
                .contains("`comb latency` does not take --jobs"),
            "{e}"
        );
        assert!(parse(&["list", "--frobnicate"]).is_err());
        assert!(parse(&["sweep", "pww", "polling"]).is_err());
        assert!(parse(&["cache", "stats", "--max-age", "1"]).is_err());
        assert!(parse(&["cache", "gc", "--max-age", "1"]).is_ok());
        // Every row names a command, and no command takes one name twice.
        for (name, cmd) in COMMANDS {
            let mut names: Vec<&str> = OPTIONS
                .iter()
                .filter(|row| row.cmds.contains(&cmd))
                .map(|row| row.name)
                .collect();
            let n = names.len();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), n, "`comb {name}` takes an option twice");
        }
    }
}
