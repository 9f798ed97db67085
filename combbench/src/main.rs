//! `combbench`: the repository benchmark.
//!
//! ```text
//! combbench run   [--workload <name>] [--seed <n>] [--seconds <n>] [--trace 0|1] [--out <file>]
//! combbench trace  --workload <name>  [--seed <n>] [--seconds <n>] [--out <file>]
//! ```
//!
//! Each workload runs in a fresh child process of this binary, with the
//! library's `COMB_*` environment removed, so set-up time and peak memory
//! belong to that workload alone. The child prints every metric as
//! `<workload> <metric> <value> <unit>` and, as its last line, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. An untraced run
//! reports the end-to-end metrics, stated at a fixed host speed measured
//! with a reference unit of work; a traced run (`--trace 1`, or `trace`)
//! records spans, prints per-span self time and the tracing overhead, and
//! reports the per-layer metrics. The exit code is non-zero when any output
//! check fails. See README.md for the workloads and how to compare commits.

mod expected;
mod probes;
mod reference;
mod spans;
mod stats;
mod workloads;

use spans::Spans;
use stats::Summary;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workloads::{Ctx, Fixture, Phase, Size, Tally, Until, Workload};

const USAGE: &str = "usage: combbench run [--workload <name>] [--seed <n>] [--seconds <n>] [--trace 0|1] [--out <file>]
       combbench trace --workload <name> [--seed <n>] [--seconds <n>] [--out <file>]
workloads: figures_cold figures_warm serve_mix pairs_sharded";

const DEFAULT_SEED: u64 = 1;
/// Matches `run_seconds` in BENCHMARK.json.
const DEFAULT_SECONDS: u64 = 25;

/// What the library reads when jobs, shards or the cache directory are
/// left on auto. The harness always passes explicit values; removing these
/// keeps a stray shell setting from reaching a child anyway.
const LIBRARY_ENV: [&str; 3] = ["COMB_JOBS", "COMB_SHARDS", "COMB_CACHE_DIR"];

/// The gated end-to-end metrics, in output order, with their units.
const END_TO_END: [(&str, &str); 2] = [("setup_s", "s"), ("op_p50_ms", "ms")];

/// Measured time between two timings of the reference unit.
const SLICE: Duration = Duration::from_secs(1);

/// Measured operations always run, even past the time budget.
const MIN_OPS: usize = 3;

#[derive(Debug)]
struct Opts {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

/// `Ok((is_child, opts))`.
fn parse_args(args: &[String]) -> Result<(bool, Opts), String> {
    let (cmd, rest) = args.split_first().ok_or("missing command")?;
    let mut o = Opts {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: cmd == "trace",
        out: None,
    };
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                o.workload = Some(Workload::parse(v).ok_or(format!("unknown workload '{v}'"))?);
            }
            "--seed" => o.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|_| "--seconds needs an integer")?
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not '{v}'")),
                }
            }
            "--out" => o.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    match cmd.as_str() {
        "run" | "trace" => Ok((false, o)),
        "child" if o.workload.is_some() => Ok((true, o)),
        "child" => Err("child needs --workload".to_string()),
        other => Err(format!("unknown command '{other}'")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok((false, o)) => run_children(&o),
        Ok((true, o)) => run_child(&o),
        Err(msg) => {
            eprintln!("combbench: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Run each selected workload in its own child process, one at a time.
fn run_children(o: &Opts) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("combbench: cannot find my own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let selected = o.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut ok = true;
    for w in selected {
        let mut cmd = Command::new(&exe);
        cmd.args(["child", "--workload", w.name()])
            .args(["--seed", &o.seed.to_string()])
            .args(["--seconds", &o.seconds.to_string()])
            .args(["--trace", if o.trace { "1" } else { "0" }])
            .stdin(Stdio::null());
        if let Some(out) = &o.out {
            cmd.arg("--out").arg(out);
        }
        for var in LIBRARY_ENV {
            cmd.env_remove(var);
        }
        match cmd.status() {
            Ok(status) => ok &= status.success(),
            Err(e) => {
                eprintln!("combbench: starting the {} child: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Campaign workers and serve clients: two, or one on a one-core host.
/// Never zero, which the library would read as "all cores".
fn jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Where span files and throwaway stores go: `combbench/` under the cargo
/// target directory, inside the checkout being measured.
fn out_root() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("combbench")
}

/// A directory removed when dropped.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The result of one workload run.
struct Outcome {
    lines: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    tally: Tally,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }

    /// The process exit status: non-zero when any output check failed.
    fn exit_status(&self) -> u8 {
        u8::from(!self.correct())
    }

    fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed
        )
    }
}

fn run_child(o: &Opts) -> ExitCode {
    let w = o
        .workload
        .expect("parse_args requires a workload for a child");
    let root = out_root();
    let scratch = Scratch(root.join(format!("tmp-{}", std::process::id())));
    let jobs = jobs();
    println!(
        "# combbench {} seed {} seconds {} trace {} host_cores {} jobs {jobs}",
        w.name(),
        o.seed,
        o.seconds,
        u8::from(o.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let ctx = Ctx {
        seed: o.seed,
        size: Size::Full,
        jobs,
        scratch: &scratch.0,
        expected: expected::EXPECTED,
    };
    let seconds = Duration::from_secs(o.seconds);
    let result = if o.trace {
        traced(w, &ctx, Until::Elapsed(seconds / 2), &root)
    } else {
        untraced(w, &ctx, Until::Elapsed(seconds))
    };
    let outcome = result.unwrap_or_else(|e| Outcome {
        lines: vec![format!("# {} failed: {e}", w.name())],
        metrics: Vec::new(),
        tally: Tally {
            attempted: 1,
            failed: 1,
            problems: vec![e],
        },
    });
    drop(scratch);
    for line in &outcome.lines {
        println!("{line}");
    }
    for p in &outcome.tally.problems {
        println!("# check failed: {p}");
    }
    let json = outcome.json();
    println!("{json}");
    if let Some(out) = &o.out {
        if let Err(e) = append_line(out, &json) {
            eprintln!("combbench: writing {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::from(outcome.exit_status())
}

fn append_line(path: &Path, line: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")
}

/// Set up, measure with tracing off, report end to end. The reference unit
/// is timed before set-up and around every measured slice.
fn untraced(w: Workload, ctx: &Ctx, until: Until) -> Result<Outcome, String> {
    let mut refs = Vec::new();
    reference::sample(&mut refs);
    let (mut fixture, setup) = workloads::setup(w, ctx)?;
    let phase = measure_sliced(fixture.as_mut(), until, &mut refs);
    drop(fixture);
    let mut lines = Vec::new();
    let metrics = end_to_end(w, &setup, &phase, &refs, &mut lines)?;
    Ok(Outcome {
        lines,
        metrics,
        tally: phase.tally,
    })
}

/// Measure `fixture` until `until` in slices of about [`SLICE`], sampling
/// the reference into `refs` after each slice (and before the first).
/// Reference time is not part of any operation or of the phase's elapsed
/// time.
fn measure_sliced(fixture: &mut dyn Fixture, until: Until, refs: &mut Vec<f64>) -> Phase {
    let start = Instant::now();
    let mut phase = Phase::default();
    reference::sample(refs);
    loop {
        let done = phase.op_s.len();
        let slice = match until {
            Until::Elapsed(d) if done < MIN_OPS || start.elapsed() < d => {
                Until::Elapsed(SLICE.min(d.saturating_sub(start.elapsed())))
            }
            Until::Ops(n) if done < n => Until::Ops(n - done),
            _ => return phase,
        };
        phase.merge(workloads::measure(fixture, slice, None));
        reference::sample(refs);
    }
}

/// The gated metrics are host times scaled to the reference speed: times
/// `reference::NOMINAL_MS` over the run's median reference time. The wall
/// times they come from are printed next to them.
fn end_to_end(
    w: Workload,
    setup: &[f64],
    phase: &Phase,
    refs: &[f64],
    lines: &mut Vec<String>,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    let name = w.name();
    let host = Summary::of(refs).ok_or("the reference unit never ran")?;
    let scale = reference::NOMINAL_MS / host.median;
    lines.push(format!(
        "{name} reference_ms {} ms  ({}; nominal {})",
        host.median,
        quartiles(&host),
        reference::NOMINAL_MS
    ));
    let setup = Summary::of(setup).ok_or("no set-up ran")?;
    let op_ms: Vec<f64> = phase.op_s.iter().map(|s| s * 1e3).collect();
    let ops = Summary::of(&op_ms).ok_or("no operation ran")?;
    let mut metrics = Vec::new();
    for ((metric, unit), wall) in END_TO_END.iter().zip([setup, ops]) {
        let value = wall.median * scale;
        lines.push(format!(
            "{name} {metric} {value} {unit}  (at the reference speed; wall median {:.4}, {})",
            wall.median,
            quartiles(&wall)
        ));
        metrics.push((metric.to_string(), value, *unit));
    }
    // Printed, not gated, and in wall time: a mean rate follows every slow
    // operation, so it moves between runs further than the median does.
    lines.push(format!(
        "{name} ops_per_s {} 1/s  (wall; {} ops in {:.3} s)",
        op_ms.len() as f64 / phase.elapsed_s,
        ops.n,
        phase.elapsed_s
    ));
    if let Some((p, v)) = ops.tail {
        lines.push(format!("{name} op_p{p}_ms {v} ms  (wall; n {})", ops.n));
    }
    let fired = phase.counters.kernel.fired;
    if fired > 0 {
        let rate = fired as f64 / phase.elapsed_s;
        lines.push(format!(
            "{name} events_per_s {rate} 1/s  ({fired} kernel events)"
        ));
    }
    // Printed, not gated: glibc's per-thread malloc arenas make the peak
    // vary by a fifth between identical runs, and a server's grows with
    // the requests it answered in the run.
    if let Some(mb) = peak_rss_mb() {
        lines.push(format!(
            "{name} peak_rss_mb {mb} MB  (VmHWM of this workload's process)"
        ));
    }
    let t = &phase.tally;
    lines.push(format!(
        "{name} failed_ratio {} ratio  ({} of {} operations)",
        t.failed as f64 / t.attempted.max(1) as f64,
        t.failed,
        t.attempted
    ));
    Ok(metrics)
}

fn quartiles(s: &Summary) -> String {
    format!("q1 {:.4}, q3 {:.4}, n {}", s.q1, s.q3, s.n)
}

/// Operations in the traced phase: fixed, so its counts repeat exactly.
fn traced_ops(w: Workload) -> usize {
    match w {
        Workload::FiguresCold => 1,
        Workload::FiguresWarm => 100,
        Workload::ServeMix => 400,
        Workload::PairsSharded => 2,
    }
}

/// Set up; run a fixed number of operations with spans, then measure
/// untraced until `plain`; write the span file under `root`; run every
/// layer probe. The traced operations come first so that they, and their
/// counts, are the same in every run with the same seed.
fn traced(w: Workload, ctx: &Ctx, plain: Until, root: &Path) -> Result<Outcome, String> {
    let name = w.name();
    let (mut fixture, _) = workloads::setup(w, ctx)?;
    let rec = Spans::new();
    let traced = workloads::measure(fixture.as_mut(), Until::Ops(traced_ops(w)), Some(&rec));
    let plain = workloads::measure(fixture.as_mut(), plain, None);
    drop(fixture);

    let mut lines = Vec::new();
    let span_file = root.join(format!("trace-{name}.json"));
    std::fs::create_dir_all(root)
        .and_then(|()| std::fs::write(&span_file, rec.to_json(name)))
        .map_err(|e| format!("writing {}: {e}", span_file.display()))?;
    lines.push(format!("# spans written to {}", span_file.display()));
    for (span, t) in rec.totals() {
        let ms: Vec<f64> = t.durations_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
        lines.push(format!(
            "{name} {span}_ms {} ms  ({}; count {}, total_ms {:.3}, self_ms {:.3})",
            Summary::of(&ms).map_or(0.0, |s| s.median),
            spread(&ms),
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
        ));
    }
    let median_ms = |p: &Phase| {
        let ms: Vec<f64> = p.op_s.iter().map(|s| s * 1e3).collect();
        Summary::of(&ms).map_or(0.0, |s| s.median)
    };
    lines.push(format!(
        "{name} trace_overhead_ms {} ms  (median operation traced {:.4} minus untraced {:.4})",
        median_ms(&traced) - median_ms(&plain),
        median_ms(&traced),
        median_ms(&plain),
    ));

    let mut metrics = Vec::new();
    for probe in probes::run_all(ctx.size, ctx.scratch)? {
        let median = Summary::of(&probe.samples).map_or(0.0, |s| s.median);
        lines.push(format!(
            "{name} {} {median} {}  ({})",
            probe.name,
            probe.unit,
            spread(&probe.samples)
        ));
        metrics.push((probe.name, median, probe.unit));
    }
    for (metric, value, unit) in counter_metrics(&traced) {
        lines.push(format!(
            "{name} {metric} {value} {unit}  (over {} traced operations)",
            traced.op_s.len()
        ));
        metrics.push((metric.to_string(), value, unit));
    }
    let mut tally = traced.tally;
    tally.merge(plain.tally);
    Ok(Outcome {
        lines,
        metrics,
        tally,
    })
}

/// Median, quartiles and mean with its 95% confidence interval.
fn spread(samples: &[f64]) -> String {
    let Some(s) = Summary::of(samples) else {
        return "no samples".to_string();
    };
    let mut w = comb::core::Welford::new();
    samples.iter().for_each(|&x| w.push(x));
    match comb::core::mean_ci(&w, 0.95) {
        Some(ci) => format!(
            "q1 {:.4}, q3 {:.4}, mean {:.4} ± {:.4} (95% CI), n {}",
            s.q1, s.q3, ci.mean, ci.half_width, s.n
        ),
        None => format!("n {}", s.n),
    }
}

/// Library counters of the traced phase, as per-layer metrics.
fn counter_metrics(p: &Phase) -> [(&'static str, f64, &'static str); 8] {
    let c = &p.counters;
    let k = &c.kernel;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    [
        ("sim.events_fired", k.fired as f64, "count"),
        ("sim.events_scheduled", k.scheduled as f64, "count"),
        ("sim.events_cancelled", k.cancelled as f64, "count"),
        (
            "sim.lane_share",
            ratio(k.lane_scheduled, k.scheduled),
            "ratio",
        ),
        ("sim.boxed_calls", k.boxed_calls as f64, "count"),
        ("sim.arena_high_water", k.arena_high_water as f64, "count"),
        (
            "hw.burst_batched_packets",
            c.burst_batched_packets as f64,
            "count",
        ),
        (
            "cache.hit_rate",
            ratio(c.cache_hits, c.cache_lookups),
            "ratio",
        ),
    ]
}

/// Peak resident memory of this process (`VmHWM`, Linux only), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    kb.trim()
        .trim_end_matches("kB")
        .trim()
        .parse::<f64>()
        .ok()
        .map(|kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use comb::serve::Json;

    /// Metric names BENCHMARK.json lists under `section`.
    fn listed(section: &str) -> Vec<String> {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let entries = doc
            .get(section)
            .and_then(Json::as_arr)
            .expect("section is a list");
        entries
            .iter()
            .map(|e| {
                e.get("name")
                    .and_then(Json::as_str)
                    .expect("named")
                    .to_string()
            })
            .collect()
    }

    fn names(o: &Outcome) -> Vec<String> {
        o.metrics.iter().map(|(n, ..)| n.clone()).collect()
    }

    /// A throwaway directory per test; tests run in parallel.
    fn scratch(test: &str) -> Scratch {
        Scratch(std::env::temp_dir().join(format!("combbench-{test}-{}", std::process::id())))
    }

    fn tiny<'a>(dir: &'a Scratch, expected: expected::Expected) -> Ctx<'a> {
        Ctx {
            seed: 7,
            size: Size::Tiny,
            jobs: 2,
            scratch: &dir.0,
            expected,
        }
    }

    /// Run `w` at the tiny size for exactly `ops` operations and check its
    /// outputs pass and it reports every end-to-end metric.
    fn check_workload(w: Workload, ops: usize) {
        let dir = scratch(w.name());
        let o = untraced(w, &tiny(&dir, expected::EXPECTED), Until::Ops(ops)).expect("set-up");
        assert!(o.correct(), "{}: {:?}", w.name(), o.tally);
        assert_eq!(o.tally.attempted, ops as u64);
        assert_eq!(o.exit_status(), 0);
        assert_eq!(names(&o), listed("end_to_end"));
        assert!(
            o.metrics.iter().all(|(_, v, _)| v.is_finite() && *v > 0.0),
            "{:?}",
            o.metrics
        );
        assert!(o.json().starts_with("{\"correct\": true, "));
    }

    #[test]
    fn figures_cold_passes_its_checks() {
        check_workload(Workload::FiguresCold, 1);
    }

    #[test]
    fn figures_warm_passes_its_checks() {
        check_workload(Workload::FiguresWarm, 3);
    }

    #[test]
    fn serve_mix_passes_its_checks() {
        // Two script blocks: every request class, several cold cells.
        check_workload(Workload::ServeMix, 40);
    }

    #[test]
    fn pairs_sharded_passes_its_checks() {
        check_workload(Workload::PairsSharded, 2);
    }

    #[test]
    fn a_wrong_recorded_digest_fails_the_run() {
        // The figures every tiny run and every served figure request touch.
        let mut table = expected::EXPECTED.figure_csv.to_vec();
        for (id, digest) in table.iter_mut() {
            if *id == "fig12" || *id == "fig13" {
                *digest = "0000000000000000000000000000000000000000000000000000000000000000";
            }
        }
        let wrong = expected::Expected {
            figure_csv: Box::leak(table.into_boxed_slice()),
            ..expected::EXPECTED
        };
        let dir = scratch("wrong-digest");
        // Set-up checks the store it fills, so the failure surfaces there.
        let err = untraced(Workload::FiguresWarm, &tiny(&dir, wrong), Until::Ops(1))
            .err()
            .expect("set-up fails");
        assert!(err.contains(".csv sha256"), "{err}");
        // A failed check inside the measured phase is counted per operation.
        let o = untraced(Workload::ServeMix, &tiny(&dir, wrong), Until::Ops(40)).expect("set-up");
        assert!(
            o.tally.failed > 0 && o.tally.failed < o.tally.attempted,
            "{:?}",
            o.tally
        );
        assert!(!o.correct());
        assert_ne!(o.exit_status(), 0);
        assert!(o.json().starts_with("{\"correct\": false, "));
    }

    #[test]
    fn traced_run_writes_spans_and_reports_every_layer_metric() {
        let dir = scratch("traced");
        let root = dir.0.join("out");
        let o = traced(
            Workload::PairsSharded,
            &tiny(&dir, expected::EXPECTED),
            Until::Ops(1),
            &root,
        )
        .expect("set-up");
        assert!(o.correct(), "{:?}", o.tally);
        assert_eq!(names(&o), listed("per_layer"));
        let spans =
            std::fs::read_to_string(root.join("trace-pairs_sharded.json")).expect("span file");
        assert_eq!(
            spans.matches("\"name\":\"core.run_polling_pairs\"").count(),
            2
        );
        assert!(o
            .lines
            .iter()
            .any(|l| l.contains("core.run_polling_pairs_ms") && l.contains("self_ms")));
        assert!(o.lines.iter().any(|l| l.contains("trace_overhead_ms")));
    }

    #[test]
    fn gated_times_are_stated_at_the_reference_speed() {
        let phase = Phase {
            op_s: vec![0.010, 0.030, 0.020],
            ..Phase::default()
        };
        // The reference unit took twice its nominal time: the host ran at
        // half speed, so every gated time is halved.
        let refs = [2.0, 1.5, 2.5].map(|x| x * reference::NOMINAL_MS);
        let mut lines = Vec::new();
        let m = end_to_end(
            Workload::PairsSharded,
            &[1.0, 3.0, 2.0],
            &phase,
            &refs,
            &mut lines,
        )
        .unwrap();
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert_eq!((m[0].0.as_str(), m[1].0.as_str()), ("setup_s", "op_p50_ms"));
        assert!(close(m[0].1, 1.0) && close(m[1].1, 10.0), "{m:?}");
        assert!(lines.iter().any(|l| l.contains("wall median 20.0000")));
    }

    #[test]
    fn arguments_parse_into_a_child_command() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let (child, o) = parse_args(&args(
            "run --workload serve_mix --seed 3 --seconds 4 --trace 1",
        ))
        .unwrap();
        assert!(!child);
        assert_eq!(
            (o.workload, o.seed, o.seconds, o.trace),
            (Some(Workload::ServeMix), 3, 4, true)
        );
        let (_, o) = parse_args(&args("trace --workload pairs_sharded")).unwrap();
        assert!(o.trace && o.seed == DEFAULT_SEED);
        assert!(parse_args(&args("run --workload nope")).is_err());
        assert!(parse_args(&args("run --trace 2")).is_err());
        assert!(parse_args(&args("child --seed 1")).is_err());
    }
}
