//! Chaos soak harness: randomized fault-injected benchmark points run
//! under the kernel watchdog, checking harness-level invariants.
//!
//! Each iteration derives a scenario — method, platform, message size,
//! x value, fault plan — from `stream_seed(fault_seed, iter, TAG_SOAK)`,
//! so a soak is fully reproducible from its seed, and any single failing
//! iteration can be replayed alone with `--start <iter> --iters 1` and
//! the same `--fault-seed`. Scenarios run through the one worker pool
//! ([`comb_core::run_ordered`]), each returning its outcome as a value
//! with its panics caught ([`comb_core::catch_worker_panic`]): a
//! panicking, livelocked, or failing iteration is recorded and the soak
//! keeps going. A failure is never retried: it is reported under the seed
//! it failed with, so its replay command reproduces it.
//!
//! Invariants checked on every surviving sample:
//! * the simulation terminated (enforced by the watchdog),
//! * availability is finite and within `[0, 1]`,
//! * bandwidth is finite and non-negative,
//! * the polling worker actually received messages.
//!
//! Failures land in a machine-readable JSON manifest
//! ([`SoakReport::to_json`]) carrying the reproducing seed and command.

use comb_core::{
    catch_worker_panic, run_ordered, CellMethod, CombError, MethodConfig, PointSample, RunSpec,
    Transport,
};
use comb_hw::fault::{stream_seed, DetRng};
use comb_hw::{DegradeSpec, FaultPlan, LossSpec, StallSpec, StormSpec};
use comb_sim::{SimDuration, SimTime, WatchdogConfig};
use std::fmt::Write as _;
use std::path::Path;

/// Stream tag decorrelating soak scenario seeds from the fault streams
/// themselves (which use tags 1, 2 and 4).
const TAG_SOAK: u64 = 0x50AC;

/// Soak run parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoakConfig {
    /// Number of scenarios to run.
    pub iters: u64,
    /// First iteration index (scenarios are a function of
    /// `(fault_seed, iter)`, so `--start N --iters 1` replays scenario N
    /// exactly).
    pub start: u64,
    /// Master seed for scenario derivation.
    pub fault_seed: u64,
    /// Worker threads (`0` = auto).
    pub jobs: usize,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            iters: 25,
            start: 0,
            fault_seed: 42,
            jobs: 0,
        }
    }
}

/// One failed soak iteration, with everything needed to replay it.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakFailure {
    /// Iteration index.
    pub iter: u64,
    /// The scenario's derived seed.
    pub seed: u64,
    /// Human-readable scenario summary.
    pub scenario: String,
    /// Failure classification ([`ErrorKind::label`](comb_core::ErrorKind::label)).
    pub kind: &'static str,
    /// The failure message.
    pub message: String,
    /// CLI command reproducing exactly this scenario.
    pub repro: String,
}

/// Outcome of a soak run.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// The configuration that ran.
    pub config: SoakConfig,
    /// Iterations whose invariants all held.
    pub passed: u64,
    /// Iterations that failed (invariant violation, watchdog abort,
    /// sim error, or panic).
    pub failures: Vec<SoakFailure>,
}

impl SoakReport {
    /// True when every iteration passed.
    pub fn all_pass(&self) -> bool {
        self.failures.is_empty()
    }

    /// The failure manifest as JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"suite\": \"comb-soak\",");
        let _ = writeln!(out, "  \"fault_seed\": {},", self.config.fault_seed);
        let _ = writeln!(out, "  \"start\": {},", self.config.start);
        let _ = writeln!(out, "  \"iters\": {},", self.config.iters);
        let _ = writeln!(out, "  \"passed\": {},", self.passed);
        out.push_str("  \"failures\": [");
        for (i, f) in self.failures.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "    {{\"iter\": {}, \"seed\": {}, \"scenario\": \"{}\", \"kind\": \"{}\", \
                 \"message\": \"{}\", \"repro\": \"{}\"}}",
                f.iter,
                f.seed,
                json_escape(&f.scenario),
                f.kind,
                json_escape(&f.message),
                json_escape(&f.repro),
            );
        }
        if !self.failures.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Write the manifest atomically to `path`.
    pub fn write_manifest(&self, path: &Path) -> Result<(), CombError> {
        comb_trace::atomic_write_str(path, &self.to_json())
            .map_err(|e| CombError::io(path.display(), &e))
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// One derived scenario.
struct Scenario {
    iter: u64,
    seed: u64,
    cfg: MethodConfig,
    /// Polling poll interval or PWW work interval.
    x: u64,
    method: CellMethod,
    summary: String,
}

fn pick<T: Clone>(rng: &mut DetRng, options: &[T]) -> T {
    options[(rng.next_u64() % options.len() as u64) as usize].clone()
}

fn range_f64(rng: &mut DetRng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.next_f64()
}

fn scenario(fault_seed: u64, iter: u64) -> Scenario {
    let seed = stream_seed(fault_seed, iter, TAG_SOAK);
    let mut rng = DetRng::new(seed);

    let transport = pick(
        &mut rng,
        &[Transport::Gm, Transport::Portals, Transport::Emp],
    );
    let msg_bytes = pick(&mut rng, &[10 * 1024u64, 50 * 1024, 100 * 1024]);
    let mut cfg = MethodConfig::new(transport, msg_bytes);
    // Small points: a soak wants many varied scenarios, not long sweeps.
    cfg.cycles = 2;
    cfg.target_iters = 200_000;
    cfg.max_intervals = 100;

    let mut plan = FaultPlan::none();
    plan.seed = seed;
    if rng.next_f64() < 0.6 {
        let rate = range_f64(&mut rng, 0.001, 0.05);
        plan.loss = Some(if rng.next_f64() < 0.5 {
            LossSpec::Uniform { rate }
        } else {
            LossSpec::Burst {
                rate,
                burst_len: range_f64(&mut rng, 2.0, 8.0),
            }
        });
    }
    if rng.next_f64() < 0.4 {
        plan.drop_ctl = Some(range_f64(&mut rng, 0.01, 0.15));
    }
    if rng.next_f64() < 0.3 {
        plan.storm = Some(StormSpec {
            period: SimDuration::from_micros(20 + rng.next_u64() % 80),
            cost: SimDuration::from_micros(1 + rng.next_u64() % 4),
        });
    }
    if rng.next_f64() < 0.3 {
        plan.stall = Some(StallSpec {
            period: SimDuration::from_micros(50 + rng.next_u64() % 150),
            duty: range_f64(&mut rng, 0.05, 0.35),
        });
    }
    if rng.next_f64() < 0.3 {
        plan.degrade = Some(DegradeSpec {
            period: SimDuration::from_micros(50 + rng.next_u64() % 150),
            duty: range_f64(&mut rng, 0.05, 0.4),
            factor: range_f64(&mut rng, 1.5, 4.0),
        });
    }
    cfg.fault = plan;

    // Every scenario runs under the watchdog: livelock (stalled virtual
    // clock) and runaway virtual time both abort with a diagnostic
    // instead of hanging the soak.
    cfg.watchdog =
        Some(WatchdogConfig::lenient().with_deadline(SimTime::from_nanos(300_000_000_000)));

    let (x, method) = if rng.next_f64() < 0.5 {
        // Polling: log-uniform poll interval.
        let x = (100.0 * 10f64.powf(rng.next_f64() * 4.0)) as u64;
        (x, CellMethod::Polling)
    } else {
        let x = (10_000.0 * 10f64.powf(rng.next_f64() * 2.0)) as u64;
        let test_in_work = rng.next_f64() < 0.5;
        (x, CellMethod::Pww { test_in_work })
    };

    let label = match method {
        CellMethod::Polling => "polling".to_string(),
        CellMethod::Pww { test_in_work } => format!("pww(test_in_work={test_in_work})"),
    };
    let summary = format!(
        "{label} {} msg={} x={x} fault=[{}]",
        cfg.transport.name(),
        msg_bytes,
        cfg.fault,
    );
    Scenario {
        iter,
        seed,
        cfg,
        x,
        method,
        summary,
    }
}

/// Check harness invariants on one sample's derived metrics.
fn check_invariants(
    availability: f64,
    bandwidth_mbs: f64,
    messages: Option<u64>,
) -> Result<(), String> {
    if !availability.is_finite() || !(0.0..=1.0).contains(&availability) {
        return Err(format!("availability out of [0,1]: {availability}"));
    }
    if !bandwidth_mbs.is_finite() || bandwidth_mbs < 0.0 {
        return Err(format!(
            "bandwidth not finite/non-negative: {bandwidth_mbs}"
        ));
    }
    if let Some(m) = messages {
        if m == 0 {
            return Err("polling worker received no messages".to_string());
        }
    }
    Ok(())
}

fn run_scenario(s: &Scenario) -> Result<(), CombError> {
    let sample = s.method.run(&s.cfg, s.x, &RunSpec::of(&s.cfg))?.sample;
    let messages = match &sample {
        PointSample::Polling(p) => Some(p.messages_received),
        PointSample::Pww(_) => None,
    };
    check_invariants(sample.availability(), sample.bandwidth_mbs(), messages)
        .map_err(|msg| CombError::internal(format!("invariant violated: {msg}")))
}

/// The scenarios `config` names, in iteration order.
fn scenarios(config: &SoakConfig) -> Vec<Scenario> {
    (config.start..config.start + config.iters)
        .map(|i| scenario(config.fault_seed, i))
        .collect()
}

/// Run the soak. Never returns an error: every kind of per-iteration
/// failure — including worker panics and watchdog aborts — is captured
/// in the report while the remaining iterations keep running.
pub fn run_soak(config: &SoakConfig) -> SoakReport {
    run_scenarios(config, &scenarios(config))
}

/// Run `scenarios` on `config.jobs` workers and report each failure with
/// the command that replays it.
fn run_scenarios(config: &SoakConfig, scenarios: &[Scenario]) -> SoakReport {
    // Every closure returns its scenario's outcome as a value, so nothing
    // aborts the drain and the pool has no error of its own to return.
    let outcomes = run_ordered(config.jobs, scenarios, |s| {
        Ok::<_, CombError>(catch_worker_panic(|| run_scenario(s)))
    })
    .unwrap_or_else(|e| vec![Err(e); scenarios.len()]);

    let mut report = SoakReport {
        config: *config,
        passed: 0,
        failures: Vec::new(),
    };
    for (s, outcome) in scenarios.iter().zip(outcomes) {
        match outcome {
            Ok(()) => report.passed += 1,
            Err(error) => report.failures.push(SoakFailure {
                iter: s.iter,
                seed: s.seed,
                scenario: s.summary.clone(),
                kind: error.kind.label(),
                message: error.message,
                repro: format!(
                    "comb soak --iters 1 --start {} --fault-seed {}",
                    s.iter, config.fault_seed
                ),
            }),
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_reproducible_and_varied() {
        let a = scenario(42, 3);
        let b = scenario(42, 3);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.cfg, b.cfg);
        // Different iterations draw different scenarios (over 8
        // iterations at least two summaries must differ).
        let summaries: std::collections::HashSet<String> =
            (0..8).map(|i| scenario(42, i).summary).collect();
        assert!(summaries.len() > 1, "scenario space collapsed");
        // Every scenario is watchdog-guarded and fault-seeded.
        assert!(a.cfg.watchdog.is_some());
        assert_eq!(a.cfg.fault.seed, a.seed);
    }

    #[test]
    fn small_soak_passes_and_reports() {
        let cfg = SoakConfig {
            iters: 4,
            start: 0,
            fault_seed: 42,
            jobs: 2,
        };
        let report = run_soak(&cfg);
        assert_eq!(report.passed + report.failures.len() as u64, cfg.iters);
        assert!(report.all_pass(), "failures: {:#?}", report.failures);
        let json = report.to_json();
        assert!(json.contains("\"suite\": \"comb-soak\""));
        assert!(json.contains("\"failures\": []"));
    }

    #[test]
    fn manifest_carries_reproducing_seed_for_failures() {
        let report = SoakReport {
            config: SoakConfig::default(),
            passed: 24,
            failures: vec![SoakFailure {
                iter: 3,
                seed: 0xDEAD,
                scenario: "pww Portals msg=102400 x=10000 fault=[loss=0.01]".into(),
                kind: "watchdog",
                message: "deadline exceeded\nlast events:\n  t=4 \"rts\"".into(),
                repro: "comb soak --iters 1 --start 3 --fault-seed 42".into(),
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"iter\": 3"));
        assert!(json.contains("\"seed\": 57005"));
        assert!(json.contains("--start 3"));
        assert!(json.contains("\\n"), "newlines must be escaped");
        assert!(json.contains("\\\"rts\\\""), "quotes must be escaped");
        let dir = std::env::temp_dir().join("comb_soak_manifest");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("soak-failures.json");
        report.write_manifest(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), json);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invariant_checks_catch_bad_metrics() {
        assert!(check_invariants(0.5, 80.0, Some(3)).is_ok());
        assert!(check_invariants(1.5, 80.0, None).is_err());
        assert!(check_invariants(f64::NAN, 80.0, None).is_err());
        assert!(check_invariants(0.5, -1.0, None).is_err());
        assert!(check_invariants(0.5, f64::INFINITY, None).is_err());
        assert!(check_invariants(0.5, 80.0, Some(0)).is_err());
    }

    #[test]
    fn sabotaged_scenarios_fail_under_their_own_seed_and_replay_alone() {
        // Every scenario runs under a 1 µs virtual deadline, which no
        // benchmark point meets, so the watchdog aborts each one.
        let sabotaged = |config: &SoakConfig| -> Vec<Scenario> {
            let mut scenarios = scenarios(config);
            for s in &mut scenarios {
                s.cfg.watchdog =
                    Some(WatchdogConfig::lenient().with_deadline(SimTime::from_nanos(1_000)));
            }
            scenarios
        };
        let config = |start, iters, jobs| SoakConfig {
            iters,
            start,
            fault_seed: 7,
            jobs,
        };
        let serial = config(0, 6, 1);
        let report = run_scenarios(&serial, &sabotaged(&serial));
        assert_eq!(report.passed, 0, "a sabotaged scenario was rescued");
        assert_eq!(report.failures.len(), 6);
        for (iter, f) in (0..).zip(&report.failures) {
            assert_eq!(f.iter, iter);
            assert_eq!(f.kind, "watchdog", "iter {iter}: {}", f.message);
            assert_eq!(f.seed, scenario(7, iter).seed, "the scenario's own seed");
            assert_eq!(
                f.repro,
                format!("comb soak --iters 1 --start {iter} --fault-seed 7")
            );
        }

        let parallel = config(0, 6, 4);
        let json = report.to_json();
        assert_eq!(
            run_scenarios(&parallel, &sabotaged(&parallel)).to_json(),
            json,
            "the manifest depends on the worker count"
        );

        let replay = config(4, 1, 1);
        let alone = run_scenarios(&replay, &sabotaged(&replay));
        assert_eq!(alone.failures, [report.failures[4].clone()]);
    }
}
