//! Traced benchmark runs: the same points as [`crate::runner`], with the
//! typed event stream captured alongside the sample.
//!
//! A traced run builds its cluster around an *enabled* [`Tracer`]; every
//! component (application phases, MPI engines, NICs, the switch fabric)
//! shares that sink, so the returned records interleave the whole story of
//! the point in virtual-time order. Tracing changes no simulation decision
//! — a traced sample is identical to the untraced sample for the same
//! configuration — and traced sweeps go through the same ordered pool as
//! untraced ones, so their output is byte-identical at any `--jobs`.

use crate::metrics::{PollingSample, PwwSample};
use crate::polling::{self, PollingParams};
use crate::pww::{self, PwwParams};
use crate::runner::{collect_faults, drive, pool, RunError};
use crate::sweep::MethodConfig;
use comb_hw::{Cluster, HwConfig, NodeId};
use comb_mpi::{MpiWorld, Rank};
use comb_sim::Simulation;
use comb_trace::{TraceRecord, Tracer};

/// How many trailing trace events a watchdog diagnostic carries.
const WATCHDOG_TAIL: usize = 10;

/// Drive a traced simulation; if the configuration's watchdog aborts it,
/// attach the tail of the captured event stream so the diagnostic shows
/// what the simulation was doing when it livelocked or overran.
fn drive_traced(sim: &mut Simulation, cfg: &MethodConfig, tracer: &Tracer) -> Result<(), RunError> {
    match drive(sim, cfg) {
        Err(RunError::Watchdog { error, .. }) => Err(RunError::Watchdog {
            error,
            diagnostic: trace_tail(&tracer.records()),
        }),
        other => other,
    }
}

fn trace_tail(records: &[TraceRecord]) -> String {
    if records.is_empty() {
        return String::new();
    }
    let tail = &records[records.len().saturating_sub(WATCHDOG_TAIL)..];
    format!(
        "last {} trace events:\n{}",
        tail.len(),
        comb_trace::csv_export(tail)
    )
}

/// One benchmark point plus the trace it produced.
#[derive(Debug, Clone, PartialEq)]
pub struct TracedRun<S> {
    /// The point's sample, identical to an untraced run's.
    pub sample: S,
    /// Every event emitted during the run, in virtual-time order.
    pub records: Vec<TraceRecord>,
}

/// Run one polling-method point with tracing enabled.
pub fn run_polling_point_traced(
    cfg: &MethodConfig,
    poll_interval: u64,
) -> Result<TracedRun<PollingSample>, RunError> {
    run_polling_point_traced_on(&cfg.resolved_hw(), cfg, poll_interval)
}

/// [`run_polling_point_traced`] with the transport already resolved.
pub fn run_polling_point_traced_on(
    hw: &HwConfig,
    cfg: &MethodConfig,
    poll_interval: u64,
) -> Result<TracedRun<PollingSample>, RunError> {
    let params = PollingParams {
        msg_bytes: cfg.msg_bytes,
        queue_depth: cfg.queue_depth,
        poll_interval: poll_interval.max(1),
        intervals: cfg.intervals_for(poll_interval),
    };
    let tracer = Tracer::enabled();
    let mut sim = Simulation::new();
    let cluster = Cluster::build_traced(&sim.handle(), hw, 2, tracer.clone());
    let world = MpiWorld::attach(&cluster);
    let probe = sim.probe::<PollingSample>();

    let (m0, cpu0, p0, pr) = (
        world.proc(Rank(0)),
        cluster.node(NodeId(0)).cpu.clone(),
        params,
        probe.clone(),
    );
    sim.spawn("worker", move |ctx| {
        pr.set(polling::worker(ctx, &m0, &cpu0, &p0, Rank(1)));
        m0.finalize();
    });
    let (m1, p1) = (world.proc(Rank(1)), params);
    sim.spawn("support", move |ctx| {
        polling::support(ctx, &m1, &p1, Rank(0));
        m1.finalize();
    });

    drive_traced(&mut sim, cfg, &tracer)?;
    let mut sample = probe.take().ok_or(RunError::NoResult)?;
    sample.faults = collect_faults(&cluster, &world);
    Ok(TracedRun {
        sample,
        records: tracer.records(),
    })
}

/// Run one PWW-method point with tracing enabled. `test_in_work` selects
/// the modified variant, as in [`crate::run_pww_point`].
pub fn run_pww_point_traced(
    cfg: &MethodConfig,
    work_interval: u64,
    test_in_work: bool,
) -> Result<TracedRun<PwwSample>, RunError> {
    run_pww_point_traced_on(&cfg.resolved_hw(), cfg, work_interval, test_in_work)
}

/// [`run_pww_point_traced`] with the transport already resolved.
pub fn run_pww_point_traced_on(
    hw: &HwConfig,
    cfg: &MethodConfig,
    work_interval: u64,
    test_in_work: bool,
) -> Result<TracedRun<PwwSample>, RunError> {
    let params = PwwParams {
        msg_bytes: cfg.msg_bytes,
        batch: cfg.batch,
        cycles: cfg.cycles,
        work_interval: work_interval.max(1),
        test_in_work,
    };
    let tracer = Tracer::enabled();
    let mut sim = Simulation::new();
    let cluster = Cluster::build_traced(&sim.handle(), hw, 2, tracer.clone());
    let world = MpiWorld::attach(&cluster);
    let probe = sim.probe::<PwwSample>();

    let (m0, cpu0, p0, pr) = (
        world.proc(Rank(0)),
        cluster.node(NodeId(0)).cpu.clone(),
        params,
        probe.clone(),
    );
    sim.spawn("worker", move |ctx| {
        pr.set(pww::worker(ctx, &m0, &cpu0, &p0, Rank(1)));
        m0.finalize();
    });
    let (m1, p1) = (world.proc(Rank(1)), params);
    sim.spawn("support", move |ctx| {
        pww::support(ctx, &m1, &p1, Rank(0));
        m1.finalize();
    });

    drive_traced(&mut sim, cfg, &tracer)?;
    let mut sample = probe.take().ok_or(RunError::NoResult)?;
    sample.faults = collect_faults(&cluster, &world);
    Ok(TracedRun {
        sample,
        records: tracer.records(),
    })
}

/// Traced polling sweep on [`MethodConfig::jobs`] workers; results are in
/// input order and byte-identical to a serial traced sweep.
pub fn polling_sweep_traced(
    cfg: &MethodConfig,
    intervals: &[u64],
) -> Result<Vec<TracedRun<PollingSample>>, RunError> {
    let hw = cfg.resolved_hw();
    pool::run_ordered(cfg.jobs, intervals, |&p| {
        run_polling_point_traced_on(&hw, cfg, p)
    })
}

/// Traced PWW sweep on [`MethodConfig::jobs`] workers; results are in
/// input order and byte-identical to a serial traced sweep.
pub fn pww_sweep_traced(
    cfg: &MethodConfig,
    intervals: &[u64],
    test_in_work: bool,
) -> Result<Vec<TracedRun<PwwSample>>, RunError> {
    let hw = cfg.resolved_hw();
    pool::run_ordered(cfg.jobs, intervals, |&w| {
        run_pww_point_traced_on(&hw, cfg, w, test_in_work)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::Transport;
    use comb_trace::{check_well_nested, Phase, TraceAnalysis, TraceEvent};

    fn cfg() -> MethodConfig {
        let mut c = MethodConfig::new(Transport::Gm, 100 * 1024);
        c.cycles = 4;
        c
    }

    #[test]
    fn traced_sample_matches_untraced_sample() {
        let plain = crate::runner::run_pww_point(&cfg(), 1_000_000, false).unwrap();
        let traced = run_pww_point_traced(&cfg(), 1_000_000, false).unwrap();
        assert_eq!(plain, traced.sample, "tracing must not perturb the run");
        assert!(!traced.records.is_empty());
    }

    #[test]
    fn pww_trace_contains_all_phases_and_well_nested_frames() {
        let traced = run_pww_point_traced(&cfg(), 1_000_000, false).unwrap();
        for phase in [Phase::DryRun, Phase::Post, Phase::Work, Phase::Wait] {
            assert!(
                traced.records.iter().any(
                    |r| matches!(r.event, TraceEvent::PhaseBegin { phase: p, .. } if p == phase)
                ),
                "missing phase {phase:?}"
            );
        }
        let spans = comb_trace::build_spans(&traced.records);
        check_well_nested(&spans.frames).expect("frames must nest");
        assert!(!spans.asyncs.is_empty(), "message spans must exist");
    }

    #[test]
    fn polling_trace_carries_poll_intervals_and_analysis_overlaps() {
        let mut c = cfg();
        c.target_iters = 500_000;
        c.max_intervals = 500;
        let traced = run_polling_point_traced(&c, 10_000).unwrap();
        let a = TraceAnalysis::from_records(&traced.records);
        assert!(
            a.phases.iter().any(|p| p.phase == Phase::PollInterval),
            "poll intervals must appear in the breakdown"
        );
        assert!(a.total_bytes > 0);
        assert!(
            a.overlap_efficiency > 0.5,
            "GM polling overlaps most bytes with work, got {}",
            a.overlap_efficiency
        );
    }

    #[test]
    fn traced_sweeps_are_identical_across_jobs() {
        let mut c = cfg();
        c.cycles = 2;
        let intervals = [100_000u64, 1_000_000];
        c.jobs = 1;
        let serial = pww_sweep_traced(&c, &intervals, false).unwrap();
        c.jobs = 8;
        let parallel = pww_sweep_traced(&c, &intervals, false).unwrap();
        assert_eq!(serial, parallel);
    }
}
