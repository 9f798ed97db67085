//! Availability-under-degraded-network sweeps.
//!
//! Where the paper's figures sweep the *application's* behaviour (poll or
//! work interval) on a healthy network, these sweeps hold the application
//! fixed and degrade the *network*: one polling-method point per fault
//! severity, so bandwidth and CPU availability can be plotted against loss
//! rate or stall duty-cycle. Points fan out over the same deterministic
//! worker pool as the paper sweeps, so degradation campaigns are
//! byte-identical at any `--jobs` value.

use crate::metrics::PollingSample;
use crate::polling::PollingParams;
use crate::runner::{pool, run, RunError, RunSpec};
use crate::sweep::MethodConfig;
use comb_hw::{FaultPlan, LossSpec, StallSpec};
use comb_sim::SimDuration;

/// Which fault severity a degradation sweep varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationAxis {
    /// Stationary packet-loss rate. Keeps the shape of the configuration's
    /// loss process (burst length, seed); a plan without a loss spec gets
    /// the default burst process.
    LossRate,
    /// NIC stall duty-cycle. Keeps the configured stall period; a plan
    /// without a stall spec gets a 1 ms period.
    StallDuty,
}

impl DegradationAxis {
    /// Axis label for CSV columns and plots.
    pub fn label(&self) -> &'static str {
        match self {
            DegradationAxis::LossRate => "loss_rate",
            DegradationAxis::StallDuty => "stall_duty",
        }
    }
}

/// Loss rates swept by default: healthy through badly degraded.
pub const LOSS_RATES: [f64; 7] = [0.0, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1];

/// Stall duty-cycles swept by default.
pub const STALL_DUTIES: [f64; 7] = [0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5];

/// One point of a degradation sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationPoint {
    /// Fault severity (loss rate or stall duty, per the axis).
    pub x: f64,
    /// The polling-method sample measured at that severity.
    pub sample: PollingSample,
}

/// The fault plan for one severity along `axis`, derived from `base`.
pub fn plan_at(base: &FaultPlan, axis: DegradationAxis, x: f64) -> FaultPlan {
    let mut plan = base.clone();
    match axis {
        DegradationAxis::LossRate => {
            plan.loss = if x <= 0.0 {
                None
            } else {
                Some(match base.loss {
                    Some(spec) => spec.with_rate(x),
                    None => LossSpec::Burst {
                        rate: x,
                        burst_len: 8.0,
                    },
                })
            };
        }
        DegradationAxis::StallDuty => {
            let period = base
                .stall
                .map(|s| s.period)
                .unwrap_or(SimDuration::from_micros(1000));
            plan.stall = if x <= 0.0 {
                None
            } else {
                Some(StallSpec { period, duty: x })
            };
        }
    }
    plan
}

/// Run one polling-method point per severity in `xs`, at a fixed poll
/// interval, fanning points over [`MethodConfig::jobs`] workers. Results
/// are in input order and byte-identical to a serial run.
pub fn degradation_sweep(
    cfg: &MethodConfig,
    axis: DegradationAxis,
    xs: &[f64],
    poll_interval: u64,
) -> Result<Vec<DegradationPoint>, RunError> {
    pool::run_ordered(cfg.jobs, xs, |&x| {
        let mut point_cfg = cfg.clone();
        point_cfg.fault = plan_at(&cfg.fault, axis, x);
        let point = PollingParams::new(&point_cfg, poll_interval);
        let sample = run(&point, &RunSpec::of(&point_cfg))?.sample;
        Ok(DegradationPoint { x, sample })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::Transport;

    fn quick_cfg() -> MethodConfig {
        let mut cfg = MethodConfig::new(Transport::Gm, 50 * 1024);
        cfg.target_iters = 200_000;
        cfg.max_intervals = 300;
        cfg
    }

    #[test]
    fn plan_at_zero_severity_is_clean() {
        let base = FaultPlan::none();
        assert!(plan_at(&base, DegradationAxis::LossRate, 0.0).is_none());
        assert!(plan_at(&base, DegradationAxis::StallDuty, 0.0).is_none());
    }

    #[test]
    fn plan_at_preserves_process_shape() {
        let base = FaultPlan::from_specs(&["loss=uniform:0.01", "stall=500:0.1"], None).unwrap();
        let p = plan_at(&base, DegradationAxis::LossRate, 0.05);
        assert_eq!(p.loss, Some(LossSpec::Uniform { rate: 0.05 }));
        let p = plan_at(&base, DegradationAxis::StallDuty, 0.3);
        assert_eq!(
            p.stall,
            Some(StallSpec {
                period: SimDuration::from_micros(500),
                duty: 0.3
            })
        );
    }

    #[test]
    fn bandwidth_degrades_with_loss() {
        let cfg = quick_cfg();
        let pts = degradation_sweep(&cfg, DegradationAxis::LossRate, &[0.0, 0.1], 10_000).unwrap();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].sample.faults.lost_packets, 0);
        assert!(pts[1].sample.faults.lost_packets > 0);
        assert!(
            pts[1].sample.bandwidth_mbs < pts[0].sample.bandwidth_mbs,
            "10% loss must cost bandwidth: {} vs {}",
            pts[1].sample.bandwidth_mbs,
            pts[0].sample.bandwidth_mbs
        );
    }

    #[test]
    fn degradation_sweep_is_deterministic_across_jobs() {
        let mut cfg = quick_cfg();
        let xs = [0.0, 0.02, 0.1];
        cfg.jobs = 1;
        let serial = degradation_sweep(&cfg, DegradationAxis::LossRate, &xs, 10_000).unwrap();
        cfg.jobs = 4;
        let parallel = degradation_sweep(&cfg, DegradationAxis::LossRate, &xs, 10_000).unwrap();
        assert_eq!(serial, parallel);
    }
}
