//! Method configuration and sweep helpers.

use comb_hw::{FaultPlan, HwConfig};

/// Which simulated platform a run uses.
#[derive(Debug, Clone, PartialEq)]
pub enum Transport {
    // Boxing the custom config keeps the enum a single word for the
    // common preset variants.
    /// GM 1.4 + MPICH/GM on Myrinet (OS-bypass, library progress).
    Gm,
    /// Portals 3.0 kernel module on Myrinet (interrupts, full offload).
    Portals,
    /// EMP-like NIC-offload gigabit Ethernet (extension platform).
    Emp,
    /// Any explicit hardware description.
    Custom(Box<HwConfig>),
}

impl From<HwConfig> for Transport {
    fn from(cfg: HwConfig) -> Self {
        Transport::Custom(Box::new(cfg))
    }
}

impl Transport {
    /// Resolve to a full hardware configuration.
    pub fn config(&self) -> HwConfig {
        match self {
            Transport::Gm => HwConfig::gm_myrinet(),
            Transport::Portals => HwConfig::portals_myrinet(),
            Transport::Emp => HwConfig::emp_ethernet(),
            Transport::Custom(cfg) => (**cfg).clone(),
        }
    }

    /// Platform name for labels.
    pub fn name(&self) -> String {
        self.config().name
    }
}

/// Parameters shared by both COMB methods for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodConfig {
    /// Platform under test.
    pub transport: Transport,
    /// Message payload size in bytes.
    pub msg_bytes: u64,
    /// Polling method: messages kept in flight per direction (the paper's
    /// message queue; queue size 1 degenerates to ping-pong).
    pub queue_depth: usize,
    /// PWW method: messages posted per direction per post-work-wait cycle.
    pub batch: usize,
    /// PWW method: cycles averaged per sample point.
    pub cycles: u64,
    /// Polling method: target total work iterations per point (the actual
    /// count adapts to keep at least [`MethodConfig::min_intervals`] and at
    /// most [`MethodConfig::max_intervals`] poll intervals).
    pub target_iters: u64,
    /// Polling method: minimum poll intervals per point.
    pub min_intervals: u64,
    /// Polling method: maximum poll intervals per point (bounds simulation
    /// cost at tiny poll intervals).
    pub max_intervals: u64,
    /// Worker threads used by sweeps over this configuration. `0` means
    /// auto: the platform's available parallelism (see
    /// [`crate::effective_jobs`]). Any value produces byte-identical
    /// results; only wall-clock time changes.
    pub jobs: usize,
    /// Kernel shards per simulation: every point's event kernel is split
    /// across this many conservatively synchronized shards (nodes are
    /// placed round-robin, lookahead = the transport's link latency plus
    /// its NIC's per-packet send time, see `HwConfig::lookahead`). `0`
    /// and `1` both mean the serial kernel. Like [`MethodConfig::jobs`] the
    /// knob is excluded from cell identity — the epoch merge reproduces
    /// the serial event order exactly, so any value yields byte-identical
    /// samples; only wall-clock time changes. Tracing needs the serial
    /// kernel: [`crate::run`] rejects a traced run on more than one shard.
    pub shards: usize,
    /// Fault-injection plan applied to the transport's hardware (the
    /// default injects nothing). Faulted sweeps stay byte-deterministic:
    /// the plan is seeded and every point resolves it identically.
    pub fault: FaultPlan,
    /// Kernel watchdog bounding every point of this configuration
    /// (`None`, the default, runs unwatched). A tripped watchdog aborts
    /// only the offending point — under the resilient pool its sweep
    /// keeps draining. The watchdog observes the simulation without
    /// perturbing it, so arming it cannot change any sample.
    pub watchdog: Option<comb_sim::WatchdogConfig>,
}

impl MethodConfig {
    /// Defaults matching the paper's setup for the given transport and
    /// message size.
    pub fn new(transport: Transport, msg_bytes: u64) -> MethodConfig {
        MethodConfig {
            transport,
            msg_bytes,
            queue_depth: 4,
            batch: 1,
            cycles: 12,
            target_iters: 8_000_000, // 32 ms of work at 4 ns/iter
            min_intervals: 8,
            max_intervals: 20_000,
            jobs: 0,
            shards: 0,
            fault: FaultPlan::none(),
            watchdog: None,
        }
    }

    /// The transport's hardware description with this configuration's
    /// fault plan installed (and, if the plan drops control messages, the
    /// rendezvous retry protocol armed).
    pub fn resolved_hw(&self) -> HwConfig {
        let mut hw = self.transport.config();
        if !self.fault.is_none() {
            self.fault.apply_to(&mut hw);
        }
        hw
    }

    /// Number of poll intervals to run for a given poll interval length.
    pub fn intervals_for(&self, poll_interval: u64) -> u64 {
        (self.target_iters / poll_interval.max(1)).clamp(self.min_intervals, self.max_intervals)
    }
}

/// Log-spaced integer points from `lo` to `hi` inclusive, `per_decade`
/// points per factor of ten. This is how the paper's x-axes (poll/work
/// interval in loop iterations) are swept.
///
/// The result is strictly increasing *by construction*: a candidate that
/// rounds onto (or below) the previous point is skipped, so collapsing
/// decades at the small end can never yield duplicates or inversions.
/// Both endpoints are always present.
pub fn log_spaced(lo: u64, hi: u64, per_decade: u32) -> Vec<u64> {
    assert!(lo >= 1 && hi >= lo && per_decade >= 1);
    let lg_lo = (lo as f64).log10();
    let lg_hi = (hi as f64).log10();
    let steps = ((lg_hi - lg_lo) * per_decade as f64).ceil() as usize;
    let mut points = vec![lo];
    for i in 1..=steps {
        let lg = lg_lo + (lg_hi - lg_lo) * i as f64 / steps.max(1) as f64;
        let v = (10f64.powf(lg).round() as u64).clamp(lo, hi);
        if v > *points.last().unwrap() {
            points.push(v);
        }
    }
    if *points.last().unwrap() < hi {
        points.push(hi);
    }
    points
}

/// Linearly spaced integer points from `lo` to `hi` inclusive.
pub fn lin_spaced(lo: u64, hi: u64, n: usize) -> Vec<u64> {
    assert!(n >= 2 && hi >= lo);
    (0..n)
        .map(|i| lo + (hi - lo) * i as u64 / (n as u64 - 1))
        .collect()
}

/// The paper's message sizes: 10, 50, 100 and 300 KB (Figures 4–7, 14, 15).
pub const PAPER_SIZES: [u64; 4] = [10 * 1024, 50 * 1024, 100 * 1024, 300 * 1024];

/// Serializable summary of a method configuration (for CSV headers).
#[derive(Debug, Clone)]
pub struct ConfigSummary {
    /// Platform name.
    pub platform: String,
    /// Message size in bytes.
    pub msg_bytes: u64,
    /// Queue depth (polling).
    pub queue_depth: usize,
    /// Batch size (PWW).
    pub batch: usize,
}

impl From<&MethodConfig> for ConfigSummary {
    fn from(c: &MethodConfig) -> Self {
        ConfigSummary {
            platform: c.transport.name(),
            msg_bytes: c.msg_bytes,
            queue_depth: c.queue_depth,
            batch: c.batch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_spaced_covers_range_monotonically() {
        let pts = log_spaced(10, 100_000_000, 4);
        assert_eq!(*pts.first().unwrap(), 10);
        assert_eq!(*pts.last().unwrap(), 100_000_000);
        assert!(
            pts.windows(2).all(|w| w[0] < w[1]),
            "must be strictly increasing"
        );
        // 7 decades x 4 points, plus the endpoint.
        assert!(
            pts.len() >= 25 && pts.len() <= 30,
            "got {} points",
            pts.len()
        );
    }

    #[test]
    fn log_spaced_single_point() {
        assert_eq!(log_spaced(100, 100, 4), vec![100]);
    }

    #[test]
    fn intervals_adapt_to_poll_length() {
        let cfg = MethodConfig::new(Transport::Gm, 100 * 1024);
        assert_eq!(cfg.intervals_for(10), cfg.max_intervals);
        assert_eq!(cfg.intervals_for(100_000_000), cfg.min_intervals);
        assert_eq!(cfg.intervals_for(1_000_000), 8);
    }

    #[test]
    fn lin_spaced_covers_endpoints() {
        let pts = lin_spaced(0, 500_000, 6);
        assert_eq!(pts, vec![0, 100_000, 200_000, 300_000, 400_000, 500_000]);
        assert_eq!(lin_spaced(5, 5, 2), vec![5, 5]);
    }

    #[test]
    fn transports_resolve() {
        assert_eq!(Transport::Gm.name(), "GM");
        assert_eq!(Transport::Portals.name(), "Portals");
        assert_eq!(Transport::Emp.name(), "EMP");
        let custom = Transport::from(HwConfig::gm_myrinet());
        assert_eq!(custom.name(), "GM");
    }
}
