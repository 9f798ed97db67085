//! # comb-core — the COMB benchmark suite
//!
//! The paper's primary contribution: two methods that characterize a
//! platform's ability to overlap MPI communication with computation.
//!
//! * [`run_polling_point`] — the **Polling method** (Section 2.1): the
//!   worker interleaves calibrated work with non-blocking completion tests
//!   on a queue of in-flight messages; reports bandwidth and CPU
//!   availability as functions of the poll interval.
//! * [`run_pww_point`] — the **Post-Work-Wait method** (Section 2.2): post a
//!   batch, compute with no MPI calls, wait; the per-phase durations detect
//!   *application offload* and locate communication bottlenecks. The
//!   `test_in_work` flag gives the Section 4.3 modified variant.
//!
//! Both are shorthands for [`run`], the one runner every benchmark point
//! goes through. A point is a [`Scenario`] — [`PollingParams`],
//! [`PwwParams`], [`InterleavedParams`], [`PollingPairs`], [`HaloPoint`],
//! [`NetperfParams`], [`PingPong`] — and a [`RunSpec`] says how to run it:
//! hardware, kernel shards, tracing, watchdog. Sweeps are [`run_ordered`]
//! over [`run`].
//!
//! ```
//! use comb_core::{run, run_polling_point, run_pww_point, MethodConfig, PwwParams, RunSpec, Transport};
//!
//! let mut cfg = MethodConfig::new(Transport::Portals, 100 * 1024);
//! cfg.target_iters = 2_000_000; // keep the doctest quick
//! let poll = run_polling_point(&cfg, 10_000).unwrap();
//! assert!(poll.bandwidth_mbs > 0.0);
//!
//! cfg.cycles = 4;
//! let pww = run_pww_point(&cfg, 1_000_000, false).unwrap();
//! assert!(pww.wait_per_msg < pww.work_with_mh); // offload: work absorbs messaging
//!
//! // The same point through the runner, with its trace recorded.
//! let spec = RunSpec { trace: true, ..RunSpec::of(&cfg) };
//! let traced = run(&PwwParams::new(&cfg, 1_000_000, false), &spec).unwrap();
//! assert_eq!(traced.sample, pww);
//! assert!(!traced.records.is_empty());
//! ```

#![warn(missing_docs)]

pub mod adaptive;
pub mod cache;
pub mod codec;
pub mod degradation;
pub mod error;
pub mod halo;
pub mod latency;
pub mod metrics;
pub mod netperf;
pub mod polling;
pub mod pww;
pub mod runner;
mod sha256;
pub mod stats;
pub mod sweep;

pub use adaptive::{run_adaptive_cells, AdaptiveCell, AdaptiveParams, AdaptiveStats, CellEstimate};
pub use cache::{
    gc_store_with_max_age, run_cell_cached, CacheMode, CacheOutcome, CacheStats, CampaignDesc,
    CellCache, CellKey, CellMethod,
};
pub use codec::PointSample;
pub use degradation::{
    degradation_sweep, DegradationAxis, DegradationPoint, LOSS_RATES, STALL_DUTIES,
};
pub use error::{CombError, ErrorKind};
pub use halo::{HaloParams, HaloPoint};
pub use latency::{run_pingpong, LatencySample, PingPong};
pub use metrics::{availability, bandwidth_mbs, FaultCounters, PollingSample, PwwSample};
pub use netperf::{NetperfParams, NetperfSample};
pub use polling::{PollingPairs, PollingParams, DATA_TAG, STOP_TAG};
pub use pww::{InterleavedParams, PwwParams};
pub use runner::pool::{
    available_jobs, effective_jobs, run_cells, run_ordered, AdmissionGate, AdmissionPermit,
    CellOutcome, RetryPolicy,
};
pub use runner::{
    polling_sweep, pww_sweep, run, run_polling_pairs, run_polling_point, run_pww_point, RunError,
    RunSpec, Scenario, SimRig, TracedRun,
};
pub use stats::{
    mean_ci, t_cdf, t_quantile, MeanCi, QuantileWindow, StopDecision, StoppingRule, Welford,
};
pub use sweep::{lin_spaced, log_spaced, ConfigSummary, MethodConfig, Transport, PAPER_SIZES};
