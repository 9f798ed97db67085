//! Orchestration: build a two-node cluster, run one benchmark point on it,
//! collect the sample.
//!
//! Every point runs in a fresh simulation (fresh cluster, fresh MPI world),
//! exactly as the paper restarts the benchmark per configuration; points are
//! therefore independent and individually deterministic. That independence
//! is what [`pool`] exploits: sweeps fan their points out over a bounded
//! worker pool and reassemble the samples in input order, so a parallel
//! sweep is byte-identical to a serial one.

pub mod pool;

use crate::metrics::{FaultCounters, PollingSample, PwwSample};
use crate::polling::{self, PollingParams};
use crate::pww::{self, InterleavedParams, PwwParams};
use crate::sweep::MethodConfig;
use comb_hw::{Cluster, HwConfig, NodeId};
use comb_mpi::{MpiWorld, Rank};
use comb_sim::{Probe, ProcCtx, ShardedSimulation, SimError, SimHandle, Simulation};
use std::fmt;

/// Errors from running a benchmark point.
#[derive(Debug)]
pub enum RunError {
    /// The underlying simulation failed (deadlock, panic, event limit).
    Sim(SimError),
    /// The worker finished without producing a sample (a harness bug).
    NoResult,
    /// A sweep worker thread panicked outside the simulation.
    WorkerPanic {
        /// The panic message.
        message: String,
    },
    /// The kernel watchdog aborted the point (livelock or virtual-time
    /// deadline overrun).
    Watchdog {
        /// The watchdog [`SimError`] that fired.
        error: SimError,
        /// Extra context — traced runs attach the last trace events
        /// leading up to the abort; empty otherwise.
        diagnostic: String,
    },
    /// The campaign's interruption budget was spent before this cell could
    /// compute (see [`crate::cache::run_cell_cached`]).
    Interrupted,
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Sim(e) => write!(f, "simulation error: {e}"),
            RunError::NoResult => write!(f, "worker produced no sample"),
            RunError::WorkerPanic { message } => {
                write!(f, "sweep worker panicked: {message}")
            }
            RunError::Watchdog { error, diagnostic } => {
                write!(f, "{error}")?;
                if !diagnostic.is_empty() {
                    write!(f, "\n{diagnostic}")?;
                }
                Ok(())
            }
            RunError::Interrupted => f.write_str(
                "campaign interrupted; finished cells are in the cell cache, rerun to resume",
            ),
        }
    }
}

impl std::error::Error for RunError {}

impl From<SimError> for RunError {
    fn from(e: SimError) -> Self {
        if e.is_watchdog() {
            RunError::Watchdog {
                error: e,
                diagnostic: String::new(),
            }
        } else {
            RunError::Sim(e)
        }
    }
}

/// Drive a built simulation to completion, under the configuration's
/// watchdog when one is set. Both the plain and traced runners go through
/// here so watchdog semantics cannot drift between them.
pub(crate) fn drive(sim: &mut Simulation, cfg: &MethodConfig) -> Result<(), RunError> {
    match &cfg.watchdog {
        Some(wd) => sim.run_with_watchdog(wd)?,
        None => sim.run()?,
    };
    Ok(())
}

/// A simulation ready to host one benchmark point: either the serial
/// kernel or a sharded one, chosen by [`MethodConfig::shards`]. The two
/// produce byte-identical samples — the sharded kernel's epoch merge
/// reproduces the serial event order exactly — so everything above this
/// enum is shard-agnostic.
pub(crate) enum SimRig {
    /// The classic single-threaded kernel.
    Serial(Simulation),
    /// Conservatively synchronized shards, one worker thread each.
    Sharded(ShardedSimulation),
}

impl SimRig {
    /// Build a rig and an `n`-node cluster spread across its shards
    /// (node `i` lands on shard `i % shards`). The requested shard count
    /// is resolved via [`pool::effective_shards`] and clamped to the
    /// node count — empty shards would only add barrier overhead. One or
    /// fewer shards yields the serial kernel unchanged.
    pub(crate) fn build(hw: &HwConfig, requested_shards: usize, n: usize) -> (SimRig, Cluster) {
        let shards = pool::effective_shards(requested_shards).min(n);
        if shards <= 1 {
            let sim = Simulation::new();
            let cluster = Cluster::build(&sim.handle(), hw, n);
            (SimRig::Serial(sim), cluster)
        } else {
            let sim = ShardedSimulation::new(shards, hw.lookahead());
            let handles: Vec<SimHandle> = (0..shards).map(|s| sim.handle(s)).collect();
            let cluster = Cluster::build_sharded(&handles, hw, n, comb_trace::Tracer::new());
            (SimRig::Sharded(sim), cluster)
        }
    }

    /// A result probe usable from any shard.
    pub(crate) fn probe<T>(&self) -> Probe<T> {
        Probe::new()
    }

    /// Spawn a process on the shard hosting cluster node `node`.
    pub(crate) fn spawn<F>(&mut self, node: usize, name: &str, f: F)
    where
        F: FnOnce(&ProcCtx) + Send + 'static,
    {
        match self {
            SimRig::Serial(sim) => {
                sim.spawn(name, f);
            }
            SimRig::Sharded(sim) => {
                let shard = node % sim.shard_count();
                sim.spawn(shard, name, f);
            }
        }
    }

    /// Drive to completion with no watchdog — for scenarios that have no
    /// [`MethodConfig`] (e.g. the halo-exchange application pattern).
    pub(crate) fn drive_unwatched(&mut self) -> Result<(), RunError> {
        match self {
            SimRig::Serial(sim) => sim.run()?,
            SimRig::Sharded(sim) => sim.run()?,
        };
        Ok(())
    }

    /// Drive to completion under the configuration's watchdog when one is
    /// set, mirroring [`drive`].
    pub(crate) fn drive(&mut self, cfg: &MethodConfig) -> Result<(), RunError> {
        match (self, &cfg.watchdog) {
            (SimRig::Serial(sim), Some(wd)) => sim.run_with_watchdog(wd)?,
            (SimRig::Serial(sim), None) => sim.run()?,
            (SimRig::Sharded(sim), Some(wd)) => sim.run_with_watchdog(wd)?,
            (SimRig::Sharded(sim), None) => sim.run()?,
        };
        Ok(())
    }
}

/// Sum the fault-injection activity of every NIC and every rank after a
/// run; the sample carries it so faulted campaigns can report recovery
/// behaviour alongside bandwidth and availability.
pub(crate) fn collect_faults(cluster: &Cluster, world: &MpiWorld) -> FaultCounters {
    let mut f = FaultCounters::default();
    for node in &cluster.nodes {
        let s = node.nic.stats();
        f.lost_packets += s.lost_packets;
        f.retransmissions += s.retransmissions;
        f.ctl_dropped += s.ctl_dropped;
        f.storm_interrupts += s.storm_interrupts;
    }
    for r in 0..world.size() {
        f.rndv_retries += world.proc(Rank(r)).stats().rndv_retries;
    }
    f
}

/// Run one polling-method point at the given poll interval (in loop
/// iterations).
pub fn run_polling_point(
    cfg: &MethodConfig,
    poll_interval: u64,
) -> Result<PollingSample, RunError> {
    run_polling_point_on(&cfg.resolved_hw(), cfg, poll_interval)
}

/// [`run_polling_point`] with the transport already resolved; sweeps use
/// this so the hardware description is built once, not per point.
pub fn run_polling_point_on(
    hw: &HwConfig,
    cfg: &MethodConfig,
    poll_interval: u64,
) -> Result<PollingSample, RunError> {
    let params = PollingParams {
        msg_bytes: cfg.msg_bytes,
        queue_depth: cfg.queue_depth,
        poll_interval: poll_interval.max(1),
        intervals: cfg.intervals_for(poll_interval),
    };
    let (mut rig, cluster) = SimRig::build(hw, cfg.shards, 2);
    let world = MpiWorld::attach(&cluster);
    let probe = rig.probe::<PollingSample>();

    let (m0, cpu0, p0, pr) = (
        world.proc(Rank(0)),
        cluster.node(NodeId(0)).cpu.clone(),
        params,
        probe.clone(),
    );
    rig.spawn(0, "worker", move |ctx| {
        pr.set(polling::worker(ctx, &m0, &cpu0, &p0, Rank(1)));
        m0.finalize();
    });
    let (m1, p1) = (world.proc(Rank(1)), params);
    rig.spawn(1, "support", move |ctx| {
        polling::support(ctx, &m1, &p1, Rank(0));
        m1.finalize();
    });

    rig.drive(cfg)?;
    let mut sample = probe.take().ok_or(RunError::NoResult)?;
    sample.faults = collect_faults(&cluster, &world);
    Ok(sample)
}

/// Run one PWW-method point at the given work interval (in loop
/// iterations). `test_in_work` selects the paper's Section 4.3 modified
/// variant with one `MPI_Test` inside the work phase.
pub fn run_pww_point(
    cfg: &MethodConfig,
    work_interval: u64,
    test_in_work: bool,
) -> Result<PwwSample, RunError> {
    run_pww_point_on(&cfg.resolved_hw(), cfg, work_interval, test_in_work)
}

/// [`run_pww_point`] with the transport already resolved; sweeps use this
/// so the hardware description is built once, not per point.
pub fn run_pww_point_on(
    hw: &HwConfig,
    cfg: &MethodConfig,
    work_interval: u64,
    test_in_work: bool,
) -> Result<PwwSample, RunError> {
    let params = PwwParams {
        msg_bytes: cfg.msg_bytes,
        batch: cfg.batch,
        cycles: cfg.cycles,
        work_interval: work_interval.max(1),
        test_in_work,
    };
    let (mut rig, cluster) = SimRig::build(hw, cfg.shards, 2);
    let world = MpiWorld::attach(&cluster);
    let probe = rig.probe::<PwwSample>();

    let (m0, cpu0, p0, pr) = (
        world.proc(Rank(0)),
        cluster.node(NodeId(0)).cpu.clone(),
        params,
        probe.clone(),
    );
    rig.spawn(0, "worker", move |ctx| {
        pr.set(pww::worker(ctx, &m0, &cpu0, &p0, Rank(1)));
        m0.finalize();
    });
    let (m1, p1) = (world.proc(Rank(1)), params);
    rig.spawn(1, "support", move |ctx| {
        pww::support(ctx, &m1, &p1, Rank(0));
        m1.finalize();
    });

    rig.drive(cfg)?;
    let mut sample = probe.take().ok_or(RunError::NoResult)?;
    sample.faults = collect_faults(&cluster, &world);
    Ok(sample)
}

/// Run one *interleaved* PWW point (paper Section 4.3's historical
/// variant) with `interleave` batches kept in flight.
pub fn run_pww_interleaved(
    cfg: &MethodConfig,
    work_interval: u64,
    interleave: usize,
) -> Result<PwwSample, RunError> {
    let params = InterleavedParams {
        base: PwwParams {
            msg_bytes: cfg.msg_bytes,
            batch: cfg.batch,
            cycles: cfg.cycles,
            work_interval: work_interval.max(1),
            test_in_work: false,
        },
        interleave,
    };
    let hw = cfg.resolved_hw();
    let (mut rig, cluster) = SimRig::build(&hw, cfg.shards, 2);
    let world = MpiWorld::attach(&cluster);
    let probe = rig.probe::<PwwSample>();

    let (m0, cpu0, p0, pr) = (
        world.proc(Rank(0)),
        cluster.node(NodeId(0)).cpu.clone(),
        params,
        probe.clone(),
    );
    rig.spawn(0, "worker", move |ctx| {
        pr.set(pww::worker_interleaved(ctx, &m0, &cpu0, &p0, Rank(1)));
        m0.finalize();
    });
    let (m1, p1) = (world.proc(Rank(1)), params);
    rig.spawn(1, "support", move |ctx| {
        pww::support_interleaved(ctx, &m1, &p1, Rank(0));
        m1.finalize();
    });

    rig.drive(cfg)?;
    let mut sample = probe.take().ok_or(RunError::NoResult)?;
    sample.faults = collect_faults(&cluster, &world);
    Ok(sample)
}

/// Run `pairs` independent polling exchanges inside ONE simulation:
/// pair `p` puts its worker on node `2p` and its support on node
/// `2p + 1`, all sharing a fabric. A classic two-node point caps useful
/// shards at 2, so this is the workload that exercises — and benchmarks —
/// higher shard counts ([`MethodConfig::shards`]; nodes land on shards
/// round-robin). Samples come back in pair order and are byte-identical
/// at every shard count. Fault counters are left zero: the pairs share
/// one fabric, so per-pair attribution is not meaningful.
pub fn run_polling_pairs(
    cfg: &MethodConfig,
    poll_interval: u64,
    pairs: usize,
) -> Result<Vec<PollingSample>, RunError> {
    assert!(pairs >= 1, "need at least one worker/support pair");
    let params = PollingParams {
        msg_bytes: cfg.msg_bytes,
        queue_depth: cfg.queue_depth,
        poll_interval: poll_interval.max(1),
        intervals: cfg.intervals_for(poll_interval),
    };
    let hw = cfg.resolved_hw();
    let (mut rig, cluster) = SimRig::build(&hw, cfg.shards, 2 * pairs);
    let world = MpiWorld::attach(&cluster);
    let probes: Vec<Probe<PollingSample>> = (0..pairs).map(|_| rig.probe()).collect();

    for (p, probe) in probes.iter().enumerate() {
        let (wr, sr) = (Rank(2 * p), Rank(2 * p + 1));
        let (m0, cpu0, p0, pr) = (
            world.proc(wr),
            cluster.node(NodeId(2 * p)).cpu.clone(),
            params,
            probe.clone(),
        );
        rig.spawn(2 * p, &format!("worker{p}"), move |ctx| {
            pr.set(polling::worker(ctx, &m0, &cpu0, &p0, sr));
            m0.finalize();
        });
        let (m1, p1) = (world.proc(sr), params);
        rig.spawn(2 * p + 1, &format!("support{p}"), move |ctx| {
            polling::support(ctx, &m1, &p1, wr);
            m1.finalize();
        });
    }

    rig.drive(cfg)?;
    probes
        .into_iter()
        .map(|p| p.take().ok_or(RunError::NoResult))
        .collect()
}

/// Run a polling sweep over the given poll intervals, on
/// [`MethodConfig::jobs`] workers (`0` = auto). Results are in input
/// order and byte-identical to a serial sweep.
pub fn polling_sweep(
    cfg: &MethodConfig,
    intervals: &[u64],
) -> Result<Vec<PollingSample>, RunError> {
    polling_sweep_parallel(cfg, intervals, cfg.jobs)
}

/// [`polling_sweep`] with an explicit worker count overriding
/// [`MethodConfig::jobs`].
pub fn polling_sweep_parallel(
    cfg: &MethodConfig,
    intervals: &[u64],
    jobs: usize,
) -> Result<Vec<PollingSample>, RunError> {
    let hw = cfg.resolved_hw();
    pool::run_ordered(jobs, intervals, |&p| run_polling_point_on(&hw, cfg, p))
}

/// Run a PWW sweep over the given work intervals, on
/// [`MethodConfig::jobs`] workers (`0` = auto). Results are in input
/// order and byte-identical to a serial sweep.
pub fn pww_sweep(
    cfg: &MethodConfig,
    intervals: &[u64],
    test_in_work: bool,
) -> Result<Vec<PwwSample>, RunError> {
    pww_sweep_parallel(cfg, intervals, test_in_work, cfg.jobs)
}

/// [`pww_sweep`] with an explicit worker count overriding
/// [`MethodConfig::jobs`].
pub fn pww_sweep_parallel(
    cfg: &MethodConfig,
    intervals: &[u64],
    test_in_work: bool,
    jobs: usize,
) -> Result<Vec<PwwSample>, RunError> {
    let hw = cfg.resolved_hw();
    pool::run_ordered(jobs, intervals, |&w| {
        run_pww_point_on(&hw, cfg, w, test_in_work)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::Transport;

    #[test]
    fn points_are_deterministic_across_runs() {
        let mut cfg = MethodConfig::new(Transport::Portals, 50 * 1024);
        cfg.target_iters = 500_000;
        cfg.max_intervals = 500;
        let a = run_polling_point(&cfg, 20_000).unwrap();
        let b = run_polling_point(&cfg, 20_000).unwrap();
        assert_eq!(a, b);
        let c = run_pww_point(&cfg, 200_000, false).unwrap();
        let d = run_pww_point(&cfg, 200_000, false).unwrap();
        assert_eq!(c, d);
    }

    #[test]
    fn sweep_preserves_point_order_and_length() {
        let mut cfg = MethodConfig::new(Transport::Gm, 10 * 1024);
        cfg.target_iters = 200_000;
        cfg.max_intervals = 300;
        cfg.cycles = 3;
        let intervals = [1_000u64, 10_000, 100_000];
        let ps = polling_sweep(&cfg, &intervals).unwrap();
        assert_eq!(ps.len(), 3);
        for (s, &i) in ps.iter().zip(&intervals) {
            assert_eq!(s.poll_interval, i);
        }
        let ws = pww_sweep(&cfg, &intervals, false).unwrap();
        assert_eq!(ws.len(), 3);
    }

    #[test]
    fn parallel_sweeps_equal_serial_sweeps() {
        let mut cfg = MethodConfig::new(Transport::Portals, 30 * 1024);
        cfg.target_iters = 200_000;
        cfg.max_intervals = 300;
        cfg.cycles = 2;
        cfg.jobs = 1;
        let intervals = [500u64, 5_000, 50_000, 500_000, 5_000_000];
        let serial_poll = polling_sweep(&cfg, &intervals).unwrap();
        let serial_pww = pww_sweep(&cfg, &intervals, false).unwrap();
        for jobs in [1, 4, pool::available_jobs()] {
            assert_eq!(
                polling_sweep_parallel(&cfg, &intervals, jobs).unwrap(),
                serial_poll,
                "polling sweep differs at jobs={jobs}"
            );
            assert_eq!(
                pww_sweep_parallel(&cfg, &intervals, false, jobs).unwrap(),
                serial_pww,
                "pww sweep differs at jobs={jobs}"
            );
        }
    }

    #[test]
    fn sharded_points_equal_serial_points() {
        let mut cfg = MethodConfig::new(Transport::Portals, 50 * 1024);
        cfg.target_iters = 500_000;
        cfg.max_intervals = 500;
        cfg.cycles = 3;
        let poll = run_polling_point(&cfg, 20_000).unwrap();
        let pww = run_pww_point(&cfg, 200_000, true).unwrap();
        let inter = run_pww_interleaved(&cfg, 200_000, 2).unwrap();
        for shards in [2, 4] {
            let mut sharded = cfg.clone();
            sharded.shards = shards;
            assert_eq!(
                run_polling_point(&sharded, 20_000).unwrap(),
                poll,
                "polling point differs at shards={shards}"
            );
            assert_eq!(
                run_pww_point(&sharded, 200_000, true).unwrap(),
                pww,
                "pww point differs at shards={shards}"
            );
            assert_eq!(
                run_pww_interleaved(&sharded, 200_000, 2).unwrap(),
                inter,
                "interleaved pww point differs at shards={shards}"
            );
        }
    }

    #[test]
    fn polling_pairs_are_identical_at_every_shard_count() {
        let mut cfg = MethodConfig::new(Transport::Portals, 30 * 1024);
        cfg.target_iters = 300_000;
        cfg.max_intervals = 400;
        let serial = run_polling_pairs(&cfg, 10_000, 3).unwrap();
        assert_eq!(serial.len(), 3);
        // Every pair runs the same exchange on a symmetric fabric, so the
        // samples must agree with each other...
        assert!(serial.iter().all(|s| s == &serial[0]));
        // ...and with any sharding of the same six-node simulation.
        for shards in [2, 3, 6] {
            let mut sharded = cfg.clone();
            sharded.shards = shards;
            assert_eq!(
                run_polling_pairs(&sharded, 10_000, 3).unwrap(),
                serial,
                "pair samples differ at shards={shards}"
            );
        }
    }

    #[test]
    fn shards_env_var_is_honoured_and_flag_wins() {
        assert_eq!(pool::effective_shards(3), 3);
        assert_eq!(pool::effective_shards(0), 1);
        // Env interaction is covered end-to-end by the CLI determinism
        // matrix; mutating the process environment here would race other
        // tests in this binary.
    }

    #[test]
    fn faulted_polling_with_dropped_control_messages_terminates() {
        // Regression: the polling worker fire-and-forgets its final sends,
        // so rendezvous handshakes can be mid-flight when both processes
        // exit. With `dropctl` arming the retry protocol, the abandoned
        // RTS timers re-armed forever and the simulation never drained
        // until the engines cancelled them at exit (`finalize`).
        let mut cfg = MethodConfig::new(Transport::Gm, 100 * 1024);
        cfg.target_iters = 200_000;
        cfg.max_intervals = 300;
        cfg.fault = comb_hw::FaultPlan::from_specs(&["dropctl=0.3"], Some(3)).unwrap();
        let s = run_polling_point(&cfg, 1_000).unwrap();
        assert!(s.messages_received > 0);
        assert!(
            s.faults.ctl_dropped > 0,
            "the plan must actually drop control messages"
        );
    }

    #[test]
    fn resolved_config_matches_per_point_resolution() {
        let mut cfg = MethodConfig::new(Transport::Gm, 10 * 1024);
        cfg.target_iters = 200_000;
        cfg.max_intervals = 300;
        let hw = cfg.transport.config();
        assert_eq!(
            run_polling_point_on(&hw, &cfg, 10_000).unwrap(),
            run_polling_point(&cfg, 10_000).unwrap()
        );
    }
}
