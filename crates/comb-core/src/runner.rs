//! Orchestration: the one way to run a benchmark point.
//!
//! Every point runs in a fresh simulation (fresh cluster, fresh MPI world),
//! exactly as the paper restarts the benchmark per configuration; points are
//! therefore independent and individually deterministic. So every point is
//! the same four steps — build a cluster, spawn the ranks, drive the
//! kernel, collect one sample — and only the middle and the last differ
//! between benchmarks. A [`Scenario`] supplies those; [`run`] does the rest,
//! for every scenario alike: serial or sharded kernel, traced or not,
//! watched or not, all chosen by one [`RunSpec`].
//!
//! Independence is what [`pool`] exploits: sweeps are
//! [`pool::run_ordered`] over [`run`], fanning their points out over a
//! bounded worker pool and reassembling the samples in input order, so a
//! parallel sweep is byte-identical to a serial one.

pub mod pool;

use crate::metrics::{FaultCounters, PollingSample, PwwSample};
use crate::polling::{PollingPairs, PollingParams};
use crate::pww::PwwParams;
use crate::sweep::MethodConfig;
use comb_hw::{Cluster, Cpu, HwConfig, NodeId};
use comb_mpi::{MpiProc, MpiWorld, Rank};
use comb_sim::{
    Probe, ProcCtx, ShardedSimulation, SimError, SimHandle, Simulation, WatchdogConfig,
};
use comb_trace::{TraceRecord, Tracer};
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
    /// The [`RunSpec`] asks for a combination [`run`] cannot honour.
    Usage {
        /// What was asked for, naming the knobs involved.
        message: String,
    },
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
            RunError::Usage { message } => f.write_str(message),
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

/// One kind of benchmark point: the parts of a run that differ between
/// benchmarks. [`run`] builds the cluster, drives the kernel and applies
/// the [`RunSpec`]; a scenario only says how big the cluster is, what runs
/// on it, and how to read the result back.
pub trait Scenario {
    /// What one run measures.
    type Sample;
    /// What [`Scenario::spawn`] hands on to [`Scenario::sample`]: result
    /// probes, and the MPI world, which must outlive the run.
    type Pending;

    /// Nodes in the cluster.
    fn nodes(&self) -> usize;

    /// Spawn the processes onto `rig`, each on the cluster node it runs on.
    fn spawn(&self, rig: &mut SimRig, cluster: &Cluster) -> Self::Pending;

    /// Extract the sample once the simulation has drained.
    fn sample(&self, pending: Self::Pending, cluster: &Cluster) -> Result<Self::Sample, RunError>;
}

/// How to run a scenario: on which hardware, on how many kernel shards,
/// traced or not, under which watchdog. None of these can change a sample.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The platform, fault plan already applied.
    pub hw: HwConfig,
    /// Kernel shards; `0` and `1` both run the serial kernel, and a larger
    /// count is clamped to the node count. See [`MethodConfig::shards`].
    pub shards: usize,
    /// Record the run's typed event stream into [`TracedRun::records`].
    /// Recording needs the serial kernel.
    pub trace: bool,
    /// Kernel watchdog bounding the run (`None` runs unwatched).
    pub watchdog: Option<WatchdogConfig>,
}

impl RunSpec {
    /// An untraced, unwatched run of `hw` on the default shard count.
    pub fn new(hw: HwConfig) -> RunSpec {
        RunSpec {
            hw,
            shards: 0,
            trace: false,
            watchdog: None,
        }
    }

    /// The run `cfg` describes: its resolved hardware, shards and watchdog.
    pub fn of(cfg: &MethodConfig) -> RunSpec {
        RunSpec {
            shards: cfg.shards,
            watchdog: cfg.watchdog,
            ..RunSpec::new(cfg.resolved_hw())
        }
    }
}

/// One benchmark point plus the trace it produced.
#[derive(Debug, Clone, PartialEq)]
pub struct TracedRun<S> {
    /// The point's sample, identical to an untraced run's.
    pub sample: S,
    /// Every event emitted during the run, in virtual-time order; empty
    /// unless [`RunSpec::trace`] is set.
    pub records: Vec<TraceRecord>,
}

impl<S> TracedRun<S> {
    /// The same run with its sample converted by `f`.
    pub fn map<T>(self, f: impl FnOnce(S) -> T) -> TracedRun<T> {
        TracedRun {
            sample: f(self.sample),
            records: self.records,
        }
    }
}

/// How many trailing trace events a watchdog diagnostic carries.
const WATCHDOG_TAIL: usize = 10;

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

/// Run one scenario in a fresh simulation.
///
/// A traced run builds its cluster around an *enabled* [`Tracer`] that
/// every component (application phases, MPI engines, NICs, the switch
/// fabric) shares, so the records interleave the whole story of the point
/// in virtual-time order. Tracing changes no simulation decision. It needs
/// the serial kernel: asking for it together with more than one shard is
/// a [`RunError::Usage`]. If the watchdog aborts a traced run, the
/// diagnostic carries the tail of the captured stream, showing what the
/// simulation was doing when it livelocked or overran.
pub fn run<S: Scenario>(scenario: &S, spec: &RunSpec) -> Result<TracedRun<S::Sample>, RunError> {
    let shards = spec.shards.max(1);
    if spec.trace && shards > 1 {
        return Err(RunError::Usage {
            message: format!(
                "--trace runs on the serial kernel; it cannot be combined with \
                 --shards or COMB_SHARDS above 1 (got {shards} shards)"
            ),
        });
    }
    let tracer = if spec.trace {
        Tracer::enabled()
    } else {
        Tracer::new()
    };
    let n = scenario.nodes();
    let (mut rig, cluster) = SimRig::build(&spec.hw, shards.min(n), n, tracer.clone());
    let pending = scenario.spawn(&mut rig, &cluster);
    match rig.drive(spec.watchdog.as_ref()) {
        Err(error) if error.is_watchdog() => {
            return Err(RunError::Watchdog {
                error,
                diagnostic: trace_tail(&tracer.records()),
            })
        }
        other => other?,
    }
    Ok(TracedRun {
        sample: scenario.sample(pending, &cluster)?,
        records: tracer.records(),
    })
}

/// A simulation ready to host one benchmark point: either the serial
/// kernel or a sharded one, chosen by [`RunSpec::shards`]. The two produce
/// byte-identical samples — the sharded kernel's epoch merge reproduces
/// the serial event order exactly — so every [`Scenario`] is
/// shard-agnostic. Only [`run`] builds one.
pub enum SimRig {
    /// The classic single-threaded kernel.
    Serial(Simulation),
    /// Conservatively synchronized shards, one worker thread each.
    Sharded(ShardedSimulation),
}

impl SimRig {
    /// Build a rig of `shards` shards and an `n`-node cluster spread
    /// across them (node `i` lands on shard `i % shards`). One or fewer
    /// shards yields the serial kernel unchanged.
    fn build(hw: &HwConfig, shards: usize, n: usize, tracer: Tracer) -> (SimRig, Cluster) {
        let (rig, handles) = if shards <= 1 {
            let sim = Simulation::new();
            let handles = vec![sim.handle()];
            (SimRig::Serial(sim), handles)
        } else {
            let sim = ShardedSimulation::new(shards, hw.lookahead());
            let handles: Vec<SimHandle> = (0..shards).map(|s| sim.handle(s)).collect();
            (SimRig::Sharded(sim), handles)
        };
        let cluster = Cluster::build_sharded(&handles, hw, n, tracer);
        (rig, cluster)
    }

    /// Spawn a process on the shard hosting cluster node `node`.
    pub fn spawn<F>(&mut self, node: usize, name: &str, f: F)
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

    /// Drive to completion, under `watchdog` when one is set.
    fn drive(&mut self, watchdog: Option<&WatchdogConfig>) -> Result<(), SimError> {
        match (self, watchdog) {
            (SimRig::Serial(sim), Some(wd)) => sim.run_with_watchdog(wd)?,
            (SimRig::Serial(sim), None) => sim.run()?,
            (SimRig::Sharded(sim), Some(wd)) => sim.run_with_watchdog(wd)?,
            (SimRig::Sharded(sim), None) => sim.run()?,
        };
        Ok(())
    }
}

/// A worker process body: measures against the support process at the
/// given rank and returns the sample.
pub type WorkerFn<E> = fn(&ProcCtx, &MpiProc, &Cpu, &E, Rank) -> <E as Exchange>::Sample;
/// A support process body, serving the worker at the given rank.
pub type SupportFn<E> = fn(&ProcCtx, &MpiProc, &E, Rank);

/// The COMB methods' shape: a worker process measuring against a support
/// process that serves it. Every exchange is a two-node [`Scenario`], the
/// worker on node 0 and its support on node 1.
pub trait Exchange: Copy + Send + 'static {
    /// What the worker measures.
    type Sample: Send + 'static;
    /// The worker process body.
    const WORKER: WorkerFn<Self>;
    /// The support process body.
    const SUPPORT: SupportFn<Self>;
    /// Record the run's fault activity in the sample.
    fn set_faults(sample: &mut Self::Sample, faults: FaultCounters);
}

impl<E: Exchange> Scenario for E {
    type Sample = E::Sample;
    type Pending = (Probe<E::Sample>, MpiWorld);

    fn nodes(&self) -> usize {
        2
    }

    fn spawn(&self, rig: &mut SimRig, cluster: &Cluster) -> Self::Pending {
        let world = MpiWorld::attach(cluster);
        (spawn_pair(rig, cluster, &world, 0, "", *self), world)
    }

    fn sample(
        &self,
        (probe, world): Self::Pending,
        cluster: &Cluster,
    ) -> Result<E::Sample, RunError> {
        let mut sample = probe.take().ok_or(RunError::NoResult)?;
        E::set_faults(&mut sample, collect_faults(cluster, &world));
        Ok(sample)
    }
}

/// Spawn one exchange: the worker on node `w` against the support on node
/// `w + 1`, named `worker{suffix}` and `support{suffix}`. Each finalizes
/// its rank when done; the worker's sample lands in the returned probe.
pub(crate) fn spawn_pair<E: Exchange>(
    rig: &mut SimRig,
    cluster: &Cluster,
    world: &MpiWorld,
    w: usize,
    suffix: &str,
    exchange: E,
) -> Probe<E::Sample> {
    let probe = Probe::new();
    let (wr, sr) = (Rank(w), Rank(w + 1));
    let (m0, cpu0, pr) = (
        world.proc(wr),
        cluster.node(NodeId(w)).cpu.clone(),
        probe.clone(),
    );
    rig.spawn(w, &format!("worker{suffix}"), move |ctx| {
        pr.set(E::WORKER(ctx, &m0, &cpu0, &exchange, sr));
        m0.finalize();
    });
    let m1 = world.proc(sr);
    rig.spawn(w + 1, &format!("support{suffix}"), move |ctx| {
        E::SUPPORT(ctx, &m1, &exchange, wr);
        m1.finalize();
    });
    probe
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
    Ok(run(&PollingParams::new(cfg, poll_interval), &RunSpec::of(cfg))?.sample)
}

/// Run one PWW-method point at the given work interval (in loop
/// iterations). `test_in_work` selects the paper's Section 4.3 modified
/// variant with one `MPI_Test` inside the work phase.
pub fn run_pww_point(
    cfg: &MethodConfig,
    work_interval: u64,
    test_in_work: bool,
) -> Result<PwwSample, RunError> {
    let params = PwwParams::new(cfg, work_interval, test_in_work);
    Ok(run(&params, &RunSpec::of(cfg))?.sample)
}

/// Run `pairs` independent polling exchanges inside one simulation (see
/// [`PollingPairs`]).
pub fn run_polling_pairs(
    cfg: &MethodConfig,
    poll_interval: u64,
    pairs: usize,
) -> Result<Vec<PollingSample>, RunError> {
    let params = PollingParams::new(cfg, poll_interval);
    Ok(run(&PollingPairs { params, pairs }, &RunSpec::of(cfg))?.sample)
}

/// Run a polling sweep over the given poll intervals, on
/// [`MethodConfig::jobs`] workers (`0` = auto). Results are in input
/// order and byte-identical to a serial sweep.
pub fn polling_sweep(
    cfg: &MethodConfig,
    intervals: &[u64],
) -> Result<Vec<PollingSample>, RunError> {
    let spec = RunSpec::of(cfg);
    pool::run_ordered(cfg.jobs, intervals, |&p| {
        Ok(run(&PollingParams::new(cfg, p), &spec)?.sample)
    })
}

/// Run a PWW sweep over the given work intervals, on
/// [`MethodConfig::jobs`] workers (`0` = auto). Results are in input
/// order and byte-identical to a serial sweep.
pub fn pww_sweep(
    cfg: &MethodConfig,
    intervals: &[u64],
    test_in_work: bool,
) -> Result<Vec<PwwSample>, RunError> {
    let spec = RunSpec::of(cfg);
    pool::run_ordered(cfg.jobs, intervals, |&w| {
        Ok(run(&PwwParams::new(cfg, w, test_in_work), &spec)?.sample)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::halo::{HaloParams, HaloPoint};
    use crate::latency::PingPong;
    use crate::netperf::NetperfParams;
    use crate::pww::InterleavedParams;
    use crate::sweep::Transport;
    use comb_sim::{SimDuration, SimTime};
    use comb_trace::{check_well_nested, Phase, TraceAnalysis, TraceEvent};

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
            cfg.jobs = jobs;
            assert_eq!(
                polling_sweep(&cfg, &intervals).unwrap(),
                serial_poll,
                "polling sweep differs at jobs={jobs}"
            );
            assert_eq!(
                pww_sweep(&cfg, &intervals, false).unwrap(),
                serial_pww,
                "pww sweep differs at jobs={jobs}"
            );
        }
    }

    /// `scenario` gives the same sample on 1, 2 and 4 kernel shards.
    fn assert_shard_invariant<S: Scenario>(name: &str, scenario: &S, cfg: &MethodConfig)
    where
        S::Sample: PartialEq + fmt::Debug,
    {
        let at = |shards| {
            let spec = RunSpec {
                shards,
                ..RunSpec::of(cfg)
            };
            run(scenario, &spec).unwrap().sample
        };
        let serial = at(1);
        for shards in [2, 4] {
            assert_eq!(
                at(shards),
                serial,
                "{name} point differs at shards={shards}"
            );
        }
    }

    #[test]
    fn sharded_points_equal_serial_points() {
        let mut cfg = MethodConfig::new(Transport::Portals, 50 * 1024);
        cfg.target_iters = 500_000;
        cfg.max_intervals = 500;
        cfg.cycles = 3;
        let netperf = |busy_wait| NetperfParams {
            msg_bytes: cfg.msg_bytes,
            total_iters: 1_000_000,
            busy_wait,
        };
        let pingpong = PingPong {
            msg_bytes: 16 * 1024,
            iterations: 10,
        };
        let halo = HaloPoint {
            params: HaloParams::smoke(),
            interior_iters: 200_000,
            overlap: true,
        };
        let inter = InterleavedParams::new(&cfg, 200_000, 2);
        assert_shard_invariant("polling", &PollingParams::new(&cfg, 20_000), &cfg);
        assert_shard_invariant("pww", &PwwParams::new(&cfg, 200_000, true), &cfg);
        assert_shard_invariant("interleaved pww", &inter, &cfg);
        assert_shard_invariant("netperf busy", &netperf(true), &cfg);
        assert_shard_invariant("netperf sleeping", &netperf(false), &cfg);
        assert_shard_invariant("ping-pong", &pingpong, &cfg);
        assert_shard_invariant("halo", &halo, &cfg);
    }

    #[test]
    fn polling_pairs_are_identical_at_every_shard_count() {
        for transport in [Transport::Portals, Transport::Gm] {
            let mut cfg = MethodConfig::new(transport, 30 * 1024);
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
                    "{} pair samples differ at shards={shards}",
                    cfg.transport.name()
                );
            }
        }
    }

    /// `scenario` on a 2-shard kernel synchronized with `lookahead`: its
    /// sample and the number of epochs the run took.
    fn two_shard_run<S: Scenario>(
        hw: &HwConfig,
        lookahead: SimDuration,
        scenario: &S,
    ) -> (S::Sample, u64) {
        let sim = ShardedSimulation::new(2, lookahead);
        let handles: Vec<SimHandle> = (0..2).map(|s| sim.handle(s)).collect();
        let cluster = Cluster::build_sharded(&handles, hw, scenario.nodes(), Tracer::new());
        let mut rig = SimRig::Sharded(sim);
        let pending = scenario.spawn(&mut rig, &cluster);
        rig.drive(None).unwrap();
        let SimRig::Sharded(sim) = &rig else {
            unreachable!("built sharded")
        };
        let epochs = sim.epochs();
        (scenario.sample(pending, &cluster).unwrap(), epochs)
    }

    /// The epoch window is `HwConfig::lookahead` wide: link latency plus
    /// the NIC's per-packet send time, 13 µs on GM where the link latency
    /// alone is 5 µs. On the benchmark's multi-pair input (eight polling
    /// pairs on jittered GM, 84,329 events) that halves the barriers and
    /// changes no sample.
    #[test]
    fn a_two_shard_gm_pairs_run_takes_a_pinned_number_of_epochs() {
        let hw = comb_hw::PerturbPlan::new(1).hw_for_replicate(&HwConfig::gm_myrinet(), 1);
        let mut cfg = MethodConfig::new(Transport::Custom(Box::new(hw)), 100 * 1024);
        cfg.target_iters = 1_000_000;
        cfg.max_intervals = 1_000;
        let hw = cfg.resolved_hw();
        let pairs = PollingPairs {
            params: PollingParams::new(&cfg, 3_000),
            pairs: 8,
        };
        let serial = run_polling_pairs(&cfg, 3_000, 8).unwrap();
        let (sample, epochs) = two_shard_run(&hw, hw.lookahead(), &pairs);
        assert_eq!(sample, serial);
        assert_eq!(epochs, 1_214);
        let (link_sample, link_epochs) = two_shard_run(&hw, hw.link.latency, &pairs);
        assert_eq!(link_sample, serial);
        assert!(
            2 * epochs <= link_epochs,
            "{epochs} epochs at the lookahead, {link_epochs} at the link latency"
        );
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
    fn pingpong_honours_the_watchdog_deadline() {
        let mut cfg = MethodConfig::new(Transport::Gm, 0);
        cfg.watchdog = Some(WatchdogConfig::lenient().with_deadline(SimTime::from_nanos(100_000)));
        // 50 round trips of 64 KB take milliseconds of virtual time.
        let err = crate::latency::run_pingpong(&cfg, &[64 * 1024], 50).unwrap_err();
        assert!(
            matches!(err, RunError::Watchdog { .. }),
            "expected a watchdog abort, got {err:?}"
        );
    }

    fn traced_cfg() -> MethodConfig {
        let mut c = MethodConfig::new(Transport::Gm, 100 * 1024);
        c.cycles = 4;
        c
    }

    fn traced(cfg: &MethodConfig) -> RunSpec {
        RunSpec {
            trace: true,
            ..RunSpec::of(cfg)
        }
    }

    #[test]
    fn watchdog_diagnostic_carries_the_trace_tail_only_when_traced() {
        let mut cfg = traced_cfg();
        cfg.target_iters = 500_000;
        cfg.max_intervals = 500;
        cfg.watchdog =
            Some(WatchdogConfig::lenient().with_deadline(SimTime::from_nanos(3_000_000)));
        let point = PollingParams::new(&cfg, 10_000);
        let diagnostic = |spec: &RunSpec| match run(&point, spec) {
            Err(RunError::Watchdog { diagnostic, .. }) => diagnostic,
            other => panic!("expected a watchdog abort, got {other:?}"),
        };
        let tail = diagnostic(&traced(&cfg));
        assert!(
            tail.starts_with(&format!("last {WATCHDOG_TAIL} trace events")),
            "traced diagnostic: {tail}"
        );
        assert_eq!(diagnostic(&RunSpec::of(&cfg)), "");
    }

    #[test]
    fn traced_sample_matches_untraced_sample() {
        let plain = run_pww_point(&traced_cfg(), 1_000_000, false).unwrap();
        let point = PwwParams::new(&traced_cfg(), 1_000_000, false);
        let traced = run(&point, &traced(&traced_cfg())).unwrap();
        assert_eq!(plain, traced.sample, "tracing must not perturb the run");
        assert!(!traced.records.is_empty());
    }

    #[test]
    fn pww_trace_contains_all_phases_and_well_nested_frames() {
        let point = PwwParams::new(&traced_cfg(), 1_000_000, false);
        let traced = run(&point, &traced(&traced_cfg())).unwrap();
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
        let mut c = traced_cfg();
        c.target_iters = 500_000;
        c.max_intervals = 500;
        let traced = run(&PollingParams::new(&c, 10_000), &traced(&c)).unwrap();
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
        let mut c = traced_cfg();
        c.cycles = 2;
        let intervals = [100_000u64, 1_000_000];
        let spec = traced(&c);
        let sweep = |jobs| {
            pool::run_ordered(jobs, &intervals, |&w| {
                run(&PwwParams::new(&c, w, false), &spec)
            })
            .unwrap()
        };
        assert_eq!(sweep(1), sweep(8));
    }
}
