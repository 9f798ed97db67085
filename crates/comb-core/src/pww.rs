//! The Post-Work-Wait (PWW) method (paper Section 2.2, Figure 3).
//!
//! Each cycle the worker posts a batch of non-blocking receives and sends,
//! computes for the *work interval* making **no MPI calls**, then waits for
//! the whole batch. Because nothing re-enters the library during the work
//! phase, a transport can only overlap the transfer with the work if it has
//! *application offload* — this is the paper's detector for it (Fig 11).
//!
//! The per-phase wall-clock durations (post / work / wait) identify where
//! host time goes (Figs 10–13). The modified variant inserts one `MPI_Test`
//! early in the work phase (Section 4.3), which un-sticks library-progress
//! transports.

use crate::metrics::{availability, bandwidth_mbs, FaultCounters, PwwSample};
use crate::polling::DATA_TAG;
use crate::runner::{Exchange, SupportFn, WorkerFn};
use crate::sweep::MethodConfig;
use comb_mpi::Tag;

/// One-way release sent by the worker after its dry run; the support
/// process stays completely quiet (no sends at all) until it arrives.
const GO_TAG: Tag = Tag(3);
use comb_hw::Cpu;
use comb_mpi::{MpiProc, Payload, Rank, RequestHandle, Status};
use comb_sim::stats::DurationHistogram;
use comb_sim::{ProcCtx, SimDuration};
use comb_trace::{Comp, Phase, TraceEvent};

/// Resolved per-point parameters for the PWW method.
#[derive(Debug, Clone, Copy)]
pub struct PwwParams {
    /// Message payload size in bytes.
    pub msg_bytes: u64,
    /// Messages per direction per cycle.
    pub batch: usize,
    /// Cycles averaged for the point.
    pub cycles: u64,
    /// Work interval in loop iterations.
    pub work_interval: u64,
    /// Insert one `MPI_Test` early in the work phase (modified PWW).
    pub test_in_work: bool,
}

impl PwwParams {
    /// The point of `cfg`'s PWW sweep at `work_interval` loop iterations;
    /// `test_in_work` selects the Section 4.3 modified variant.
    pub fn new(cfg: &MethodConfig, work_interval: u64, test_in_work: bool) -> PwwParams {
        PwwParams {
            msg_bytes: cfg.msg_bytes,
            batch: cfg.batch,
            cycles: cfg.cycles,
            work_interval: work_interval.max(1),
            test_in_work,
        }
    }
}

/// One PWW-method point.
impl Exchange for PwwParams {
    type Sample = PwwSample;
    const WORKER: WorkerFn<Self> = worker;
    const SUPPORT: SupportFn<Self> = support;
    fn set_faults(sample: &mut PwwSample, faults: FaultCounters) {
        sample.faults = faults;
    }
}

/// The worker process: post → work → wait against the support process at
/// rank `peer`, repeated; returns the sample. The classic two-rank layout
/// passes `Rank(1)`.
pub fn worker(ctx: &ProcCtx, mpi: &MpiProc, cpu: &Cpu, p: &PwwParams, peer: Rank) -> PwwSample {
    let trc = mpi.tracer().clone();
    let app = Comp::App(mpi.rank().0 as u32);

    // Dry run: one work interval with no communication. The support
    // process sends nothing until the worker's explicit release (a plain
    // barrier would not do: its non-root ranks send first, and that
    // message's interrupt would land mid-dry-run and contaminate the
    // baseline on interrupt-driven transports).
    mpi.barrier(ctx);
    let t0 = ctx.now();
    trc.emit(t0, app, || TraceEvent::PhaseBegin {
        phase: Phase::DryRun,
        cycle: 0,
    });
    cpu.compute_iters(ctx, p.work_interval);
    let work_only = ctx.now().since(t0);
    trc.emit(ctx.now(), app, || TraceEvent::PhaseEnd {
        phase: Phase::DryRun,
        cycle: 0,
    });
    mpi.send(ctx, peer, GO_TAG, Payload::synthetic(1));

    let mut post_total = SimDuration::ZERO;
    let mut work_total = SimDuration::ZERO;
    let mut wait_total = SimDuration::ZERO;
    let mut wait_histogram = DurationHistogram::new();
    let mut bytes_received: u64 = 0;
    let stolen_before = cpu.stats().stolen_total;
    let run_start = ctx.now();

    let mut reqs: Vec<RequestHandle> = Vec::with_capacity(2 * p.batch);
    for cycle in 0..p.cycles {
        // Post phase: receives before sends, all non-blocking.
        let t0 = ctx.now();
        trc.emit(t0, app, || TraceEvent::PhaseBegin {
            phase: Phase::Post,
            cycle,
        });
        reqs.clear();
        for _ in 0..p.batch {
            reqs.push(mpi.irecv(ctx, peer, DATA_TAG));
        }
        for _ in 0..p.batch {
            reqs.push(mpi.isend(ctx, peer, DATA_TAG, Payload::synthetic(p.msg_bytes)));
        }
        let t1 = ctx.now();
        trc.emit(t1, app, || TraceEvent::PhaseEnd {
            phase: Phase::Post,
            cycle,
        });

        // Work phase: no MPI calls — except the single probing test of the
        // modified variant, placed after the first tenth of the work.
        trc.emit(t1, app, || TraceEvent::PhaseBegin {
            phase: Phase::Work,
            cycle,
        });
        let mut early: Option<(usize, Status)> = None;
        if p.test_in_work {
            let head = p.work_interval / 10;
            trc.emit(ctx.now(), app, || TraceEvent::WorkStart { iters: head });
            cpu.compute_iters(ctx, head);
            trc.emit(ctx.now(), app, || TraceEvent::WorkEnd { iters: head });
            if let Some(st) = mpi.test(ctx, reqs[0]) {
                early = Some((0, st));
            }
            let rest = p.work_interval - head;
            trc.emit(ctx.now(), app, || TraceEvent::WorkStart { iters: rest });
            cpu.compute_iters(ctx, rest);
            trc.emit(ctx.now(), app, || TraceEvent::WorkEnd { iters: rest });
        } else {
            trc.emit(ctx.now(), app, || TraceEvent::WorkStart {
                iters: p.work_interval,
            });
            cpu.compute_iters(ctx, p.work_interval);
            trc.emit(ctx.now(), app, || TraceEvent::WorkEnd {
                iters: p.work_interval,
            });
        }
        let t2 = ctx.now();
        trc.emit(t2, app, || TraceEvent::PhaseEnd {
            phase: Phase::Work,
            cycle,
        });
        trc.emit(t2, app, || TraceEvent::PhaseBegin {
            phase: Phase::Wait,
            cycle,
        });

        // Wait phase: block until the whole batch completes.
        let statuses: Vec<Status> = match early {
            None => mpi.waitall(ctx, &reqs),
            Some((consumed, st)) => {
                let rest: Vec<RequestHandle> = reqs
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != consumed)
                    .map(|(_, &r)| r)
                    .collect();
                let mut out = mpi.waitall(ctx, &rest);
                out.insert(consumed, st);
                out
            }
        };
        let t3 = ctx.now();
        trc.emit(t3, app, || TraceEvent::PhaseEnd {
            phase: Phase::Wait,
            cycle,
        });

        // The first `batch` requests are the receives.
        bytes_received += statuses[..p.batch].iter().map(|s| s.len).sum::<u64>();
        post_total += t1.since(t0);
        work_total += t2.since(t1);
        wait_total += t3.since(t2);
        wait_histogram.record(t3.since(t2));
    }

    let elapsed = ctx.now().since(run_start);
    let stolen = cpu.stats().stolen_total - stolen_before;
    let msgs = p.cycles * p.batch as u64;
    PwwSample {
        work_interval: p.work_interval,
        msg_bytes: p.msg_bytes,
        cycles: p.cycles,
        batch: p.batch as u64,
        test_in_work: p.test_in_work,
        post_phase: post_total / p.cycles,
        post_per_msg: post_total / (2 * msgs), // per posted request
        work_with_mh: work_total / p.cycles,
        work_only,
        wait_phase: wait_total / p.cycles,
        wait_per_msg: wait_total / msgs,
        availability: availability(work_only * p.cycles, elapsed),
        bandwidth_mbs: bandwidth_mbs(bytes_received, elapsed),
        stolen,
        wait_histogram,
        faults: crate::metrics::FaultCounters::default(),
    }
}

/// The support process: mirrors the exchange of the worker at rank `peer`
/// with no work phase. The classic two-rank layout passes `Rank(0)`.
pub fn support(ctx: &ProcCtx, mpi: &MpiProc, p: &PwwParams, peer: Rank) {
    // Stay completely quiet until the worker's dry run has finished.
    mpi.barrier(ctx);
    let _ = mpi.recv(ctx, peer, GO_TAG);
    let mut reqs: Vec<RequestHandle> = Vec::with_capacity(2 * p.batch);
    for _ in 0..p.cycles {
        reqs.clear();
        for _ in 0..p.batch {
            reqs.push(mpi.irecv(ctx, peer, DATA_TAG));
        }
        for _ in 0..p.batch {
            reqs.push(mpi.isend(ctx, peer, DATA_TAG, Payload::synthetic(p.msg_bytes)));
        }
        mpi.waitall(ctx, &reqs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_pww_point;
    use crate::sweep::{MethodConfig, Transport};

    fn small(transport: Transport) -> MethodConfig {
        let mut cfg = MethodConfig::new(transport, 100 * 1024);
        cfg.cycles = 8;
        cfg
    }

    #[test]
    fn portals_wait_vanishes_at_long_work_intervals() {
        // Fig 11: with application offload, a long-enough work phase
        // absorbs the whole transfer and the wait is ~free.
        let s = run_pww_point(&small(Transport::Portals), 5_000_000, false).unwrap();
        assert!(
            s.wait_per_msg < SimDuration::from_micros(200),
            "offload must drain messaging during work, wait {}",
            s.wait_per_msg
        );
        // And the work phase is dilated by the interrupts (Fig 12).
        assert!(
            s.work_with_mh > s.work_only + SimDuration::from_millis(1),
            "work with MH {} must exceed work only {}",
            s.work_with_mh,
            s.work_only
        );
    }

    #[test]
    fn gm_wait_absorbs_transfer_no_offload() {
        // Fig 11: without offload the wait phase stays ~the transfer time
        // regardless of work interval.
        let s = run_pww_point(&small(Transport::Gm), 5_000_000, false).unwrap();
        assert!(
            s.wait_per_msg > SimDuration::from_micros(900),
            "GM wait must contain the rendezvous transfer, got {}",
            s.wait_per_msg
        );
        // Fig 13: no interrupt overhead during work.
        assert_eq!(s.work_with_mh, s.work_only);
        assert_eq!(s.stolen, SimDuration::ZERO);
    }

    #[test]
    fn mpi_test_in_work_extends_gm_overlap() {
        // Fig 17: the inserted library call lets the transfer overlap the
        // remaining work, shrinking the wait and raising bandwidth at equal
        // work intervals.
        let plain = run_pww_point(&small(Transport::Gm), 4_000_000, false).unwrap();
        let tested = run_pww_point(&small(Transport::Gm), 4_000_000, true).unwrap();
        assert!(
            tested.wait_per_msg < plain.wait_per_msg / 2,
            "test-in-work wait {} must undercut plain wait {}",
            tested.wait_per_msg,
            plain.wait_per_msg
        );
        assert!(tested.bandwidth_mbs > plain.bandwidth_mbs);
        assert!(tested.availability > plain.availability * 0.9);
    }

    #[test]
    fn gm_posts_are_cheaper_than_portals_posts() {
        // Fig 10.
        let gm = run_pww_point(&small(Transport::Gm), 1_000_000, false).unwrap();
        let portals = run_pww_point(&small(Transport::Portals), 1_000_000, false).unwrap();
        assert!(
            gm.post_per_msg * 3 < portals.post_per_msg,
            "GM post {} vs Portals post {}",
            gm.post_per_msg,
            portals.post_per_msg
        );
    }

    #[test]
    fn availability_rises_with_work_interval() {
        // Fig 6 shape: no plateau; availability climbs towards 1.
        let cfg = small(Transport::Portals);
        let lo = run_pww_point(&cfg, 50_000, false).unwrap();
        let mid = run_pww_point(&cfg, 1_000_000, false).unwrap();
        let hi = run_pww_point(&cfg, 20_000_000, false).unwrap();
        assert!(lo.availability < mid.availability);
        assert!(mid.availability < hi.availability);
        assert!(
            lo.availability < 0.2,
            "short work is wait-dominated: {}",
            lo.availability
        );
        assert!(
            hi.availability > 0.8,
            "long work dominates: {}",
            hi.availability
        );
    }

    #[test]
    fn bandwidth_declines_as_work_grows() {
        // Fig 7 shape.
        let cfg = small(Transport::Portals);
        let lo = run_pww_point(&cfg, 10_000, false).unwrap();
        let hi = run_pww_point(&cfg, 20_000_000, false).unwrap();
        assert!(
            hi.bandwidth_mbs < lo.bandwidth_mbs / 4.0,
            "bandwidth must fall with work interval: {} -> {}",
            lo.bandwidth_mbs,
            hi.bandwidth_mbs
        );
    }

    #[test]
    fn batch_and_cycles_are_respected() {
        let mut cfg = small(Transport::Gm);
        cfg.batch = 3;
        cfg.cycles = 5;
        let s = run_pww_point(&cfg, 100_000, false).unwrap();
        assert_eq!(s.batch, 3);
        assert_eq!(s.cycles, 5);
        assert!(s.bandwidth_mbs > 0.0);
    }
}

/// Parameters for the *interleaved* PWW variant (paper Section 4.3's
/// historical note): `interleave` batches are kept in flight so that after
/// one batch completes the pipeline is still occupied by the next — fuller
/// detection of maximum sustained bandwidth at the cost of interspersing
/// MPI calls between timing cycles.
#[derive(Debug, Clone, Copy)]
pub struct InterleavedParams {
    /// Base parameters (batch, cycles, work interval, message size).
    pub base: PwwParams,
    /// Number of batches kept in flight (1 = standard PWW).
    pub interleave: usize,
}

impl InterleavedParams {
    /// `cfg`'s PWW point at `work_interval` with `interleave` batches in
    /// flight.
    pub fn new(cfg: &MethodConfig, work_interval: u64, interleave: usize) -> InterleavedParams {
        InterleavedParams {
            base: PwwParams::new(cfg, work_interval, false),
            interleave,
        }
    }
}

/// One interleaved PWW point.
impl Exchange for InterleavedParams {
    type Sample = PwwSample;
    const WORKER: WorkerFn<Self> = worker_interleaved;
    const SUPPORT: SupportFn<Self> = support_interleaved;
    fn set_faults(sample: &mut PwwSample, faults: FaultCounters) {
        sample.faults = faults;
    }
}

/// The worker process for interleaved PWW against the support process at
/// rank `peer`; returns the sample. With `interleave == 1` the phase
/// structure degenerates to post-work-wait with the post at the end of the
/// previous cycle.
pub fn worker_interleaved(
    ctx: &ProcCtx,
    mpi: &MpiProc,
    cpu: &Cpu,
    p: &InterleavedParams,
    peer: Rank,
) -> PwwSample {
    assert!(p.interleave >= 1, "interleave must be at least 1");
    let base = p.base;
    let k = p.interleave;

    mpi.barrier(ctx);
    let t0 = ctx.now();
    cpu.compute_iters(ctx, base.work_interval);
    let work_only = ctx.now().since(t0);
    mpi.send(ctx, peer, GO_TAG, Payload::synthetic(1));

    let post_batch = |ctx: &ProcCtx| -> Vec<RequestHandle> {
        let mut reqs = Vec::with_capacity(2 * base.batch);
        for _ in 0..base.batch {
            reqs.push(mpi.irecv(ctx, peer, DATA_TAG));
        }
        for _ in 0..base.batch {
            reqs.push(mpi.isend(ctx, peer, DATA_TAG, Payload::synthetic(base.msg_bytes)));
        }
        reqs
    };

    let mut post_total = SimDuration::ZERO;
    let mut work_total = SimDuration::ZERO;
    let mut wait_total = SimDuration::ZERO;
    let mut wait_histogram = DurationHistogram::new();
    let mut bytes_received: u64 = 0;
    let stolen_before = cpu.stats().stolen_total;
    let run_start = ctx.now();

    // Prologue: fill the pipeline.
    let mut inflight: std::collections::VecDeque<Vec<RequestHandle>> =
        std::collections::VecDeque::new();
    {
        let t0 = ctx.now();
        for _ in 0..k.min(base.cycles as usize) {
            inflight.push_back(post_batch(ctx));
        }
        post_total += ctx.now().since(t0);
    }

    let mut posted = inflight.len() as u64;
    for _ in 0..base.cycles {
        let t1 = ctx.now();
        cpu.compute_iters(ctx, base.work_interval);
        let t2 = ctx.now();
        let batch = inflight.pop_front().expect("pipeline never empty");
        let statuses = mpi.waitall(ctx, &batch);
        let t3 = ctx.now();
        bytes_received += statuses[..base.batch].iter().map(|s| s.len).sum::<u64>();
        if posted < base.cycles {
            let t4 = ctx.now();
            inflight.push_back(post_batch(ctx));
            posted += 1;
            post_total += ctx.now().since(t4);
        }
        work_total += t2.since(t1);
        wait_total += t3.since(t2);
        wait_histogram.record(t3.since(t2));
    }

    let elapsed = ctx.now().since(run_start);
    let stolen = cpu.stats().stolen_total - stolen_before;
    let msgs = base.cycles * base.batch as u64;
    PwwSample {
        work_interval: base.work_interval,
        msg_bytes: base.msg_bytes,
        cycles: base.cycles,
        batch: base.batch as u64,
        test_in_work: false,
        post_phase: post_total / base.cycles,
        post_per_msg: post_total / (2 * msgs),
        work_with_mh: work_total / base.cycles,
        work_only,
        wait_phase: wait_total / base.cycles,
        wait_per_msg: wait_total / msgs,
        availability: availability(work_only * base.cycles, elapsed),
        bandwidth_mbs: bandwidth_mbs(bytes_received, elapsed),
        stolen,
        wait_histogram,
        faults: crate::metrics::FaultCounters::default(),
    }
}

/// Support process for the interleaved variant: mirrors the pipeline depth
/// of the worker at rank `peer` so neither side gates the flow.
pub fn support_interleaved(ctx: &ProcCtx, mpi: &MpiProc, p: &InterleavedParams, peer: Rank) {
    let base = p.base;
    let k = p.interleave;
    mpi.barrier(ctx);
    let _ = mpi.recv(ctx, peer, GO_TAG);
    let post_batch = |ctx: &ProcCtx| -> Vec<RequestHandle> {
        let mut reqs = Vec::with_capacity(2 * base.batch);
        for _ in 0..base.batch {
            reqs.push(mpi.irecv(ctx, peer, DATA_TAG));
        }
        for _ in 0..base.batch {
            reqs.push(mpi.isend(ctx, peer, DATA_TAG, Payload::synthetic(base.msg_bytes)));
        }
        reqs
    };
    let mut inflight: std::collections::VecDeque<Vec<RequestHandle>> =
        std::collections::VecDeque::new();
    for _ in 0..k.min(base.cycles as usize) {
        inflight.push_back(post_batch(ctx));
    }
    let mut posted = inflight.len() as u64;
    for _ in 0..base.cycles {
        let batch = inflight.pop_front().expect("pipeline never empty");
        mpi.waitall(ctx, &batch);
        if posted < base.cycles {
            inflight.push_back(post_batch(ctx));
            posted += 1;
        }
    }
}

#[cfg(test)]
mod interleave_tests {
    use super::InterleavedParams;
    use crate::metrics::PwwSample;
    use crate::runner::{run, run_pww_point, RunSpec};
    use crate::sweep::{MethodConfig, Transport};

    fn interleaved(cfg: &MethodConfig, work: u64, interleave: usize) -> PwwSample {
        let point = InterleavedParams::new(cfg, work, interleave);
        run(&point, &RunSpec::of(cfg)).unwrap().sample
    }

    fn cfg() -> MethodConfig {
        let mut c = MethodConfig::new(Transport::Gm, 100 * 1024);
        c.cycles = 10;
        c
    }

    #[test]
    fn interleaving_raises_detected_bandwidth() {
        // The paper's rationale for the historical variant: keeping several
        // batches in flight keeps the pipeline occupied across timing
        // cycles, detecting a higher maximum sustained bandwidth.
        let work = 200_000; // 0.8 ms: far below the transfer time
        let plain = run_pww_point(&cfg(), work, false).unwrap();
        let deep = interleaved(&cfg(), work, 3);
        assert!(
            deep.bandwidth_mbs > plain.bandwidth_mbs * 1.2,
            "interleave=3 {} must beat plain {}",
            deep.bandwidth_mbs,
            plain.bandwidth_mbs
        );
    }

    #[test]
    fn interleave_one_matches_standard_shape() {
        let work = 1_000_000;
        let plain = run_pww_point(&cfg(), work, false).unwrap();
        let k1 = interleaved(&cfg(), work, 1);
        // Not identical (post placement differs) but the same regime.
        let ratio = k1.bandwidth_mbs / plain.bandwidth_mbs;
        assert!(
            (0.6..1.7).contains(&ratio),
            "k=1 {} vs plain {}",
            k1.bandwidth_mbs,
            plain.bandwidth_mbs
        );
        assert_eq!(k1.cycles, plain.cycles);
    }

    #[test]
    fn interleaved_is_deterministic() {
        let a = interleaved(&cfg(), 500_000, 4);
        let b = interleaved(&cfg(), 500_000, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn interleave_deeper_than_cycles_is_clamped() {
        let mut c = cfg();
        c.cycles = 2;
        let s = interleaved(&c, 100_000, 16);
        assert_eq!(s.cycles, 2);
        assert!(s.bandwidth_mbs > 0.0);
    }
}
