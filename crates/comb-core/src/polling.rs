//! The Polling method (paper Section 2.1, Figures 1–2).
//!
//! Two processes exchange a queue of messages ping-pong style. The *worker*
//! interleaves fixed chunks of calibrated computation (the poll interval)
//! with non-blocking completion tests, replying to every arrived message and
//! reposting its receive; the *support* process echoes messages as fast as
//! they are consumed. Because the worker never blocks, the method reports an
//! unfettered view of the bandwidth/availability trade-off.
//!
//! The benchmark runs in two phases (paper): a *dry run* that times the
//! predetermined amount of work with no communication, then the measured
//! run; `availability = T(dry) / T(measured)`.

use crate::metrics::{availability, bandwidth_mbs, PollingSample};
use comb_hw::Cpu;
use comb_mpi::{MpiProc, Payload, Rank, RequestHandle, Tag};
use comb_sim::ProcCtx;
use comb_trace::{Comp, Phase, TraceEvent};
use std::collections::VecDeque;

/// Tag used for benchmark data messages.
pub const DATA_TAG: Tag = Tag(1);
/// Tag used by the worker to tell the support process to stop.
pub const STOP_TAG: Tag = Tag(2);

/// Resolved per-point parameters for the polling method.
#[derive(Debug, Clone, Copy)]
pub struct PollingParams {
    /// Message payload size in bytes.
    pub msg_bytes: u64,
    /// Messages kept in flight per direction.
    pub queue_depth: usize,
    /// Poll interval in loop iterations.
    pub poll_interval: u64,
    /// Number of poll intervals in the measured phase.
    pub intervals: u64,
}

/// Reap completed fire-and-forget sends from the front of `pending`.
fn reap_sends(mpi: &MpiProc, pending: &mut VecDeque<RequestHandle>) {
    while let Some(&front) = pending.front() {
        if mpi.poll_complete(front).is_some() {
            pending.pop_front();
        } else {
            break;
        }
    }
}

/// The worker process: computes, polls, replies to the support process
/// at rank `peer`; returns the sample. The classic two-rank layout passes
/// `Rank(1)`; multi-pair workloads host several independent exchanges in
/// one (possibly sharded) simulation.
pub fn worker(
    ctx: &ProcCtx,
    mpi: &MpiProc,
    cpu: &Cpu,
    p: &PollingParams,
    peer: Rank,
) -> PollingSample {
    let q = p.queue_depth;
    let total_iters = p.intervals * p.poll_interval;
    let trc = mpi.tracer().clone();
    let app = Comp::App(mpi.rank().0 as u32);

    // Phase 1 — dry run: the same amount of work with no communication.
    // (In the simulator the dry run is exactly reproducible, so when the
    // measured phase runs extra intervals the baseline extends linearly.)
    let t0 = ctx.now();
    trc.emit(t0, app, || TraceEvent::PhaseBegin {
        phase: Phase::DryRun,
        cycle: 0,
    });
    cpu.compute_iters(ctx, total_iters);
    trc.emit(ctx.now(), app, || TraceEvent::PhaseEnd {
        phase: Phase::DryRun,
        cycle: 0,
    });
    let dry = ctx.now().since(t0);
    debug_assert_eq!(dry, cpu.iters_to_duration(total_iters));

    // Set up messaging: receives are posted before sends (paper Section
    // 2.1), then prime the queue with the initial messages.
    let mut recvs: Vec<RequestHandle> = (0..q).map(|_| mpi.irecv(ctx, peer, DATA_TAG)).collect();
    let mut pending_sends: VecDeque<RequestHandle> = VecDeque::with_capacity(q + 1);
    for _ in 0..q {
        pending_sends.push_back(mpi.isend(ctx, peer, DATA_TAG, Payload::synthetic(p.msg_bytes)));
    }

    // Warm-up: poll until the pipeline is primed (one full queue of
    // messages has come back) so the measured phase sees steady state, not
    // the start-up transient. Bounded so degenerate configurations cannot
    // spin forever.
    let mut warm_msgs = 0usize;
    let mut warm_polls: u64 = 0;
    while warm_msgs < q && warm_polls < p.intervals.max(512) * 8 {
        cpu.compute_iters(ctx, p.poll_interval);
        warm_polls += 1;
        for slot in recvs.iter_mut() {
            if let Some(st) = mpi.test(ctx, *slot) {
                warm_msgs += 1;
                pending_sends.push_back(mpi.isend(ctx, peer, DATA_TAG, Payload::synthetic(st.len)));
                *slot = mpi.irecv(ctx, peer, DATA_TAG);
            }
        }
        reap_sends(mpi, &mut pending_sends);
    }

    // Phase 2 — measured run.
    let stolen_before = cpu.stats().stolen_total;
    let start = ctx.now();
    let mut bytes_received: u64 = 0;
    let mut messages_received: u64 = 0;
    // Run the configured intervals, then keep going (bounded) until enough
    // messages completed for a statistically meaningful bandwidth estimate;
    // availability and bandwidth divide by the actual elapsed time either
    // way. Without this, slow-flowing configurations (large messages near
    // the knee) under-sample.
    let min_msgs = 2 * q as u64;
    let mut done: u64 = 0;
    while done < p.intervals || (messages_received < min_msgs && done < p.intervals * 32) {
        trc.emit(ctx.now(), app, || TraceEvent::PhaseBegin {
            phase: Phase::PollInterval,
            cycle: done,
        });
        trc.emit(ctx.now(), app, || TraceEvent::WorkStart {
            iters: p.poll_interval,
        });
        cpu.compute_iters(ctx, p.poll_interval);
        trc.emit(ctx.now(), app, || TraceEvent::WorkEnd {
            iters: p.poll_interval,
        });
        done += 1;
        for slot in recvs.iter_mut() {
            if let Some(st) = mpi.test(ctx, *slot) {
                bytes_received += st.len;
                messages_received += 1;
                // Propagate the replacement message and repost the receive.
                pending_sends.push_back(mpi.isend(
                    ctx,
                    peer,
                    DATA_TAG,
                    Payload::synthetic(p.msg_bytes),
                ));
                *slot = mpi.irecv(ctx, peer, DATA_TAG);
            }
        }
        reap_sends(mpi, &mut pending_sends);
        trc.emit(ctx.now(), app, || TraceEvent::PhaseEnd {
            phase: Phase::PollInterval,
            cycle: done - 1,
        });
    }
    let total_iters = done * p.poll_interval;
    let work_only = cpu.iters_to_duration(total_iters);
    let elapsed = ctx.now().since(start);
    let stolen = cpu.stats().stolen_total - stolen_before;

    // Drain the in-flight sends before stopping: the stop message is
    // sequenced after them, and an abandoned rendezvous handshake can only
    // be recovered while this process still answers the retry protocol —
    // leaving one behind would wedge the support process's ordering gate
    // on the missing sequence number forever.
    let outstanding: Vec<RequestHandle> = pending_sends.iter().copied().collect();
    mpi.waitall(ctx, &outstanding);
    // Tell the support process to stop; fire and forget (eager, so the
    // link's reliability sublayer guarantees delivery).
    let _ = mpi.isend(ctx, peer, STOP_TAG, Payload::synthetic(1));

    PollingSample {
        poll_interval: p.poll_interval,
        msg_bytes: p.msg_bytes,
        total_iters,
        warmup_polls: warm_polls,
        work_only,
        elapsed,
        availability: availability(work_only, elapsed),
        bandwidth_mbs: bandwidth_mbs(bytes_received, elapsed),
        messages_received,
        stolen,
        faults: crate::metrics::FaultCounters::default(),
    }
}

/// The support process: performs message passing only, echoing every
/// arrival from the worker at rank `peer` until its stop message. The
/// classic two-rank layout passes `Rank(0)`.
pub fn support(ctx: &ProcCtx, mpi: &MpiProc, p: &PollingParams, peer: Rank) {
    let q = p.queue_depth;
    let stop = mpi.irecv(ctx, peer, STOP_TAG);
    let mut recvs: Vec<RequestHandle> = (0..q).map(|_| mpi.irecv(ctx, peer, DATA_TAG)).collect();
    let mut pending_sends: VecDeque<RequestHandle> = VecDeque::new();
    let mut handles: Vec<RequestHandle> = Vec::with_capacity(q + 1);
    loop {
        handles.clear();
        handles.extend_from_slice(&recvs);
        handles.push(stop);
        let (idx, st, _) = mpi.waitany(ctx, &handles);
        if idx == q {
            break; // stop message
        }
        pending_sends.push_back(mpi.isend(ctx, peer, DATA_TAG, Payload::synthetic(st.len)));
        recvs[idx] = mpi.irecv(ctx, peer, DATA_TAG);
        reap_sends(mpi, &mut pending_sends);
    }
}

#[cfg(test)]
mod tests {
    use crate::runner::run_polling_point;
    use crate::sweep::{MethodConfig, Transport};

    #[test]
    fn gm_short_interval_sustains_high_bandwidth_and_availability() {
        let cfg = MethodConfig::new(Transport::Gm, 100 * 1024);
        let s = run_polling_point(&cfg, 10_000).unwrap();
        assert!(
            s.bandwidth_mbs > 80.0,
            "GM plateau bandwidth, got {}",
            s.bandwidth_mbs
        );
        assert!(
            s.availability > 0.8,
            "GM overlap keeps the CPU available, got {}",
            s.availability
        );
        assert_eq!(
            s.stolen,
            comb_sim::SimDuration::ZERO,
            "bypass NIC never interrupts"
        );
    }

    #[test]
    fn portals_short_interval_low_availability_from_interrupts() {
        let cfg = MethodConfig::new(Transport::Portals, 100 * 1024);
        let s = run_polling_point(&cfg, 10_000).unwrap();
        assert!(
            s.bandwidth_mbs > 35.0,
            "Portals plateau bandwidth, got {}",
            s.bandwidth_mbs
        );
        assert!(
            s.availability < 0.4,
            "interrupts must suppress availability, got {}",
            s.availability
        );
        assert!(!s.stolen.is_zero());
    }

    #[test]
    fn huge_interval_starves_bandwidth_and_frees_cpu() {
        let cfg = MethodConfig::new(Transport::Portals, 100 * 1024);
        let s = run_polling_point(&cfg, 50_000_000).unwrap(); // 0.2 s per poll
        assert!(
            s.availability > 0.9,
            "no message flow => CPU free, got {}",
            s.availability
        );
        let plateau = run_polling_point(&MethodConfig::new(Transport::Portals, 100 * 1024), 10_000)
            .unwrap()
            .bandwidth_mbs;
        assert!(
            s.bandwidth_mbs < plateau / 3.0,
            "bandwidth must collapse past the knee: {} vs plateau {}",
            s.bandwidth_mbs,
            plateau
        );
    }

    #[test]
    fn queue_depth_one_is_ping_pong_with_lower_bandwidth() {
        // Paper Section 2.1: queue size one degenerates to a standard
        // ping-pong test and sacrifices maximum sustained bandwidth.
        let mut cfg = MethodConfig::new(Transport::Gm, 100 * 1024);
        let deep = run_polling_point(&cfg, 5_000).unwrap();
        cfg.queue_depth = 1;
        let pingpong = run_polling_point(&cfg, 5_000).unwrap();
        assert!(
            pingpong.bandwidth_mbs < deep.bandwidth_mbs * 0.75,
            "ping-pong {} must trail queued {}",
            pingpong.bandwidth_mbs,
            deep.bandwidth_mbs
        );
    }

    #[test]
    fn sample_is_internally_consistent() {
        let mut cfg = MethodConfig::new(Transport::Gm, 10 * 1024);
        cfg.target_iters = 500_000;
        cfg.max_intervals = 1_000;
        let s = run_polling_point(&cfg, 1_000).unwrap();
        assert!(s.total_iters >= 1_000 * cfg.intervals_for(1_000));
        assert!(s.elapsed >= s.work_only);
        assert!((0.0..=1.0).contains(&s.availability));
        assert!(s.messages_received > 0);
    }
}
