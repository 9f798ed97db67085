//! A netperf-style availability measurement — the related-work approach the
//! paper contrasts COMB against (Section 5).
//!
//! netperf runs the delay loop and the communication driver as **two
//! separate processes on the same node**: the delay loop is timed alone,
//! then timed again while the communication process drives traffic, and the
//! ratio is reported as availability. This works for TCP (the driver
//! *sleeps* in `select` while waiting), but the paper points out two
//! problems for MPI: (1) MPI environments assume one process per node, and
//! (2) OS-bypass MPIs **busy-wait**, so the driver process burns the very
//! CPU the delay loop is trying to measure, making availability read ~0
//! regardless of what the network offloads.
//!
//! This module reproduces that methodology on the simulated node (the
//! driver runs on a time-shared `Cpu::background` handle) with both
//! waiting styles, so the distortion the paper describes is measurable —
//! see `examples/netperf_comparison.rs`.

use crate::metrics::{availability, bandwidth_mbs};
use crate::polling::{DATA_TAG, STOP_TAG};
use crate::runner::{RunError, Scenario, SimRig};
use comb_hw::{Cluster, NodeId};
use comb_mpi::{MpiEngine, MpiProc, Payload, Rank, RequestHandle};
use comb_sim::{Probe, Signal, SimDuration};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Result of one netperf-style measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct NetperfSample {
    /// Message payload size in bytes.
    pub msg_bytes: u64,
    /// Whether the driver busy-waits (OS-bypass MPI style) or sleeps
    /// (select/TCP style).
    pub busy_wait: bool,
    /// Delay-loop time with no traffic.
    pub work_only: SimDuration,
    /// Delay-loop time while the driver runs.
    pub elapsed: SimDuration,
    /// Reported availability (`work_only / elapsed`).
    pub availability: f64,
    /// Driver-side bandwidth in MB/s during the measured window.
    pub bandwidth_mbs: f64,
    /// Round trips completed by the driver during the measured window.
    pub roundtrips: u64,
}

/// Spin quantum of the busy-waiting driver.
const SPIN: SimDuration = SimDuration::from_micros(2);

/// One netperf-style measurement: the delay loop and the communication
/// driver share node 0, an echo process runs on node 1.
#[derive(Debug, Clone, Copy)]
pub struct NetperfParams {
    /// Message payload size in bytes.
    pub msg_bytes: u64,
    /// Delay-loop length in calibrated loop iterations.
    pub total_iters: u64,
    /// Whether the driver busy-waits (OS-bypass MPI style) or sleeps
    /// (select/TCP style).
    pub busy_wait: bool,
}

impl Scenario for NetperfParams {
    type Sample = NetperfSample;
    type Pending = Probe<NetperfSample>;

    fn nodes(&self) -> usize {
        2
    }

    fn spawn(&self, rig: &mut SimRig, cluster: &Cluster) -> Probe<NetperfSample> {
        let NetperfParams {
            msg_bytes,
            total_iters,
            busy_wait,
        } = *self;
        let (node0, node1) = (cluster.node(NodeId(0)), cluster.node(NodeId(1)));
        let mpi_cfg = &cluster.config.mpi;

        // Rank 0's MPI engine runs in the *driver* process, time-shared
        // with the delay loop: its call costs preempt the foreground
        // computation.
        let bg_cpu = node0.cpu.background();
        let driver_engine = MpiEngine::new_traced(
            Rank(0),
            &node0.handle,
            &bg_cpu,
            &node0.nic,
            mpi_cfg.clone(),
            cluster.tracer().clone(),
        );
        let driver_mpi = MpiProc::from_engine(driver_engine, 2);
        // Rank 1 is a normal echo process. Note: we attach its engine
        // manually because MpiWorld::attach would re-install rank 0's NIC
        // handlers.
        let echo_engine = MpiEngine::new_traced(
            Rank(1),
            &node1.handle,
            &node1.cpu,
            &node1.nic,
            mpi_cfg.clone(),
            cluster.tracer().clone(),
        );
        let echo_mpi = MpiProc::from_engine(echo_engine, 2);

        let stop = Arc::new(AtomicBool::new(false));
        let start_driver = Signal::new(&node0.handle);
        let traffic_up = Signal::new(&node0.handle);
        let probe = Probe::<NetperfSample>::new();
        let counters = Probe::<(u64, u64)>::new(); // (roundtrips, bytes)

        // The delay-loop process (the only thing netperf actually times).
        {
            let cpu = node0.cpu.clone();
            let (stop, start_driver, traffic_up, probe, counters) = (
                Arc::clone(&stop),
                start_driver.clone(),
                traffic_up.clone(),
                probe.clone(),
                counters.clone(),
            );
            rig.spawn(0, "delay-loop", move |ctx| {
                // Quiescent measurement (the driver is gated off).
                let t0 = ctx.now();
                cpu.compute_iters(ctx, total_iters);
                let work_only = ctx.now().since(t0);
                // Release the driver, wait for traffic, then measure again.
                start_driver.fire();
                traffic_up.wait(ctx);
                let (rt0, _) = counters.get().unwrap_or((0, 0));
                let t1 = ctx.now();
                cpu.compute_iters(ctx, total_iters);
                let elapsed = ctx.now().since(t1);
                stop.store(true, Ordering::Relaxed);
                let (rt1, _) = counters.get().unwrap_or((0, 0));
                let roundtrips = rt1 - rt0;
                probe.set(NetperfSample {
                    msg_bytes,
                    busy_wait,
                    work_only,
                    elapsed,
                    availability: availability(work_only, elapsed),
                    bandwidth_mbs: 0.0, // filled in by `sample` below
                    roundtrips,
                });
            });
        }

        // The communication driver process, sharing node 0's CPU.
        {
            let mpi = driver_mpi;
            let bg = bg_cpu.clone();
            rig.spawn(0, "netperf-driver", move |ctx| {
                start_driver.wait(ctx);
                let peer = Rank(1);
                let mut roundtrips: u64 = 0;
                let mut bytes: u64 = 0;
                let mut first = true;
                let mut leftover: Vec<RequestHandle> = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let r_recv = mpi.irecv(ctx, peer, DATA_TAG);
                    let r_send = mpi.isend(ctx, peer, DATA_TAG, Payload::synthetic(msg_bytes));
                    if busy_wait {
                        // OS-bypass MPI style: spin on test, burning host CPU.
                        let mut pending: Vec<RequestHandle> = vec![r_recv, r_send];
                        while !pending.is_empty() {
                            pending.retain(|&r| mpi.test(ctx, r).is_none());
                            if !pending.is_empty() {
                                bg.compute(ctx, SPIN);
                            }
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                        }
                        leftover = pending;
                    } else {
                        // TCP/select style: sleep until completion.
                        mpi.waitall(ctx, &[r_recv, r_send]);
                    }
                    roundtrips += 1;
                    bytes += msg_bytes;
                    counters.set((roundtrips, bytes));
                    if first {
                        first = false;
                        traffic_up.fire();
                    }
                }
                // Complete whatever the early stop abandoned (the stop
                // message below is sequenced after the data messages, so
                // they must all be delivered first), then release the echo
                // process.
                mpi.waitall(ctx, &leftover);
                let _ = mpi.isend(ctx, peer, STOP_TAG, Payload::synthetic(1));
                mpi.finalize();
            });
        }

        // The echo process on node 1.
        rig.spawn(1, "echo", move |ctx| {
            let peer = Rank(0);
            let mpi = echo_mpi;
            let stop_req = mpi.irecv(ctx, peer, STOP_TAG);
            loop {
                let data = mpi.irecv(ctx, peer, DATA_TAG);
                let (idx, st, _) = mpi.waitany(ctx, &[data, stop_req]);
                if idx == 1 {
                    break;
                }
                let _ = mpi.isend(ctx, peer, DATA_TAG, Payload::synthetic(st.len));
                let _ = st;
            }
            mpi.finalize();
        });
        probe
    }

    fn sample(&self, probe: Probe<NetperfSample>, _: &Cluster) -> Result<NetperfSample, RunError> {
        let mut sample = probe.take().ok_or(RunError::NoResult)?;
        // Bandwidth over the measured window (driver counted continuously;
        // the window is elapsed, during which roughly all counted traffic
        // flowed).
        sample.bandwidth_mbs = bandwidth_mbs(sample.roundtrips * self.msg_bytes, sample.elapsed);
        Ok(sample)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run, RunSpec};
    use crate::sweep::{MethodConfig, Transport};

    fn cfg(t: Transport) -> MethodConfig {
        MethodConfig::new(t, 100 * 1024)
    }

    /// One netperf measurement of 100 KB messages on `t`.
    fn netperf(t: Transport, total_iters: u64, busy_wait: bool) -> NetperfSample {
        let point = NetperfParams {
            msg_bytes: 100 * 1024,
            total_iters,
            busy_wait,
        };
        run(&point, &RunSpec::of(&cfg(t))).unwrap().sample
    }

    #[test]
    fn busy_wait_driver_destroys_reported_availability_on_gm() {
        // The paper's Section 5 argument: with a busy-waiting MPI, netperf
        // reports near-zero availability on a transport that COMB's polling
        // method shows overlaps almost perfectly.
        let netperf = netperf(Transport::Gm, 4_000_000, true);
        assert!(
            netperf.availability < 0.65,
            "busy-wait must crush netperf availability towards the 50% \
             time-slice floor, got {}",
            netperf.availability
        );
        let comb = crate::runner::run_polling_point(&cfg(Transport::Gm), 10_000).unwrap();
        assert!(
            comb.availability > 0.8,
            "COMB sees the overlap netperf misses: {}",
            comb.availability
        );
        assert!(comb.availability > netperf.availability + 0.2);
    }

    #[test]
    fn sleeping_driver_reports_sane_availability() {
        // select-style waiting (netperf's TCP home turf): on GM the NIC
        // moves the data and the driver sleeps, so availability is high.
        let s = netperf(Transport::Gm, 4_000_000, false);
        assert!(
            s.availability > 0.7,
            "sleeping driver should leave the CPU alone, got {}",
            s.availability
        );
        assert!(s.roundtrips > 0);
        assert!(s.bandwidth_mbs > 0.0);
    }

    #[test]
    fn portals_interrupts_show_up_either_way() {
        let s = netperf(Transport::Portals, 4_000_000, false);
        assert!(
            s.availability < 0.75,
            "ISRs must depress availability, got {}",
            s.availability
        );
    }

    #[test]
    fn netperf_point_is_deterministic() {
        let a = netperf(Transport::Portals, 1_000_000, true);
        let b = netperf(Transport::Portals, 1_000_000, true);
        assert_eq!(a, b);
    }
}
