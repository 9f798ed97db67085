//! Classic latency/bandwidth microbenchmark (ping-pong).
//!
//! The paper positions COMB against "most MPI microbenchmarks \[that\] can
//! measure latency, bandwidth, and host CPU overhead" but miss the overlap
//! picture (Section 1). This module *is* that classic microbenchmark, so the
//! two views can be produced side by side from the same substrate: a
//! platform can win the latency table and still lose the overlap story
//! (GM vs Portals), which is exactly the paper's motivation.

use crate::polling::DATA_TAG;
use crate::runner::{run, RunError, RunSpec, Scenario, SimRig};
use crate::sweep::MethodConfig;
use comb_hw::Cluster;
use comb_mpi::{MpiWorld, Payload, Rank};
use comb_sim::{Probe, SimDuration};

/// One row of the classic ping-pong table.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySample {
    /// Message payload size in bytes.
    pub msg_bytes: u64,
    /// Half round-trip time (the conventional "latency").
    pub half_rtt: SimDuration,
    /// Ping-pong bandwidth in MB/s (size / half-RTT).
    pub bandwidth_mbs: f64,
    /// Round trips measured.
    pub iterations: u64,
}

/// A blocking ping-pong of `iterations` round trips (after one warm-up)
/// at one message size, between node 0 and node 1.
#[derive(Debug, Clone, Copy)]
pub struct PingPong {
    /// Message payload size in bytes.
    pub msg_bytes: u64,
    /// Round trips measured; at least one.
    pub iterations: u64,
}

impl Scenario for PingPong {
    type Sample = LatencySample;
    type Pending = (Probe<SimDuration>, MpiWorld);

    fn nodes(&self) -> usize {
        2
    }

    fn spawn(&self, rig: &mut SimRig, cluster: &Cluster) -> Self::Pending {
        assert!(self.iterations > 0);
        let PingPong {
            msg_bytes: size,
            iterations,
        } = *self;
        let world = MpiWorld::attach(cluster);
        let (m0, m1) = (world.proc(Rank(0)), world.proc(Rank(1)));
        let probe = Probe::new();
        let p = probe.clone();
        rig.spawn(0, "pinger", move |ctx| {
            // One warm-up round trip, then the measured ones.
            m0.send(ctx, Rank(1), DATA_TAG, Payload::synthetic(size));
            let _ = m0.recv(ctx, Rank(1), DATA_TAG);
            let t0 = ctx.now();
            for _ in 0..iterations {
                m0.send(ctx, Rank(1), DATA_TAG, Payload::synthetic(size));
                let _ = m0.recv(ctx, Rank(1), DATA_TAG);
            }
            p.set(ctx.now().since(t0));
        });
        rig.spawn(1, "ponger", move |ctx| {
            for _ in 0..iterations + 1 {
                let (st, _) = m1.recv(ctx, Rank(0), DATA_TAG);
                m1.send(ctx, Rank(0), DATA_TAG, Payload::synthetic(st.len));
            }
        });
        (probe, world)
    }

    fn sample(&self, (probe, _): Self::Pending, _: &Cluster) -> Result<LatencySample, RunError> {
        let total = probe.take().ok_or(RunError::NoResult)?;
        let half_rtt = total / (2 * self.iterations);
        let bandwidth_mbs = if half_rtt.is_zero() {
            0.0
        } else {
            self.msg_bytes as f64 / half_rtt.as_secs_f64() / 1e6
        };
        Ok(LatencySample {
            msg_bytes: self.msg_bytes,
            half_rtt,
            bandwidth_mbs,
            iterations: self.iterations,
        })
    }
}

/// Run a blocking ping-pong of `iterations` round trips at each of the
/// given message sizes, one simulation per size; returns one row per size.
pub fn run_pingpong(
    cfg: &MethodConfig,
    sizes: &[u64],
    iterations: u64,
) -> Result<Vec<LatencySample>, RunError> {
    let spec = RunSpec::of(cfg);
    sizes
        .iter()
        .map(|&msg_bytes| {
            Ok(run(
                &PingPong {
                    msg_bytes,
                    iterations,
                },
                &spec,
            )?
            .sample)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::Transport;

    const SIZES: [u64; 4] = [0, 1024, 16 * 1024, 100 * 1024];

    #[test]
    fn latency_grows_with_size_and_is_deterministic() {
        let cfg = MethodConfig::new(Transport::Gm, 0);
        let rows = run_pingpong(&cfg, &SIZES, 10).unwrap();
        assert_eq!(rows.len(), 4);
        assert!(
            rows.windows(2).all(|w| w[0].half_rtt <= w[1].half_rtt),
            "latency must be monotone in size: {rows:#?}"
        );
        let again = run_pingpong(&cfg, &SIZES, 10).unwrap();
        assert_eq!(rows, again);
    }

    #[test]
    fn gm_zero_byte_latency_beats_portals() {
        // The classic table agrees with the paper's Section 4 narrative:
        // OS-bypass wins raw latency.
        let gm = run_pingpong(&MethodConfig::new(Transport::Gm, 0), &[0], 20).unwrap();
        let portals = run_pingpong(&MethodConfig::new(Transport::Portals, 0), &[0], 20).unwrap();
        assert!(
            gm[0].half_rtt < portals[0].half_rtt,
            "GM {} vs Portals {}",
            gm[0].half_rtt,
            portals[0].half_rtt
        );
    }

    #[test]
    fn pingpong_bandwidth_is_below_pipelined_bandwidth() {
        // A single in-flight message cannot saturate the pipe — the reason
        // the polling method uses a message queue (paper Section 2.1).
        let cfg = MethodConfig::new(Transport::Gm, 100 * 1024);
        let pp = run_pingpong(&cfg, &[100 * 1024], 10).unwrap();
        let queued = crate::runner::run_polling_point(&cfg, 5_000).unwrap();
        assert!(
            pp[0].bandwidth_mbs < queued.bandwidth_mbs,
            "ping-pong {} must trail queued {}",
            pp[0].bandwidth_mbs,
            queued.bandwidth_mbs
        );
    }

    #[test]
    fn latency_includes_the_eager_send_overhead() {
        // GM's 45 us small-send path must dominate the small-message RTT.
        let rows = run_pingpong(&MethodConfig::new(Transport::Gm, 0), &[1024], 10).unwrap();
        let half = rows[0].half_rtt;
        assert!(
            half >= SimDuration::from_micros(45),
            "half-RTT {half} cannot be below the send overhead"
        );
        assert!(
            half <= SimDuration::from_micros(120),
            "half-RTT {half} looks implausibly slow for 1 KB"
        );
    }
}
