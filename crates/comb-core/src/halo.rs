//! 1-D stencil halo exchange: a real application pattern on the simulated
//! cluster, promoted from `examples/halo_exchange.rs` into a swept
//! scenario — the workload class the paper's introduction motivates.
//!
//! Each of `ranks` ranks owns a domain slice. Per iteration it posts halo
//! receives and sends to both neighbours (non-blocking), computes the
//! interior (overlapped with the halos, or after them in the no-overlap
//! baseline), waits for the halos, then computes the boundary cells. The
//! reported time is the global maximum across ranks (an `MPI_Allreduce`),
//! exactly as an application would measure a timestep loop.
//!
//! With more than two ranks it is a multi-node workload exercising the
//! sharded kernel end to end: nodes land on shards round-robin and every
//! halo crosses the wire — and, when sharded, the epoch mailboxes —
//! without changing a single reported nanosecond.

use crate::runner::{RunError, Scenario, SimRig};
use comb_hw::{Cluster, NodeId};
use comb_mpi::{MpiWorld, Payload, Rank, ReduceOp, Tag};
use comb_sim::Probe;

const LEFT_TAG: Tag = Tag(10);
const RIGHT_TAG: Tag = Tag(11);

/// Shape of one halo-exchange run (everything except the interior work,
/// which is the swept x axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HaloParams {
    /// Ranks (= nodes) in the 1-D decomposition; at least 2.
    pub ranks: usize,
    /// Timestep iterations measured.
    pub iterations: usize,
    /// Halo payload per neighbour per iteration, in bytes.
    pub halo_bytes: u64,
    /// Boundary work per iteration, in calibrated loop iterations.
    pub boundary_iters: u64,
}

impl HaloParams {
    /// The example's full-size configuration: 4 ranks, 25 iterations,
    /// 64 KB halos.
    pub fn example() -> HaloParams {
        HaloParams {
            ranks: 4,
            iterations: 25,
            halo_bytes: 64 * 1024,
            boundary_iters: 50_000,
        }
    }

    /// Small-grid smoke configuration for tests and CI: same structure,
    /// a few iterations, 32 KB halos.
    pub fn smoke() -> HaloParams {
        HaloParams {
            ranks: 4,
            iterations: 6,
            halo_bytes: 32 * 1024,
            boundary_iters: 20_000,
        }
    }
}

/// One halo-exchange point: `interior_iters` of overlappable work per
/// iteration, overlapped with the halo flight or serialized after it. The
/// sample is the global elapsed time in milliseconds (max across ranks).
#[derive(Debug, Clone, Copy)]
pub struct HaloPoint {
    /// The run's shape.
    pub params: HaloParams,
    /// Interior work per iteration, in calibrated loop iterations.
    pub interior_iters: u64,
    /// Overlap the interior with the halos (else the no-overlap baseline).
    pub overlap: bool,
}

impl Scenario for HaloPoint {
    type Sample = f64;
    type Pending = (Probe<u64>, MpiWorld);

    fn nodes(&self) -> usize {
        assert!(
            self.params.ranks >= 2,
            "a halo exchange needs at least 2 ranks"
        );
        self.params.ranks
    }

    fn spawn(&self, rig: &mut SimRig, cluster: &Cluster) -> Self::Pending {
        let world = MpiWorld::attach(cluster);
        let probe = Probe::new();
        let HaloPoint {
            params: p,
            interior_iters,
            overlap,
        } = *self;
        for r in 0..p.ranks {
            let mpi = world.proc(Rank(r));
            let cpu = cluster.node(NodeId(r)).cpu.clone();
            let pr = probe.clone();
            rig.spawn(r, &format!("rank{r}"), move |ctx| {
                let left = (r > 0).then(|| Rank(r - 1));
                let right = (r + 1 < p.ranks).then(|| Rank(r + 1));

                mpi.barrier(ctx);
                let t0 = ctx.now();
                for _ in 0..p.iterations {
                    // 1. Halo posts: receives first, then sends.
                    let mut reqs = Vec::with_capacity(4);
                    if let Some(l) = left {
                        reqs.push(mpi.irecv(ctx, l, RIGHT_TAG));
                    }
                    if let Some(rt) = right {
                        reqs.push(mpi.irecv(ctx, rt, LEFT_TAG));
                    }
                    if let Some(l) = left {
                        reqs.push(mpi.isend(ctx, l, LEFT_TAG, Payload::synthetic(p.halo_bytes)));
                    }
                    if let Some(rt) = right {
                        reqs.push(mpi.isend(ctx, rt, RIGHT_TAG, Payload::synthetic(p.halo_bytes)));
                    }
                    if overlap {
                        // 2. Interior while the halos (hopefully) fly.
                        cpu.compute_iters(ctx, interior_iters);
                        // 3. Halo completion.
                        mpi.waitall(ctx, &reqs);
                    } else {
                        // No-overlap baseline: wait first, then compute.
                        mpi.waitall(ctx, &reqs);
                        cpu.compute_iters(ctx, interior_iters);
                    }
                    // 4. Boundary cells need the halos.
                    cpu.compute_iters(ctx, p.boundary_iters);
                }
                let elapsed = ctx.now().since(t0);
                // Agree on the global elapsed time (max across ranks).
                let global_ns = mpi.allreduce(ctx, ReduceOp::Max, elapsed.as_nanos());
                if r == 0 {
                    pr.set(global_ns);
                }
                mpi.finalize();
            });
        }
        (probe, world)
    }

    fn sample(&self, (probe, _): Self::Pending, _: &Cluster) -> Result<f64, RunError> {
        Ok(probe.take().ok_or(RunError::NoResult)? as f64 / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run, RunSpec};
    use comb_hw::HwConfig;

    /// One smoke-size halo point on Portals, in milliseconds.
    fn halo_ms(interior_iters: u64, overlap: bool) -> f64 {
        let point = HaloPoint {
            params: HaloParams::smoke(),
            interior_iters,
            overlap,
        };
        run(&point, &RunSpec::new(HwConfig::portals_myrinet()))
            .unwrap()
            .sample
    }

    #[test]
    fn halo_points_are_deterministic() {
        let first = halo_ms(200_000, true);
        assert!(first > 0.0);
        assert_eq!(first, halo_ms(200_000, true));
    }

    #[test]
    fn overlap_beats_no_overlap_on_an_offloaded_transport() {
        // The example's headline finding, pinned: on Portals (full
        // offload) overlapping the interior with the halos is faster.
        let base = halo_ms(400_000, false);
        let over = halo_ms(400_000, true);
        assert!(
            over < base,
            "overlap ({over} ms) should beat no-overlap ({base} ms) on Portals"
        );
    }
}
