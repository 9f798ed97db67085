//! A steal postpones the CPU's completion event in place. This checks that
//! against the eager scheme it replaced — cancel the completion, schedule a
//! fresh one at the new deadline — kept here as a reference model built on
//! the public kernel API. Over random steal schedules, both must give the
//! same samples, wake every process at the same instants and leave the
//! same kernel counters.

use comb_hw::{ComputeSample, Cpu, CpuConfig};
use comb_sim::{
    Condition, EventId, KernelStats, ProcCtx, SimCell, SimDuration, SimHandle, SimTime, Simulation,
};
use proptest::prelude::*;
use std::sync::Arc;

/// What the test drives: a foreground CPU that computes and takes steals.
trait Model: Send + Sync + 'static {
    fn compute(&self, ctx: &ProcCtx, d: SimDuration) -> ComputeSample;
    fn steal(&self, d: SimDuration);
}

impl Model for Cpu {
    fn compute(&self, ctx: &ProcCtx, d: SimDuration) -> ComputeSample {
        Cpu::compute(self, ctx, d)
    }
    fn steal(&self, d: SimDuration) {
        Cpu::steal(self, d)
    }
}

struct EagerShared {
    /// The computation in progress: its completion event and deadline.
    computing: SimCell<Option<(EventId, SimTime)>>,
    done: Condition,
}

/// The eager reference: every steal cancels the completion and schedules
/// a new one at the moved deadline. Otherwise it is `Cpu`'s foreground
/// path, running in place when nothing is due by the deadline.
struct EagerCpu {
    handle: SimHandle,
    shared: Arc<EagerShared>,
}

impl EagerCpu {
    fn new(handle: &SimHandle) -> EagerCpu {
        EagerCpu {
            handle: handle.clone(),
            shared: Arc::new(EagerShared {
                computing: SimCell::new(handle, None),
                done: Condition::new(handle),
            }),
        }
    }

    fn arm(&self, deadline: SimTime) -> EventId {
        let state = Arc::clone(&self.shared);
        self.handle.schedule_at(deadline, move || {
            state.computing.borrow_mut().take();
            state.done.notify_all();
        })
    }
}

impl Model for EagerCpu {
    fn compute(&self, ctx: &ProcCtx, d: SimDuration) -> ComputeSample {
        let start = self.handle.now();
        if d.is_zero() {
            return ComputeSample { wall: d, stolen: d };
        }
        {
            let mut computing = self.shared.computing.borrow_mut();
            let deadline = start + d;
            if self.handle.advance_in_place(deadline, 2) {
                return ComputeSample {
                    wall: d,
                    stolen: SimDuration::ZERO,
                };
            }
            *computing = Some((self.arm(deadline), deadline));
        }
        self.shared.done.wait(ctx);
        let wall = self.handle.now().since(start);
        ComputeSample {
            wall,
            stolen: wall - d,
        }
    }

    fn steal(&self, d: SimDuration) {
        if d.is_zero() {
            return;
        }
        let mut computing = self.shared.computing.borrow_mut();
        if let Some((id, deadline)) = computing.as_mut() {
            self.handle.cancel(*id);
            *deadline += d;
            *id = self.arm(*deadline);
        }
    }
}

/// One random scenario, in µs. `work`: `(kind, d)`, a hold of `d` when
/// `kind % 4 == 0`, else a computation of `d`. `steals`: `(at, d, mode,
/// dt)`, a steal of `d` queued before the run for `at`; when it fires it
/// also queues a steal of `d` for `dt` later, after stealing if `mode % 3
/// == 1` and before if `mode % 3 == 2`. `thief`: `(hold, d)`, a process
/// that holds, then steals `d`.
type Plan = (Vec<(u8, u64)>, Vec<(u64, u64, u8, u64)>, Vec<(u64, u64)>);

/// What a run shows: the worker's samples and wake-up times, the thief's
/// wake-up times, the end time and the kernel counters.
type Outcome = (Vec<(ComputeSample, u64)>, Vec<u64>, u64, KernelStats);

fn us(n: u64) -> SimDuration {
    SimDuration::from_micros(n)
}

fn run<M: Model>(plan: &Plan, make: impl FnOnce(&SimHandle) -> M) -> Outcome {
    let (work, steals, thief) = plan.clone();
    let mut sim = Simulation::new();
    let h = sim.handle();
    let cpu = Arc::new(make(&h));
    let (worker_probe, thief_probe) = (sim.probe(), sim.probe());
    let (c, p) = (Arc::clone(&cpu), worker_probe.clone());
    sim.spawn("worker", move |ctx| {
        let mut seen = Vec::new();
        for (kind, d) in work {
            let s = if kind % 4 == 0 {
                ctx.hold(us(d));
                ComputeSample {
                    wall: us(d),
                    stolen: SimDuration::ZERO,
                }
            } else {
                c.compute(ctx, us(d))
            };
            seen.push((s, ctx.now().as_nanos()));
        }
        p.set(seen);
    });
    let (c, p) = (Arc::clone(&cpu), thief_probe.clone());
    sim.spawn("thief", move |ctx| {
        let mut seen = Vec::new();
        for (hold, d) in thief {
            ctx.hold(us(hold));
            c.steal(us(d));
            seen.push(ctx.now().as_nanos());
        }
        p.set(seen);
    });
    for (at, d, mode, dt) in steals {
        let (c, h2) = (Arc::clone(&cpu), h.clone());
        h.schedule_at(SimTime::ZERO + us(at), move || {
            let follow = || {
                let c = Arc::clone(&c);
                h2.schedule_in(us(dt), move || c.steal(us(d)));
            };
            if mode % 3 == 2 {
                follow();
            }
            c.steal(us(d));
            if mode % 3 == 1 {
                follow();
            }
        });
    }
    let end = sim.run().expect("run failed").as_nanos();
    (
        worker_probe.take().expect("worker did not finish"),
        thief_probe.take().expect("thief did not finish"),
        end,
        h.kernel_stats(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Times are whole microseconds in a short window, so steals land on
    /// deadlines, on each other and on re-keyed deadlines often.
    #[test]
    fn postponed_completion_matches_the_eager_re_arm(
        work in proptest::collection::vec((any::<u8>(), 1u64..9), 1..12),
        steals in proptest::collection::vec((0u64..60, 0u64..4, any::<u8>(), 0u64..4), 0..24),
        thief in proptest::collection::vec((0u64..10, 0u64..4), 0..8),
    ) {
        let plan = (work, steals, thief);
        let lazy = run(&plan, |h| Cpu::new(h, CpuConfig::default()));
        let eager = run(&plan, EagerCpu::new);
        prop_assert_eq!(&lazy.0, &eager.0, "worker samples and wake-ups");
        prop_assert_eq!(&lazy.1, &eager.1, "thief wake-ups");
        prop_assert_eq!(lazy.2, eager.2, "end time");
        prop_assert_eq!(lazy.3, eager.3, "kernel counters");
    }
}

/// The case the property is about, pinned: a steal queued for a moved
/// deadline's instant, in the same instant as the move.
#[test]
fn a_tie_at_a_moved_deadline_matches_the_eager_re_arm() {
    // A 10 µs computation; a steal at 5 µs moves it to 13 µs, and its
    // follow-up at the same instant is queued before or after that move.
    for mode in [1u8, 2] {
        let plan: Plan = (vec![(1, 10)], vec![(5, 3, mode, 8)], vec![]);
        let lazy = run(&plan, |h| Cpu::new(h, CpuConfig::default()));
        assert_eq!(lazy, run(&plan, EagerCpu::new), "mode {mode}");
        let wall = lazy.0[0].0.wall;
        assert_eq!(wall, us(if mode == 2 { 16 } else { 13 }), "mode {mode}");
        assert!(lazy.3.cancelled > 0, "a steal landed in the computation");
    }
}
