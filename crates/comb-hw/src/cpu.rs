//! Host CPU model.
//!
//! The CPU executes application work (the benchmark's calibrated loop) and
//! MPI library overheads in virtual time. Interrupt service routines raised
//! by the kernel NIC *steal* cycles: any computation in progress is extended
//! by the ISR cost, exactly the effect the paper measures in Figure 12
//! ("work with message handling" vs "work only").
//!
//! Implementation: a computation schedules one completion event at
//! `now + duration` and parks its process on the CPU's one completion
//! [`Condition`]. Each steal pushes the deadline back by the stolen time
//! and postpones that same event to it ([`SimHandle::postpone`]) — O(1)
//! per interrupt, with no queue traffic: the event fires, and is counted,
//! exactly as a cancel and a fresh schedule at the new deadline would
//! have. A warm computation allocates nothing: the condition's waiter
//! buffer is reused, and the completion event captures one pointer. A
//! computation with nothing else due by its deadline cannot be
//! interrupted, so it runs in place instead
//! ([`SimHandle::advance_in_place`]): the completion and the resume are
//! charged as fired, and nothing is queued.

use crate::config::CpuConfig;
use comb_sim::{Condition, EventId, ProcCtx, SimCell, SimDuration, SimHandle, SimTime};
use std::sync::Arc;

/// Result of one [`Cpu::compute`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComputeSample {
    /// Wall (virtual) time the computation took, including stolen time.
    pub wall: SimDuration,
    /// Time stolen by interrupts during this computation.
    pub stolen: SimDuration,
}

/// Cumulative CPU counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuStats {
    /// Total time stolen by interrupts since construction.
    pub stolen_total: SimDuration,
    /// Number of steal events serviced.
    pub steal_events: u64,
    /// Total time spent in `compute` (wall, including stolen).
    pub compute_wall: SimDuration,
}

struct Computing {
    completion: EventId,
    deadline: SimTime,
}

struct CpuInner {
    computing: Option<Computing>,
    stats: CpuStats,
}

/// State shared by every handle onto one CPU.
struct CpuShared {
    inner: SimCell<CpuInner>,
    /// The foreground computation's process parks here until its
    /// completion event fires.
    done: Condition,
}

/// A simulated host CPU. Cloneable handle; all clones share state.
///
/// A handle is either *foreground* (the default: runs the measured
/// application computation; at most one such computation at a time) or
/// *background* (see [`Cpu::background`]): background work models a second
/// process time-shared onto the same CPU — its compute time passes in
/// parallel on the virtual timeline **and** is stolen from any foreground
/// computation, exactly like an equal-priority preemption.
#[derive(Clone)]
pub struct Cpu {
    cfg: CpuConfig,
    handle: SimHandle,
    background: bool,
    shared: Arc<CpuShared>,
}

impl Cpu {
    /// Create a CPU bound to a simulation.
    pub fn new(handle: &SimHandle, cfg: CpuConfig) -> Cpu {
        Cpu {
            cfg,
            handle: handle.clone(),
            background: false,
            shared: Arc::new(CpuShared {
                inner: SimCell::new(
                    handle,
                    CpuInner {
                        computing: None,
                        stats: CpuStats::default(),
                    },
                ),
                done: Condition::new(handle),
            }),
        }
    }

    /// A background handle onto the same CPU: its `compute` calls steal
    /// from the foreground computation instead of asserting exclusivity.
    /// Used to model a second process (e.g. netperf's communication
    /// driver) time-shared onto the node.
    pub fn background(&self) -> Cpu {
        Cpu {
            background: true,
            ..self.clone()
        }
    }

    /// True if this handle charges work as background preemption.
    pub fn is_background(&self) -> bool {
        self.background
    }

    /// The CPU's configuration.
    pub fn config(&self) -> &CpuConfig {
        &self.cfg
    }

    /// Virtual time for `iters` calibrated loop iterations, with no
    /// interference.
    pub fn iters_to_duration(&self, iters: u64) -> SimDuration {
        self.cfg.iters_to_duration(iters)
    }

    /// Execute `iters` loop iterations on behalf of the calling process.
    /// Blocks (in virtual time) for the base duration plus any time stolen
    /// by interrupts that fire meanwhile.
    pub fn compute_iters(&self, ctx: &ProcCtx, iters: u64) -> ComputeSample {
        self.compute(ctx, self.iters_to_duration(iters))
    }

    /// Execute a fixed duration of host work (used for MPI call overheads),
    /// extendable by interrupts like any other computation.
    pub fn compute(&self, ctx: &ProcCtx, d: SimDuration) -> ComputeSample {
        let start = self.handle.now();
        if d.is_zero() {
            return ComputeSample {
                wall: SimDuration::ZERO,
                stolen: SimDuration::ZERO,
            };
        }
        if self.background {
            // Fair time-sharing: while a foreground computation is active,
            // the two processes round-robin — `d` of background work takes
            // 2d of wall time and costs the foreground d (the other half).
            // On an otherwise idle CPU the background just runs.
            let contended = self.shared.inner.borrow_mut().computing.is_some();
            if contended {
                self.steal(d);
                ctx.hold(d * 2);
                return ComputeSample {
                    wall: d * 2,
                    stolen: d,
                };
            }
            ctx.hold(d);
            return ComputeSample {
                wall: d,
                stolen: SimDuration::ZERO,
            };
        }
        {
            let mut inner = self.shared.inner.borrow_mut();
            assert!(
                inner.computing.is_none(),
                "Cpu::compute is not reentrant: one computation per CPU at a time"
            );
            let deadline = start + d;
            // Nothing due by the deadline: no steal can extend the
            // computation (a steal is an event), so its completion and the
            // resume that completion schedules run in place.
            if self.handle.advance_in_place(deadline, 2) {
                inner.stats.compute_wall += d;
                return ComputeSample {
                    wall: d,
                    stolen: SimDuration::ZERO,
                };
            }
            let completion = arm_completion(&self.shared, deadline);
            inner.computing = Some(Computing {
                completion,
                deadline,
            });
        }
        // Only this computation's completion notifies `done`, and only
        // after clearing `computing`: one wait is the whole predicate loop.
        self.shared.done.wait(ctx);
        let wall = self.handle.now().since(start);
        let stolen = wall.saturating_sub(d);
        self.shared.inner.borrow_mut().stats.compute_wall += wall;
        ComputeSample { wall, stolen }
    }

    /// Steal `d` of CPU time for an interrupt service routine: extends any
    /// computation in progress and accumulates the steal counters.
    pub fn steal(&self, d: SimDuration) {
        if d.is_zero() {
            return;
        }
        let mut inner = self.shared.inner.borrow_mut();
        inner.stats.stolen_total += d;
        inner.stats.steal_events += 1;
        if let Some(c) = inner.computing.as_mut() {
            c.deadline += d;
            self.handle.postpone(c.completion, c.deadline);
        }
    }

    /// Cumulative counters.
    pub fn stats(&self) -> CpuStats {
        self.shared.inner.borrow_mut().stats
    }

    /// True if a computation is currently in progress.
    pub fn is_computing(&self) -> bool {
        self.shared.inner.borrow_mut().computing.is_some()
    }
}

/// Schedule the completion event for the computation at `deadline`. Steals
/// postpone the event to each new deadline, so firing means the
/// computation is over: it ends the computation and resumes the computing
/// process.
fn arm_completion(shared: &Arc<CpuShared>, deadline: SimTime) -> EventId {
    let state = Arc::clone(shared);
    shared.inner.handle().schedule_at(deadline, move || {
        let done = state.inner.borrow_mut().computing.take();
        debug_assert!(
            done.is_some(),
            "completion fired with no computation in progress"
        );
        state.done.notify_all();
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use comb_sim::Simulation;

    fn cpu_cfg() -> CpuConfig {
        CpuConfig::default() // 4 ns per iteration
    }

    #[test]
    fn compute_without_interrupts_takes_base_time() {
        let mut sim = Simulation::new();
        let cpu = Cpu::new(&sim.handle(), cpu_cfg());
        let probe = sim.probe::<ComputeSample>();
        let (c, p) = (cpu.clone(), probe.clone());
        sim.spawn("w", move |ctx| {
            p.set(c.compute_iters(ctx, 1_000));
        });
        sim.run().unwrap();
        let s = probe.get().unwrap();
        assert_eq!(s.wall, SimDuration::from_micros(4));
        assert_eq!(s.stolen, SimDuration::ZERO);
    }

    #[test]
    fn interrupts_extend_computation_and_are_accounted() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let cpu = Cpu::new(&h, cpu_cfg());
        let probe = sim.probe::<ComputeSample>();
        let (c, p) = (cpu.clone(), probe.clone());
        sim.spawn("w", move |ctx| {
            p.set(c.compute(ctx, SimDuration::from_micros(100)));
        });
        // Two ISRs of 10 us while the compute runs.
        for at_us in [20, 50] {
            let c = cpu.clone();
            h.schedule_in(SimDuration::from_micros(at_us), move || {
                c.steal(SimDuration::from_micros(10));
            });
        }
        sim.run().unwrap();
        let s = probe.get().unwrap();
        assert_eq!(s.wall, SimDuration::from_micros(120));
        assert_eq!(s.stolen, SimDuration::from_micros(20));
        let stats = cpu.stats();
        assert_eq!(stats.steal_events, 2);
        assert_eq!(stats.stolen_total, SimDuration::from_micros(20));
    }

    #[test]
    fn steal_outside_compute_only_counts_stats() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let cpu = Cpu::new(&h, cpu_cfg());
        let c = cpu.clone();
        h.schedule_in(SimDuration::from_micros(1), move || {
            c.steal(SimDuration::from_micros(7));
        });
        sim.run().unwrap();
        assert_eq!(cpu.stats().stolen_total, SimDuration::from_micros(7));
        assert!(!cpu.is_computing());
    }

    #[test]
    fn interrupt_exactly_at_deadline_does_not_extend() {
        // A steal queued for the deadline after the completion was armed
        // fires after it at that instant: the computation is already over.
        let mut sim = Simulation::new();
        let h = sim.handle();
        let cpu = Cpu::new(&h, cpu_cfg());
        let probe = sim.probe::<ComputeSample>();
        let (c, p) = (cpu.clone(), probe.clone());
        let us = SimDuration::from_micros;
        sim.spawn("w", move |ctx| p.set(c.compute(ctx, us(10))));
        // Queued ahead, this event also keeps the computation from running
        // in place; it fires after the completion is armed.
        let (st, h2) = (cpu.clone(), h.clone());
        h.schedule_in(us(5), move || {
            h2.schedule_at(SimTime::ZERO + us(10), move || st.steal(us(3)));
        });
        sim.run().unwrap();
        let s = probe.get().unwrap();
        assert_eq!((s.wall, s.stolen), (us(10), SimDuration::ZERO));
        assert_eq!(cpu.stats().steal_events, 1, "the steal did fire");
    }

    /// A 10 µs computation from 0 that a 3 µs steal at 5 µs moves onto
    /// T = 13 µs, and a 2 µs steal for T queued at `at_us`: before the
    /// re-key when `first` (at 5 µs, in the same instant), after it
    /// otherwise.
    fn steal_at_rekeyed_deadline(at_us: u64, first: bool) -> ComputeSample {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let cpu = Cpu::new(&h, cpu_cfg());
        let probe = sim.probe::<ComputeSample>();
        let (c, p) = (cpu.clone(), probe.clone());
        let us = SimDuration::from_micros;
        sim.spawn("w", move |ctx| p.set(c.compute(ctx, us(10))));
        let rekey = || {
            let st = cpu.clone();
            h.schedule_in(us(5), move || st.steal(us(3)));
        };
        let queue_tie = || {
            let (st, h2) = (cpu.clone(), h.clone());
            h.schedule_in(us(at_us), move || {
                h2.schedule_at(SimTime::ZERO + us(13), move || st.steal(us(2)));
            });
        };
        if first {
            queue_tie();
            rekey();
        } else {
            rekey();
            queue_tie();
        }
        sim.run().unwrap();
        assert_eq!(cpu.stats().steal_events, 2);
        probe.get().unwrap()
    }

    #[test]
    fn a_steal_queued_before_a_rekey_onto_its_instant_extends() {
        // The re-keyed completion orders as if scheduled at the re-key, so
        // a steal queued for its new deadline before then fires first.
        let us = SimDuration::from_micros;
        for (at_us, first) in [(4, true), (5, true)] {
            let s = steal_at_rekeyed_deadline(at_us, first);
            assert_eq!((s.wall, s.stolen), (us(15), us(5)), "queued at {at_us} µs");
        }
    }

    #[test]
    fn a_steal_queued_after_a_rekey_onto_its_instant_does_not_extend() {
        let us = SimDuration::from_micros;
        for (at_us, first) in [(5, false), (6, false)] {
            let s = steal_at_rekeyed_deadline(at_us, first);
            assert_eq!((s.wall, s.stolen), (us(13), us(3)), "queued at {at_us} µs");
        }
    }

    #[test]
    fn back_to_back_computes_accumulate_wall_time() {
        let mut sim = Simulation::new();
        let cpu = Cpu::new(&sim.handle(), cpu_cfg());
        let (c, probe) = (cpu.clone(), sim.probe::<u64>());
        let p = probe.clone();
        sim.spawn("w", move |ctx| {
            for _ in 0..5 {
                c.compute_iters(ctx, 250); // 1 us each
            }
            p.set(ctx.now().as_nanos());
        });
        sim.run().unwrap();
        assert_eq!(probe.get(), Some(5_000));
        assert_eq!(cpu.stats().compute_wall, SimDuration::from_micros(5));
        // Nothing else is queued, so every computation runs in place; each
        // is still charged as its completion and the resume it schedules.
        let k = sim.handle().kernel_stats();
        assert_eq!(
            (k.scheduled, k.fired, k.lane_scheduled, k.arena_high_water),
            (11, 11, 6, 1)
        );
    }

    #[test]
    fn a_steal_queued_by_the_deadline_extends_the_computation() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let cpu = Cpu::new(&h, cpu_cfg());
        let probe = sim.probe::<[ComputeSample; 3]>();
        let (c, p) = (cpu.clone(), probe.clone());
        let us = SimDuration::from_micros;
        sim.spawn("w", move |ctx| {
            // Nothing queued: runs in place.
            let a = c.compute(ctx, us(10));
            // A steal halfway through, then one at the deadline itself:
            // queued first, it fires before the completion.
            let mut samples = [a; 3];
            for (i, at) in [us(5), us(10)].into_iter().enumerate() {
                let st = c.clone();
                ctx.handle().schedule_in(at, move || st.steal(us(3)));
                samples[i + 1] = c.compute(ctx, us(10));
            }
            p.set(samples);
        });
        sim.run().unwrap();
        let [a, b, c] = probe.get().unwrap();
        assert_eq!((a.wall, a.stolen), (us(10), SimDuration::ZERO));
        assert_eq!((b.wall, b.stolen), (us(13), us(3)));
        assert_eq!((c.wall, c.stolen), (us(13), us(3)));
        let stats = cpu.stats();
        assert_eq!(stats.compute_wall, us(36));
        assert_eq!(stats.steal_events, 2);
        let k = h.kernel_stats();
        assert_eq!(
            (
                k.scheduled,
                k.fired,
                k.cancelled,
                k.lane_scheduled,
                k.arena_high_water
            ),
            (11, 9, 2, 4, 2)
        );
    }

    #[test]
    fn zero_duration_compute_is_free() {
        let mut sim = Simulation::new();
        let cpu = Cpu::new(&sim.handle(), cpu_cfg());
        let c = cpu.clone();
        sim.spawn("w", move |ctx| {
            let s = c.compute(ctx, SimDuration::ZERO);
            assert_eq!(s.wall, SimDuration::ZERO);
        });
        sim.run().unwrap();
    }

    #[test]
    fn many_interrupts_extend_by_their_sum() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let cpu = Cpu::new(&h, cpu_cfg());
        let probe = sim.probe::<ComputeSample>();
        let (c, p) = (cpu.clone(), probe.clone());
        sim.spawn("w", move |ctx| {
            p.set(c.compute(ctx, SimDuration::from_millis(1)));
        });
        // 20 ISRs of 3 us, every 40 us: all land within the (extended)
        // computation window.
        for i in 0..20u64 {
            let c = cpu.clone();
            h.schedule_in(SimDuration::from_micros(40 * (i + 1)), move || {
                c.steal(SimDuration::from_micros(3));
            });
        }
        sim.run().unwrap();
        let s = probe.get().unwrap();
        assert_eq!(s.stolen, SimDuration::from_micros(60));
        assert_eq!(s.wall, SimDuration::from_micros(1060));
    }
}

#[cfg(test)]
mod background_tests {
    use super::*;
    use comb_sim::Simulation;

    #[test]
    fn background_compute_preempts_foreground() {
        let mut sim = Simulation::new();
        let cpu = Cpu::new(&sim.handle(), CpuConfig::default());
        let bg = cpu.background();
        assert!(bg.is_background());
        assert!(!cpu.is_background());
        let fg_probe = sim.probe::<ComputeSample>();
        let p = fg_probe.clone();
        let c = cpu.clone();
        sim.spawn("fg", move |ctx| {
            p.set(c.compute(ctx, SimDuration::from_millis(10)));
        });
        sim.spawn("bg", move |ctx| {
            ctx.hold(SimDuration::from_millis(1));
            // 3 ms of background work inside the foreground's window:
            // under fair sharing it takes 6 ms of wall time and costs the
            // foreground 3 ms.
            let s = bg.compute(ctx, SimDuration::from_millis(3));
            assert_eq!(s.wall, SimDuration::from_millis(6));
            assert_eq!(s.stolen, SimDuration::from_millis(3));
        });
        sim.run().unwrap();
        let fg = fg_probe.get().unwrap();
        assert_eq!(fg.stolen, SimDuration::from_millis(3));
        assert_eq!(fg.wall, SimDuration::from_millis(13));
    }

    #[test]
    fn background_without_foreground_just_passes_time() {
        let mut sim = Simulation::new();
        let cpu = Cpu::new(&sim.handle(), CpuConfig::default());
        let bg = cpu.background();
        sim.spawn("bg", move |ctx| {
            bg.compute(ctx, SimDuration::from_millis(2));
            assert_eq!(ctx.now().as_nanos(), 2_000_000);
        });
        sim.run().unwrap();
        // An uncontended background run steals nothing.
        assert_eq!(cpu.stats().stolen_total, SimDuration::ZERO);
    }

    #[test]
    fn two_background_handles_can_overlap() {
        // Background handles don't assert exclusivity (the model is
        // fair-share preemption of the foreground, not a full scheduler).
        let mut sim = Simulation::new();
        let cpu = Cpu::new(&sim.handle(), CpuConfig::default());
        let (b1, b2) = (cpu.background(), cpu.background());
        sim.spawn("b1", move |ctx| {
            b1.compute(ctx, SimDuration::from_millis(1));
        });
        sim.spawn("b2", move |ctx| {
            b2.compute(ctx, SimDuration::from_millis(1));
        });
        sim.run().unwrap();
    }
}
