//! Hardware hot-path events must ride the simulator's inline fast path.
//!
//! Per-packet wire deliveries, kernel send-path CPU steals, and message
//! handoffs own their payloads, and the simulator's inline budget is sized
//! to hold the largest of them, so a complete transfer schedules **zero**
//! boxed closures. The
//! per-simulation `boxed_calls` kernel counter turns that into a hard
//! regression test rather than a code-review promise.

use comb_hw::nic::bypass::BypassNic;
use comb_hw::nic::kernel::KernelNic;
use comb_hw::{Cpu, CpuConfig, DeliveryClass, Fabric, HwConfig, LinkConfig, NodeId, WireMsg};
use comb_sim::{SimDuration, Simulation};
use std::sync::Arc;

fn wire(bytes: u64, class: DeliveryClass) -> WireMsg {
    WireMsg {
        bytes,
        class,
        expedited: false,
        payload: Box::new(bytes),
    }
}

#[test]
fn bypass_transfer_schedules_no_boxed_closures() {
    let mut sim = Simulation::new();
    let cfg = HwConfig::gm_myrinet();
    let fabric = Fabric::new(LinkConfig::default());
    // Three ports force the per-packet wire path (no burst batching), the
    // historically worst offender: one event per packet, each formerly
    // boxing a `Packet` capture.
    let nics: Vec<_> = (0..3)
        .map(|_| BypassNic::attach(&sim.handle(), &cfg.nic, &fabric))
        .collect();
    nics[1].set_rx_handler(Arc::new(|_, _| {}));
    let a = Arc::clone(&nics[0]);
    sim.handle().schedule_in(SimDuration::ZERO, move || {
        a.submit(
            NodeId(1),
            wire(100_000, DeliveryClass::Direct),
            Box::new(|| {}),
        );
        a.submit(
            NodeId(1),
            wire(100_000, DeliveryClass::Ring),
            Box::new(|| {}),
        );
    });
    sim.run().unwrap();
    assert_eq!(nics[1].ring_len(), 1);
    assert_eq!(nics[1].stats().msgs_rx, 2);
    let stats = sim.handle().kernel_stats();
    let packets = 2 * 100_000u64.div_ceil(4096);
    assert!(
        stats.scheduled > packets,
        "expected at least one event per packet, got {}",
        stats.scheduled
    );
    assert_eq!(
        stats.boxed_calls, 0,
        "bypass hot path fell off the inline fast path"
    );
}

#[test]
fn bypass_burst_path_schedules_no_boxed_closures() {
    let mut sim = Simulation::new();
    let cfg = HwConfig::gm_myrinet();
    let fabric = Fabric::new(LinkConfig::default());
    let a = BypassNic::attach(&sim.handle(), &cfg.nic, &fabric);
    let b = BypassNic::attach(&sim.handle(), &cfg.nic, &fabric);
    b.set_rx_handler(Arc::new(|_, _| {}));
    let a2 = Arc::clone(&a);
    sim.handle().schedule_in(SimDuration::ZERO, move || {
        a2.submit(
            NodeId(1),
            wire(100_000, DeliveryClass::Direct),
            Box::new(|| {}),
        );
    });
    sim.run().unwrap();
    let stats = sim.handle().kernel_stats();
    assert!(a.stats().burst_batched_packets > 0, "burst path not taken");
    assert_eq!(
        stats.boxed_calls, 0,
        "burst delivery fell off the inline fast path"
    );
}

#[test]
fn kernel_transfer_schedules_no_boxed_closures() {
    let mut sim = Simulation::new();
    let cfg = HwConfig::portals_myrinet();
    let h = sim.handle();
    let fabric = Fabric::new(LinkConfig::default());
    let cpu_a = Cpu::new(&h, CpuConfig::default());
    let cpu_b = Cpu::new(&h, CpuConfig::default());
    let a = KernelNic::attach(&h, &cfg.nic, &fabric, &cpu_a);
    let b = KernelNic::attach(&h, &cfg.nic, &fabric, &cpu_b);
    b.set_rx_handler(Arc::new(|_, _| {}));
    let a2 = Arc::clone(&a);
    h.schedule_in(SimDuration::ZERO, move || {
        a2.submit(
            NodeId(1),
            wire(100_000, DeliveryClass::Ring),
            Box::new(|| {}),
        );
    });
    sim.run().unwrap();
    assert_eq!(b.stats().msgs_rx, 1);
    let stats = sim.handle().kernel_stats();
    let packets = 100_000u64.div_ceil(4096);
    // Per packet: wire delivery + tx host steal (when configured), plus
    // the final message handoff — all inline.
    assert!(
        stats.scheduled > packets,
        "expected at least one event per packet, got {}",
        stats.scheduled
    );
    assert_eq!(
        stats.boxed_calls, 0,
        "kernel NIC hot path fell off the inline fast path"
    );
}
