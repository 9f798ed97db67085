//! Portals-like kernel NIC (interrupt-driven, no OS-bypass).
//!
//! Transmit: the kernel send path runs on the host CPU — each packet steals
//! `tx_host_per_packet` from the application — then packets serialize
//! through the injection station.
//!
//! Receive: every packet raises an interrupt. The ISR costs
//! `rx_per_packet + bytes / rx_bandwidth` (fixed overhead plus the
//! kernel-to-user copy), all stolen from the host CPU, and ISRs serialize on
//! the [`InterruptController`]. Matching happens *in the kernel* at ISR time
//! (`rx_match_cost` on a message's first packet), so completed messages are
//! pushed straight to the library: this transport has full **application
//! offload** — communication progresses with no MPI calls — which is exactly
//! what the paper's PWW method detects for Portals (Fig 11). The handoff
//! is an event at the ISR's end that owns the rx handler and the message,
//! so the NIC parks nothing while it waits.
//!
//! Unlike the bypass NIC, this transport can never use the fabric's
//! burst-batching fast path ([`Fabric::transmit_burst`]): each received
//! packet steals host CPU via its ISR *at its own arrival instant*, and
//! that theft must interleave with the application's concurrent compute
//! ([`Cpu::steal`] is relative to the clock when the interrupt fires). A
//! single delivery event at the last arrival could not replay those
//! per-packet preemptions, so the kernel NIC always takes one event per
//! packet.

use crate::config::{NicConfig, NicKind};
use crate::cpu::Cpu;
use crate::fault::FaultModel;
use crate::interrupt::InterruptController;
use crate::link::Station;
use crate::nic::{Nic, NicStats, NodeId, Packet, RxHandler, TxDone, WireMsg};
use crate::packet::packet_sizes;
use crate::switch::Fabric;
use comb_sim::{SimCell, SimHandle};
use comb_trace::{Comp, TraceEvent, Tracer};
use std::sync::Arc;

struct KernelInner {
    tx: Station,
    fault: FaultModel,
    isr: InterruptController,
    handler: Option<RxHandler>,
    stats: NicStats,
}

/// See the module docs.
pub struct KernelNic {
    id: NodeId,
    handle: SimHandle,
    cfg: NicConfig,
    mtu: u64,
    fabric: Arc<Fabric>,
    cpu: Cpu,
    tracer: Tracer,
    inner: SimCell<KernelInner>,
}

impl KernelNic {
    /// Build and attach a kernel NIC to `fabric`, stealing host time from
    /// `cpu`.
    pub fn attach(
        handle: &SimHandle,
        cfg: &NicConfig,
        fabric: &Arc<Fabric>,
        cpu: &Cpu,
    ) -> Arc<dyn Nic> {
        assert_eq!(cfg.kind, NicKind::Kernel, "config is not a kernel NIC");
        let mtu = fabric.link_config().mtu;
        let nic = Arc::new(KernelNic {
            id: NodeId(fabric.port_count()),
            handle: handle.clone(),
            cfg: cfg.clone(),
            mtu,
            fabric: Arc::clone(fabric),
            cpu: cpu.clone(),
            tracer: fabric.tracer().clone(),
            inner: SimCell::new(
                handle,
                KernelInner {
                    tx: Station::new(cfg.tx_per_packet, cfg.tx_bandwidth),
                    fault: FaultModel::from_link(fabric.link_config(), fabric.port_count() as u64),
                    isr: InterruptController::new(cpu.clone()),
                    handler: None,
                    stats: NicStats::default(),
                },
            ),
        });
        let dyn_nic: Arc<dyn Nic> = nic;
        let assigned = fabric.attach(Arc::downgrade(&dyn_nic), handle);
        assert_eq!(assigned, dyn_nic.node_id(), "fabric port/node id mismatch");
        dyn_nic
    }
}

impl Nic for KernelNic {
    fn node_id(&self) -> NodeId {
        self.id
    }

    fn kind(&self) -> NicKind {
        NicKind::Kernel
    }

    fn submit(&self, dst: NodeId, msg: WireMsg, on_tx_done: TxDone) {
        let now = self.handle.now();
        let sizes = packet_sizes(msg.bytes, self.mtu);
        let n = sizes.len();
        let comp = Comp::Nic(self.id.0 as u32);
        let msg_bytes = msg.bytes;
        let mut inner = self.inner.borrow_mut();
        inner.stats.msgs_tx += 1;
        inner.stats.bytes_tx += msg.bytes;
        inner.stats.packets_tx += n as u64;
        self.tracer.emit(now, comp, || TraceEvent::DmaStart {
            bytes: msg_bytes,
            packets: n as u64,
        });
        let tx_host = self.cfg.tx_host_per_packet;
        let expedited = msg.expedited;
        if expedited {
            assert!(n == 1, "expedited messages must fit one packet");
            // Fault injection may drop a control message on the wire; the
            // sender's protocol timer is its only recovery path.
            if inner.fault.drop_control() {
                inner.stats.ctl_dropped += 1;
                let service = inner.tx.service_time(msg.bytes);
                self.tracer
                    .emit(now, comp, || TraceEvent::Dropped { bytes: msg_bytes });
                self.tracer
                    .emit(now + service, comp, || TraceEvent::DmaDone {
                        bytes: msg_bytes,
                    });
                self.handle.schedule_at(now + service, on_tx_done);
                return;
            }
        }
        let mut msg = Some(msg);
        for (i, bytes) in sizes.into_iter().enumerate() {
            let last = i + 1 == n;
            let service = inner.tx.service_time(bytes);
            let start_est = if expedited {
                now
            } else {
                inner.tx.busy_until().max(now)
            };
            let penalty = inner.fault.tx_penalty(start_est, service);
            if !penalty.is_zero() {
                self.tracer
                    .emit(start_est, comp, || TraceEvent::NicStall { penalty });
            }
            let (start, end) = if expedited {
                (now, now + service + penalty)
            } else {
                inner.tx.enqueue_with_extra(now, bytes, penalty)
            };
            if !tx_host.is_zero() {
                // The kernel send path for this packet runs on the host.
                inner.stats.host_stolen += tx_host;
                let cpu = self.cpu.clone();
                self.handle.schedule_at(start, move || cpu.steal(tx_host));
            }
            let pkt = Packet {
                bytes,
                expedited,
                first: i == 0,
                tail: if last { msg.take() } else { None },
            };
            self.fabric.transmit(self.id, dst, pkt, end);
            if last {
                self.tracer
                    .emit(end, comp, || TraceEvent::DmaDone { bytes: msg_bytes });
                self.handle.schedule_at(end, on_tx_done);
                break;
            }
        }
    }

    fn set_rx_handler(&self, handler: RxHandler) {
        self.inner.borrow_mut().handler = Some(handler);
    }

    fn set_ring_notify(&self, _notify: Arc<dyn Fn() + Send + Sync>) {
        // No receive ring: the kernel pushes every completed message.
    }

    fn poll_ring(&self) -> Option<(NodeId, WireMsg)> {
        // The kernel delivers everything by interrupt; nothing parks.
        None
    }

    fn ring_len(&self) -> usize {
        0
    }

    fn stats(&self) -> NicStats {
        let inner = self.inner.borrow_mut();
        let mut stats = inner.stats;
        stats.interrupts = inner.isr.stats().interrupts;
        stats.host_stolen = inner.stats.host_stolen + inner.isr.stats().total;
        stats.lost_packets = inner.fault.loss_stats().lost_packets;
        stats.retransmissions = inner.fault.loss_stats().retransmissions;
        stats.storm_interrupts = inner.fault.stats().storm_interrupts;
        stats
    }

    fn deliver_packet(&self, src: NodeId, pkt: Packet) {
        let now = self.handle.now();
        let mut inner = self.inner.borrow_mut();
        inner.stats.packets_rx += 1;
        inner.stats.bytes_rx += pkt.bytes;
        // Spurious storm interrupts accrued since the last delivery fire
        // ahead of the real packet's ISR, stealing host time and delaying
        // it behind them on the interrupt chain.
        let comp = Comp::Nic(self.id.0 as u32);
        if let Some((ticks, storm_cost)) = inner.fault.storm_ticks(now) {
            for _ in 0..ticks {
                inner.isr.raise(now, storm_cost);
                self.tracer
                    .emit(now, comp, || TraceEvent::Interrupt { cost: storm_cost });
            }
        }
        let mut cost = self.cfg.rx_per_packet
            + comb_sim::SimDuration::for_bytes(pkt.bytes, self.cfg.rx_bandwidth);
        if pkt.first {
            // Kernel-side matching for the message happens in the first
            // packet's ISR.
            cost += self.cfg.rx_match_cost;
        }
        let done = inner.isr.raise(now, cost);
        self.tracer
            .emit(now, comp, || TraceEvent::Interrupt { cost });
        if let Some(msg) = pkt.tail {
            inner.stats.msgs_rx += 1;
            let handler = inner
                .handler
                .clone()
                .expect("no rx handler installed on kernel NIC");
            drop(inner);
            // The handoff event owns the handler and the message, and calls
            // the handler with no borrow held: it may re-enter the NIC
            // (e.g. post a reply).
            self.handle.schedule_at(done, move || handler(src, msg));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CpuConfig, HwConfig, LinkConfig};
    use crate::nic::DeliveryClass;
    use comb_sim::{SimDuration, Simulation};

    struct Rig {
        a: Arc<dyn Nic>,
        b: Arc<dyn Nic>,
        cpu_b: Cpu,
    }

    fn setup(sim: &Simulation) -> Rig {
        let cfg = HwConfig::portals_myrinet();
        let h = sim.handle();
        let fabric = Fabric::new(LinkConfig::default());
        let cpu_a = Cpu::new(&h, CpuConfig::default());
        let cpu_b = Cpu::new(&h, CpuConfig::default());
        let a = KernelNic::attach(&h, &cfg.nic, &fabric, &cpu_a);
        let b = KernelNic::attach(&h, &cfg.nic, &fabric, &cpu_b);
        Rig { a, b, cpu_b }
    }

    fn wire(bytes: u64) -> WireMsg {
        WireMsg {
            bytes,
            class: DeliveryClass::Ring, // ignored by the kernel NIC
            expedited: false,
            payload: Box::new(bytes),
        }
    }

    #[test]
    fn every_packet_interrupts_and_steals() {
        let mut sim = Simulation::new();
        let rig = setup(&sim);
        let probe = sim.probe::<u64>();
        let p = probe.clone();
        rig.b
            .set_rx_handler(Arc::new(move |_, msg| p.set(msg.bytes)));
        let a = Arc::clone(&rig.a);
        sim.handle().schedule_in(SimDuration::ZERO, move || {
            a.submit(NodeId(1), wire(100_000), Box::new(|| {}));
        });
        sim.run().unwrap();
        assert_eq!(probe.get(), Some(100_000));
        let packets = 100_000u64.div_ceil(4096);
        assert_eq!(rig.b.stats().interrupts, packets);
        // All ISR time was stolen from node B's CPU.
        let stolen = rig.cpu_b.stats().stolen_total;
        assert!(
            stolen > SimDuration::from_millis(1),
            "100 KB must steal >1ms of ISR time, got {stolen}"
        );
        assert_eq!(rig.b.stats().host_stolen, stolen);
    }

    #[test]
    fn delivery_rate_is_isr_bound() {
        let mut sim = Simulation::new();
        let rig = setup(&sim);
        let probe = sim.probe::<u64>();
        let (p, h) = (probe.clone(), sim.handle());
        rig.b
            .set_rx_handler(Arc::new(move |_, _| p.set(h.now().as_nanos())));
        let a = Arc::clone(&rig.a);
        sim.handle().schedule_in(SimDuration::ZERO, move || {
            a.submit(NodeId(1), wire(1_000_000), Box::new(|| {}));
        });
        sim.run().unwrap();
        let mbs = 1_000_000.0 / (probe.get().unwrap() as f64 / 1e9) / 1e6;
        assert!(
            (70.0..95.0).contains(&mbs),
            "kernel delivery rate {mbs} MB/s"
        );
    }

    #[test]
    fn messaging_progresses_while_cpu_computes_but_dilates_the_work() {
        // The offload property (paper Fig 11/12): a transfer completes while
        // the receiver's process is busy computing, and the computation is
        // stretched by exactly the stolen ISR time.
        let mut sim = Simulation::new();
        let rig = setup(&sim);
        let delivered = sim.probe::<u64>();
        let (p, h) = (delivered.clone(), sim.handle());
        rig.b
            .set_rx_handler(Arc::new(move |_, _| p.set(h.now().as_nanos())));
        let a = Arc::clone(&rig.a);
        sim.handle().schedule_in(SimDuration::ZERO, move || {
            a.submit(NodeId(1), wire(200_000), Box::new(|| {}));
        });
        let work = sim.probe::<crate::cpu::ComputeSample>();
        let (cpu, w) = (rig.cpu_b.clone(), work.clone());
        sim.spawn("receiver-compute", move |ctx| {
            w.set(cpu.compute(ctx, SimDuration::from_millis(20)));
        });
        sim.run().unwrap();
        let s = work.get().unwrap();
        let delivered_at = delivered
            .get()
            .expect("message must complete with no MPI calls");
        assert!(
            delivered_at < (SimDuration::from_millis(20) + s.stolen).as_nanos(),
            "transfer must finish inside the work phase"
        );
        assert!(
            s.stolen > SimDuration::from_millis(2),
            "stolen = {}",
            s.stolen
        );
        assert_eq!(s.wall, SimDuration::from_millis(20) + s.stolen);
    }

    #[test]
    fn tx_path_steals_host_time_on_sender() {
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
            a2.submit(NodeId(1), wire(40_960), Box::new(|| {}));
        });
        sim.run().unwrap();
        // 10 packets x 5us tx host cost.
        assert_eq!(cpu_a.stats().stolen_total, SimDuration::from_micros(50));
    }
}
