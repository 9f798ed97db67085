//! GM-like OS-bypass NIC.
//!
//! Transmit: the NIC DMAs packets straight out of user memory; the injection
//! station (firmware per-packet cost + PCI DMA rate) is the bandwidth
//! bottleneck. No host CPU is consumed.
//!
//! Receive: packets DMA into host memory with no interrupts. A complete
//! message is either parked in the receive **ring** until the MPI library
//! polls for it (`DeliveryClass::Ring` — eager data and protocol control),
//! or delivered immediately (`DeliveryClass::Direct` — rendezvous payload
//! DMA'd into a pre-matched user buffer). The ring is exactly why this
//! transport lacks *application offload*: nothing happens to ring messages
//! until the application re-enters the MPI library. Until the delivery
//! station is done with a message, the event that hands it over owns it,
//! together with the rx handler for a direct one.

use crate::config::{NicConfig, NicKind};
use crate::fault::FaultModel;
use crate::link::Station;
use crate::nic::{
    note_burst_batched, DeliveryClass, Nic, NicStats, NodeId, Packet, RxHandler, TxDone, WireMsg,
};
use crate::packet::packet_sizes;
use crate::switch::Fabric;
use comb_sim::{SimCell, SimHandle, SimRefMut, SimTime};
use comb_trace::{Comp, TraceEvent, Tracer};
use std::collections::VecDeque;
use std::sync::Arc;

struct BypassInner {
    tx: Station,
    rx: Station,
    fault: FaultModel,
    ring: VecDeque<(NodeId, WireMsg)>,
    handler: Option<RxHandler>,
    ring_notify: Option<Arc<dyn Fn() + Send + Sync>>,
    stats: NicStats,
}

/// See the module docs.
pub struct BypassNic {
    id: NodeId,
    handle: SimHandle,
    mtu: u64,
    fabric: Arc<Fabric>,
    tracer: Tracer,
    inner: Arc<SimCell<BypassInner>>,
}

impl BypassNic {
    /// Build and attach a bypass NIC to `fabric`. Returns the NIC as an
    /// `Arc<dyn Nic>` (the fabric's port table keeps only a weak reference;
    /// a delivery in flight holds a strong one).
    pub fn attach(handle: &SimHandle, cfg: &NicConfig, fabric: &Arc<Fabric>) -> Arc<dyn Nic> {
        assert_eq!(cfg.kind, NicKind::Bypass, "config is not a bypass NIC");
        let mtu = fabric.link_config().mtu;
        let nic = Arc::new(BypassNic {
            id: NodeId(fabric.port_count()),
            handle: handle.clone(),
            mtu,
            fabric: Arc::clone(fabric),
            tracer: fabric.tracer().clone(),
            inner: Arc::new(SimCell::new(
                handle,
                BypassInner {
                    tx: Station::new(cfg.tx_per_packet, cfg.tx_bandwidth),
                    rx: Station::new(cfg.rx_per_packet, cfg.rx_bandwidth),
                    fault: FaultModel::from_link(fabric.link_config(), fabric.port_count() as u64),
                    ring: VecDeque::new(),
                    handler: None,
                    ring_notify: None,
                    stats: NicStats::default(),
                },
            )),
        });
        let dyn_nic: Arc<dyn Nic> = nic;
        let assigned = fabric.attach(Arc::downgrade(&dyn_nic), handle);
        assert_eq!(assigned, dyn_nic.node_id(), "fabric port/node id mismatch");
        dyn_nic
    }

    /// Hand a fully received message to the library at `end`: park it in
    /// the ring (waking any ring-notify hook) or push it straight to the
    /// rx handler, per its delivery class. The scheduled event owns the
    /// message, and the handler for a direct one. Releases `inner`.
    fn schedule_delivery(
        &self,
        inner: SimRefMut<'_, BypassInner>,
        src: NodeId,
        msg: WireMsg,
        end: SimTime,
    ) {
        match msg.class {
            DeliveryClass::Ring => {
                drop(inner);
                let cell = Arc::clone(&self.inner);
                self.handle.schedule_at(end, move || {
                    let mut inner = cell.borrow_mut();
                    inner.ring.push_back((src, msg));
                    let notify = inner.ring_notify.clone();
                    drop(inner);
                    if let Some(notify) = notify {
                        notify();
                    }
                });
            }
            DeliveryClass::Direct => {
                let handler = inner.handler.clone();
                drop(inner);
                // The handler may re-enter the NIC; it runs unborrowed.
                self.handle.schedule_at(end, move || {
                    handler.expect("no rx handler installed")(src, msg)
                });
            }
        }
    }
}

impl Nic for BypassNic {
    fn node_id(&self) -> NodeId {
        self.id
    }

    fn kind(&self) -> NicKind {
        NicKind::Bypass
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
        let expedited = msg.expedited;
        if expedited {
            assert!(n == 1, "expedited messages must fit one packet");
            // Fault injection may drop a control message outright; the
            // sender's protocol timer is then its only recovery path. The
            // transmit still completes locally (the NIC does not know).
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
        // Multi-packet bulk messages on a two-port fabric collapse into a
        // single delivery event at the last packet's arrival (the receiver
        // hears from exactly one sender, so replaying the recorded arrival
        // instants is indistinguishable from per-packet events). Expedited
        // packets never batch — they are single-packet by contract — and
        // wider fabrics fall back to per-packet events because a second
        // sender could interleave arrivals at the shared delivery station.
        let batch = !expedited && n > 1 && self.fabric.port_count() == 2;
        let mut departures: Vec<(SimTime, u64)> = Vec::with_capacity(if batch { n } else { 0 });
        let mut msg = Some(msg);
        for (i, bytes) in sizes.into_iter().enumerate() {
            let last = i + 1 == n;
            // Expedited control packets squeeze between bulk packets: they
            // pay their service time but do not wait for (or hold up) the
            // bulk queue. Lost packets are recovered by the reliability
            // sublayer as extra sender-side delay; stall/degradation
            // windows are judged at the packet's estimated start time.
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
            let end = if expedited {
                now + service + penalty
            } else {
                inner.tx.enqueue_with_extra(now, bytes, penalty).1
            };
            if batch {
                self.fabric
                    .wire_trace(self.id, dst, bytes, i == 0, last, end);
                departures.push((end, bytes));
            } else {
                let pkt = Packet {
                    bytes,
                    expedited,
                    first: i == 0,
                    tail: if last { msg.take() } else { None },
                };
                self.fabric.transmit(self.id, dst, pkt, end);
            }
            if last {
                if batch {
                    inner.stats.burst_batched_packets += n as u64;
                    note_burst_batched(n as u64);
                    let msg = msg.take().expect("message consumed before last packet");
                    self.fabric.transmit_burst(self.id, dst, departures, msg);
                }
                // Local completion: the last byte has left the NIC.
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

    fn set_ring_notify(&self, notify: Arc<dyn Fn() + Send + Sync>) {
        self.inner.borrow_mut().ring_notify = Some(notify);
    }

    fn poll_ring(&self) -> Option<(NodeId, WireMsg)> {
        self.inner.borrow_mut().ring.pop_front()
    }

    fn ring_len(&self) -> usize {
        self.inner.borrow_mut().ring.len()
    }

    fn stats(&self) -> NicStats {
        let inner = self.inner.borrow_mut();
        let mut stats = inner.stats;
        stats.lost_packets = inner.fault.loss_stats().lost_packets;
        stats.retransmissions = inner.fault.loss_stats().retransmissions;
        stats
    }

    fn deliver_packet(&self, src: NodeId, pkt: Packet) {
        let now = self.handle.now();
        let mut inner = self.inner.borrow_mut();
        inner.stats.packets_rx += 1;
        inner.stats.bytes_rx += pkt.bytes;
        let end = if pkt.expedited {
            now + inner.rx.service_time(pkt.bytes)
        } else {
            inner.rx.enqueue(now, pkt.bytes).1
        };
        if let Some(msg) = pkt.tail {
            inner.stats.msgs_rx += 1;
            self.schedule_delivery(inner, src, msg, end);
        }
    }

    fn deliver_burst(&self, src: NodeId, arrivals: Vec<(SimTime, u64)>, msg: WireMsg) {
        // Replay the delivery station at each packet's recorded arrival
        // instant. `Station::enqueue` takes the arrival time explicitly, so
        // the arithmetic — and therefore the message-ready time — is
        // bit-identical to the per-packet event path.
        let mut inner = self.inner.borrow_mut();
        let mut end = self.handle.now();
        for &(arrival, bytes) in &arrivals {
            inner.stats.packets_rx += 1;
            inner.stats.bytes_rx += bytes;
            end = inner.rx.enqueue(arrival, bytes).1;
        }
        inner.stats.msgs_rx += 1;
        self.schedule_delivery(inner, src, msg, end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HwConfig, LinkConfig};
    use comb_sim::{SimDuration, SimTime, Simulation};

    fn setup(sim: &Simulation) -> (Arc<dyn Nic>, Arc<dyn Nic>) {
        let cfg = HwConfig::gm_myrinet();
        let fabric = Fabric::new(LinkConfig::default());
        let a = BypassNic::attach(&sim.handle(), &cfg.nic, &fabric);
        let b = BypassNic::attach(&sim.handle(), &cfg.nic, &fabric);
        (a, b)
    }

    fn wire(bytes: u64, class: DeliveryClass) -> WireMsg {
        WireMsg {
            bytes,
            class,
            expedited: false,
            payload: Box::new(bytes),
        }
    }

    #[test]
    fn ring_message_waits_for_poll() {
        let mut sim = Simulation::new();
        let (a, b) = setup(&sim);
        b.set_rx_handler(Arc::new(|_, _| panic!("ring message must not push")));
        a.set_rx_handler(Arc::new(|_, _| {}));
        let a2 = Arc::clone(&a);
        sim.handle().schedule_in(SimDuration::ZERO, move || {
            a2.submit(NodeId(1), wire(1000, DeliveryClass::Ring), Box::new(|| {}));
        });
        sim.run().unwrap();
        assert_eq!(b.ring_len(), 1);
        let (src, msg) = b.poll_ring().unwrap();
        assert_eq!(src, NodeId(0));
        assert_eq!(msg.bytes, 1000);
        assert_eq!(*msg.payload.downcast_ref::<u64>().unwrap(), 1000);
        assert!(b.poll_ring().is_none());
    }

    #[test]
    fn direct_message_pushes_to_handler() {
        let mut sim = Simulation::new();
        let (a, b) = setup(&sim);
        let probe = sim.probe::<(NodeId, u64, u64)>();
        let (p, h) = (probe.clone(), sim.handle());
        b.set_rx_handler(Arc::new(move |src, msg| {
            p.set((src, msg.bytes, h.now().as_nanos()));
        }));
        let a2 = Arc::clone(&a);
        sim.handle().schedule_in(SimDuration::ZERO, move || {
            a2.submit(
                NodeId(1),
                wire(100_000, DeliveryClass::Direct),
                Box::new(|| {}),
            );
        });
        sim.run().unwrap();
        let (src, bytes, at) = probe.get().expect("message not delivered");
        assert_eq!(src, NodeId(0));
        assert_eq!(bytes, 100_000);
        assert!(at > 0);
        assert_eq!(b.ring_len(), 0);
        assert_eq!(b.stats().msgs_rx, 1);
        assert_eq!(b.stats().packets_rx, 100_000u64.div_ceil(4096));
    }

    #[test]
    fn large_transfer_rate_matches_injection_station() {
        // 1 MB through the GM injection station should sustain ~90 MB/s.
        let mut sim = Simulation::new();
        let (a, b) = setup(&sim);
        let probe = sim.probe::<u64>();
        let (p, h) = (probe.clone(), sim.handle());
        b.set_rx_handler(Arc::new(move |_, _| p.set(h.now().as_nanos())));
        a.set_rx_handler(Arc::new(|_, _| {}));
        let a2 = Arc::clone(&a);
        sim.handle().schedule_in(SimDuration::ZERO, move || {
            a2.submit(
                NodeId(1),
                wire(1_000_000, DeliveryClass::Direct),
                Box::new(|| {}),
            );
        });
        sim.run().unwrap();
        let ns = probe.get().unwrap();
        let mbs = 1_000_000.0 / (ns as f64 / 1e9) / 1e6;
        assert!(
            (80.0..95.0).contains(&mbs),
            "bypass transfer rate {mbs} MB/s"
        );
    }

    #[test]
    fn tx_done_fires_at_local_completion_before_delivery() {
        let mut sim = Simulation::new();
        let (a, b) = setup(&sim);
        let tx_done_at = sim.probe::<u64>();
        let delivered_at = sim.probe::<u64>();
        let (p, h) = (delivered_at.clone(), sim.handle());
        b.set_rx_handler(Arc::new(move |_, _| p.set(h.now().as_nanos())));
        let (a2, h2, p2) = (Arc::clone(&a), sim.handle(), tx_done_at.clone());
        sim.handle().schedule_in(SimDuration::ZERO, move || {
            let (h3, p3) = (h2.clone(), p2.clone());
            a2.submit(
                NodeId(1),
                wire(50_000, DeliveryClass::Direct),
                Box::new(move || p3.set(h3.now().as_nanos())),
            );
        });
        sim.run().unwrap();
        let tx = tx_done_at.get().unwrap();
        let rx = delivered_at.get().unwrap();
        assert!(tx > 0);
        assert!(
            rx > tx,
            "delivery ({rx}) must trail local completion ({tx})"
        );
    }

    #[test]
    fn two_messages_fifo_on_the_wire() {
        let mut sim = Simulation::new();
        let (a, b) = setup(&sim);
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let o = Arc::clone(&order);
        b.set_rx_handler(Arc::new(move |_, msg| {
            o.lock().push(*msg.payload.downcast_ref::<u64>().unwrap())
        }));
        let a2 = Arc::clone(&a);
        sim.handle().schedule_in(SimDuration::ZERO, move || {
            let mut m1 = wire(10_000, DeliveryClass::Direct);
            m1.payload = Box::new(1u64);
            let mut m2 = wire(10_000, DeliveryClass::Direct);
            m2.payload = Box::new(2u64);
            a2.submit(NodeId(1), m1, Box::new(|| {}));
            a2.submit(NodeId(1), m2, Box::new(|| {}));
        });
        sim.run().unwrap();
        assert_eq!(*order.lock(), vec![1, 2]);
        assert_eq!(a.stats().msgs_tx, 2);
    }

    #[test]
    fn burst_batching_matches_per_packet_timing() {
        // A two-port fabric batches the packet train into one delivery
        // event; a wider fabric (third NIC attached, even if idle) falls
        // back to per-packet events. Both must deliver the message at
        // exactly the same instant.
        let deliver_at = |ports: usize| {
            let mut sim = Simulation::new();
            let cfg = HwConfig::gm_myrinet();
            let fabric = Fabric::new(LinkConfig::default());
            let nics: Vec<_> = (0..ports)
                .map(|_| BypassNic::attach(&sim.handle(), &cfg.nic, &fabric))
                .collect();
            let probe = sim.probe::<u64>();
            let (p, h) = (probe.clone(), sim.handle());
            nics[1].set_rx_handler(Arc::new(move |_, _| p.set(h.now().as_nanos())));
            let a = Arc::clone(&nics[0]);
            let a2 = Arc::clone(&a);
            sim.handle().schedule_in(SimDuration::ZERO, move || {
                a2.submit(
                    NodeId(1),
                    wire(100_000, DeliveryClass::Direct),
                    Box::new(|| {}),
                );
            });
            sim.run().unwrap();
            let stats = a.stats();
            if ports == 2 {
                assert_eq!(stats.burst_batched_packets, stats.packets_tx);
            } else {
                assert_eq!(stats.burst_batched_packets, 0);
            }
            assert_eq!(nics[1].stats().packets_rx, stats.packets_tx);
            probe.get().unwrap()
        };
        assert_eq!(deliver_at(2), deliver_at(3));
    }

    #[test]
    fn zero_byte_control_message_traverses() {
        let mut sim = Simulation::new();
        let (a, b) = setup(&sim);
        let probe = sim.probe::<u64>();
        let p = probe.clone();
        b.set_rx_handler(Arc::new(move |_, msg| p.set(msg.bytes)));
        let a2 = Arc::clone(&a);
        sim.handle().schedule_in(SimDuration::ZERO, move || {
            a2.submit(NodeId(1), wire(0, DeliveryClass::Direct), Box::new(|| {}));
        });
        let end = sim.run().unwrap();
        assert_eq!(probe.get(), Some(0));
        // One header packet: tx 8us + rx 2us + 5us latency = 15us.
        assert_eq!(end, SimTime::from_nanos(15_000));
    }
}
