//! The switch fabric: routes packets between NICs with a fixed one-way
//! latency (wire propagation + store-and-forward switch delay).
//!
//! Port contention is modelled at the endpoints: the sender's injection
//! station and the receiver's delivery station/ISR chain serialize packets,
//! which for a crossbar switch (the paper's 8-port Myrinet SAN/LAN switch)
//! is where the queueing actually happens.

use crate::config::LinkConfig;
use crate::nic::{Nic, NodeId, Packet, WireMsg};
use crate::pending::PendingSlab;
use comb_sim::{SimHandle, SimTime};
use comb_trace::{Comp, TraceEvent, Tracer};
use parking_lot::Mutex;
use std::sync::{Arc, OnceLock, Weak};

/// An attached NIC and the handle of the simulation (shard) its node
/// lives in.
type Port = (Weak<dyn Nic>, SimHandle);

/// A wire delivery parked until its arrival event fires.
enum Delivery {
    Packet {
        dst: NodeId,
        src: NodeId,
        pkt: Packet,
    },
    Burst {
        dst: NodeId,
        src: NodeId,
        arrivals: Vec<(SimTime, u64)>,
        msg: WireMsg,
    },
}

/// The cluster interconnect.
///
/// The fabric itself is clockless: every port is attached together with
/// the `SimHandle` of the simulation (or shard) its node lives in, and a
/// delivery is always scheduled on the *destination* port's handle. In a
/// serial run all handles belong to one simulation and this is exactly the
/// old single-handle behaviour; in a sharded run the destination handle
/// routes the arrival through the cross-shard mailboxes. That is legal
/// because every arrival lands at least the shard lookahead after the
/// packet was handed to its NIC: the NIC's per-packet send time, then the
/// wire latency (see [`crate::HwConfig::lookahead`]).
///
/// The fabric is the one model that threads of two shards touch, so it
/// keeps no [`comb_sim::SimCell`]. Its port table is frozen when the first
/// packet goes out, after which every thread reads it without a lock, and
/// the deliveries in flight stay behind a real lock: a packet is parked by
/// the sending shard's thread and collected by the receiving one's.
pub struct Fabric {
    link: LinkConfig,
    /// Ports attached while the cluster is built.
    attaching: Mutex<Vec<Port>>,
    /// The port table, moved out of `attaching` by the first transmit.
    ports: OnceLock<Box<[Port]>>,
    tracer: Tracer,
    /// Self-reference so arrival events capture a thin `(fabric, slot)`
    /// pair — two words, on the simulator's inline fast path — instead of
    /// boxing a `Packet` or `WireMsg` per event.
    weak_self: Weak<Fabric>,
    pending: Mutex<PendingSlab<Delivery>>,
}

impl Fabric {
    /// A fabric with the given link parameters and a disabled tracer.
    pub fn new(link: LinkConfig) -> Arc<Fabric> {
        Fabric::new_traced(link, Tracer::new())
    }

    /// A fabric emitting per-packet trace records to `tracer` (when it is
    /// enabled).
    pub fn new_traced(link: LinkConfig, tracer: Tracer) -> Arc<Fabric> {
        Arc::new_cyclic(|weak| Fabric {
            link,
            attaching: Mutex::new(Vec::new()),
            ports: OnceLock::new(),
            tracer,
            weak_self: weak.clone(),
            pending: Mutex::new(PendingSlab::default()),
        })
    }

    /// The fabric's tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Link parameters.
    pub fn link_config(&self) -> &LinkConfig {
        &self.link
    }

    /// Number of attached ports.
    pub fn port_count(&self) -> usize {
        match self.ports.get() {
            Some(ports) => ports.len(),
            None => self.attaching.lock().len(),
        }
    }

    /// Attach a NIC to the next free port, together with the handle of the
    /// simulation (shard) its node lives in — arrivals for this port are
    /// scheduled on that handle. The NIC's `node_id` must equal the
    /// returned port index (the cluster builder guarantees this).
    ///
    /// Panics once the fabric has carried a packet: the port table is
    /// frozen then.
    pub fn attach(&self, nic: Weak<dyn Nic>, handle: &SimHandle) -> NodeId {
        assert!(
            self.ports.get().is_none(),
            "NIC attached to a fabric that already carries traffic"
        );
        let mut ports = self.attaching.lock();
        let id = NodeId(ports.len());
        ports.push((nic, handle.clone()));
        id
    }

    /// The port attached at `dst`, freezing the port table on first use.
    fn port(&self, dst: NodeId) -> &Port {
        self.ports
            .get_or_init(|| std::mem::take(&mut *self.attaching.lock()).into_boxed_slice())
            .get(dst.0)
            .unwrap_or_else(|| panic!("no NIC attached at port {dst}"))
    }

    /// Put a packet on the wire at `departure` (when its last byte leaves
    /// the source NIC); it reaches the destination NIC one link latency
    /// later.
    pub fn transmit(&self, src: NodeId, dst: NodeId, pkt: Packet, departure: SimTime) {
        let handle = &self.port(dst).1;
        let arrival = departure + self.link.latency;
        self.tracer
            .emit(departure, Comp::Fabric, || TraceEvent::PacketOnWire {
                src: src.0 as u32,
                dst: dst.0 as u32,
                bytes: pkt.bytes,
                first: pkt.first,
                last: pkt.tail.is_some(),
            });
        self.schedule_delivery(handle, arrival, Delivery::Packet { dst, src, pkt });
    }

    /// Park `delivery` and schedule its arrival event on the destination
    /// port's handle. The closure captures only the fabric's weak
    /// self-pointer and the slab slot, keeping every per-packet event
    /// inline. A fabric (or NIC) dropped before `arrival` means the
    /// cluster is being torn down; the delivery simply evaporates.
    fn schedule_delivery(&self, dst_handle: &SimHandle, arrival: SimTime, delivery: Delivery) {
        let slot = self.pending.lock().insert(delivery);
        let fabric = self.weak_self.clone();
        dst_handle.schedule_at(arrival, move || {
            if let Some(fabric) = fabric.upgrade() {
                fabric.fire_delivery(slot);
            }
        });
    }

    fn fire_delivery(&self, slot: usize) {
        let delivery = self.pending.lock().take(slot);
        match delivery {
            Delivery::Packet { dst, src, pkt } => {
                if let Some(nic) = self.port(dst).0.upgrade() {
                    nic.deliver_packet(src, pkt);
                }
            }
            Delivery::Burst {
                dst,
                src,
                arrivals,
                msg,
            } => {
                if let Some(nic) = self.port(dst).0.upgrade() {
                    nic.deliver_burst(src, arrivals, msg);
                }
            }
        }
    }

    /// Emit the `PacketOnWire` trace record for a packet whose delivery is
    /// carried by a batched burst event (see [`Fabric::transmit_burst`])
    /// rather than an event of its own. Trace-only: scheduling is the
    /// caller's job.
    pub fn wire_trace(
        &self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        first: bool,
        last: bool,
        departure: SimTime,
    ) {
        self.tracer
            .emit(departure, Comp::Fabric, || TraceEvent::PacketOnWire {
                src: src.0 as u32,
                dst: dst.0 as u32,
                bytes,
                first,
                last,
            });
    }

    /// Ship a whole message's packet train with a single simulator event.
    ///
    /// `departures` lists `(departure, bytes)` per packet in wire order;
    /// `msg` rides the final packet. One event fires at the last packet's
    /// arrival and hands the receiving NIC every packet's arrival time, so
    /// its delivery-station arithmetic replays exactly as if each packet
    /// had arrived on its own event. The per-packet `PacketOnWire` records
    /// must already have been emitted by the caller (via
    /// [`Fabric::wire_trace`]) so the trace stays byte-identical to the
    /// unbatched path.
    pub fn transmit_burst(
        &self,
        src: NodeId,
        dst: NodeId,
        departures: Vec<(SimTime, u64)>,
        msg: WireMsg,
    ) {
        let handle = &self.port(dst).1;
        let latency = self.link.latency;
        let arrivals: Vec<(SimTime, u64)> = departures
            .into_iter()
            .map(|(departure, bytes)| (departure + latency, bytes))
            .collect();
        let last_arrival = arrivals
            .last()
            .unwrap_or_else(|| panic!("empty packet burst"))
            .0;
        self.schedule_delivery(
            handle,
            last_arrival,
            Delivery::Burst {
                dst,
                src,
                arrivals,
                msg,
            },
        );
    }
}
