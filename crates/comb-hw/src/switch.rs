//! The switch fabric: routes packets between NICs with a fixed one-way
//! latency (wire propagation + store-and-forward switch delay).
//!
//! Port contention is modelled at the endpoints: the sender's injection
//! station and the receiver's delivery station/ISR chain serialize packets,
//! which for a crossbar switch (the paper's 8-port Myrinet SAN/LAN switch)
//! is where the queueing actually happens.
//!
//! A packet on the wire is one simulator event at its arrival. The event
//! owns the destination NIC, the source and the packet (or a batched
//! message's arrivals and body), so the fabric itself parks nothing and
//! takes no lock per packet.

use crate::config::LinkConfig;
use crate::nic::{Nic, NodeId, Packet, WireMsg};
use comb_sim::{SimHandle, SimTime};
use comb_trace::{Comp, TraceEvent, Tracer};
use parking_lot::Mutex;
use std::sync::{Arc, OnceLock, Weak};

/// An attached NIC and the handle of the simulation (shard) its node
/// lives in.
type Port = (Weak<dyn Nic>, SimHandle);

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
/// packet goes out, after which every thread reads it without a lock. A
/// port's NIC is upgraded once per transmit, and the delivery keeps it
/// alive until it fires, or until dropping the simulation empties its
/// event queue.
pub struct Fabric {
    link: LinkConfig,
    /// Ports attached while the cluster is built.
    attaching: Mutex<Vec<Port>>,
    /// The port table, moved out of `attaching` by the first transmit.
    ports: OnceLock<Box<[Port]>>,
    tracer: Tracer,
}

impl Fabric {
    /// A fabric with the given link parameters and a disabled tracer.
    pub fn new(link: LinkConfig) -> Arc<Fabric> {
        Fabric::new_traced(link, Tracer::new())
    }

    /// A fabric emitting per-packet trace records to `tracer` (when it is
    /// enabled).
    pub fn new_traced(link: LinkConfig, tracer: Tracer) -> Arc<Fabric> {
        Arc::new(Fabric {
            link,
            attaching: Mutex::new(Vec::new()),
            ports: OnceLock::new(),
            tracer,
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
        let last = pkt.tail.is_some();
        self.wire_trace(src, dst, pkt.bytes, pkt.first, last, departure);
        // A NIC dropped before its packets arrive means the cluster is being
        // torn down; the packet simply evaporates.
        let (nic, handle) = self.port(dst);
        if let Some(nic) = nic.upgrade() {
            handle.schedule_at(departure + self.link.latency, move || {
                nic.deliver_packet(src, pkt)
            });
        }
    }

    /// Emit the `PacketOnWire` trace record of a packet leaving at
    /// `departure`. [`Fabric::transmit`] emits its packet's; a NIC whose
    /// packets ride one burst event (see [`Fabric::transmit_burst`]) calls
    /// this per packet. Trace-only: scheduling is the caller's job.
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
        let latency = self.link.latency;
        // A boxed slice, a word smaller than a `Vec`, keeps the event's
        // closure within the simulator's inline budget. `departures` is
        // exactly full, so neither the collect nor the unboxing reallocates.
        let arrivals: Box<[(SimTime, u64)]> = departures
            .into_iter()
            .map(|(departure, bytes)| (departure + latency, bytes))
            .collect();
        let last_arrival = arrivals
            .last()
            .unwrap_or_else(|| panic!("empty packet burst"))
            .0;
        let (nic, handle) = self.port(dst);
        if let Some(nic) = nic.upgrade() {
            handle.schedule_at(last_arrival, move || {
                nic.deliver_burst(src, arrivals.into_vec(), msg)
            });
        }
    }
}
