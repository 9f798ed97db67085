//! `HwConfig::lookahead` is a lower bound on every cross-node interaction:
//! a packet reaches the far end of the wire no sooner than one lookahead
//! after its message was handed to the sending NIC. The sharded kernel's
//! epoch width rests on that bound (its router asserts it per cross-shard
//! event), so it is checked here directly, on every preset, under jittered
//! timings and with every fault source on.
//!
//! The probe is a receiving NIC of its own on the fabric: it records each
//! packet's wire arrival (the instant the fabric hands it over) and learns
//! the message's submit time from the payload riding its last packet.

use comb_hw::nic::bypass::BypassNic;
use comb_hw::nic::kernel::KernelNic;
use comb_hw::nic::{DeliveryClass, Nic, NicStats, NodeId, Packet, RxHandler, TxDone, WireMsg};
use comb_hw::{Cpu, Fabric, FaultPlan, HwConfig, NicKind, PerturbPlan};
use comb_sim::{SimDuration, SimHandle, SimTime, Simulation};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// What the probe has seen so far.
#[derive(Default)]
struct Seen {
    /// Arrivals of bulk packets whose message tail has not arrived yet.
    open: Vec<SimTime>,
    /// Smallest `arrival − (submit + lookahead)` over all packets, in ns.
    min_slack: Option<i64>,
    packets: u64,
    msgs: u64,
}

impl Seen {
    fn check(&mut self, arrival: SimTime, submit: SimTime, lookahead: SimDuration) {
        let slack = arrival.as_nanos() as i64 - (submit + lookahead).as_nanos() as i64;
        self.min_slack = Some(self.min_slack.map_or(slack, |m| m.min(slack)));
        self.packets += 1;
    }
}

/// A receive-only NIC that checks every wire arrival against the
/// lookahead.
struct ProbeNic {
    id: NodeId,
    handle: SimHandle,
    lookahead: SimDuration,
    seen: Mutex<Seen>,
}

fn submit_time(msg: &WireMsg) -> SimTime {
    *msg.payload
        .downcast_ref::<SimTime>()
        .expect("probe messages carry their submit time")
}

impl Nic for ProbeNic {
    fn node_id(&self) -> NodeId {
        self.id
    }

    fn kind(&self) -> NicKind {
        NicKind::Bypass
    }

    fn submit(&self, _dst: NodeId, _msg: WireMsg, _on_tx_done: TxDone) {
        unreachable!("the probe only receives")
    }

    fn set_rx_handler(&self, _handler: RxHandler) {}

    fn set_ring_notify(&self, _notify: Arc<dyn Fn() + Send + Sync>) {}

    fn poll_ring(&self) -> Option<(NodeId, WireMsg)> {
        None
    }

    fn ring_len(&self) -> usize {
        0
    }

    fn stats(&self) -> NicStats {
        NicStats::default()
    }

    fn deliver_packet(&self, _src: NodeId, pkt: Packet) {
        let now = self.handle.now();
        let mut seen = self.seen.lock().unwrap();
        if pkt.expedited {
            // Single-packet control message: it may overtake bulk packets,
            // so it is checked on its own.
            let msg = pkt.tail.expect("an expedited packet is its whole message");
            seen.check(now, submit_time(&msg), self.lookahead);
            seen.msgs += 1;
            return;
        }
        // Bulk packets from the one sender arrive in FIFO order, so the
        // open run belongs to the message whose tail closes it.
        seen.open.push(now);
        if let Some(msg) = pkt.tail {
            let submit = submit_time(&msg);
            for arrival in std::mem::take(&mut seen.open) {
                seen.check(arrival, submit, self.lookahead);
            }
            seen.msgs += 1;
        }
    }

    fn deliver_burst(&self, _src: NodeId, arrivals: Vec<(SimTime, u64)>, msg: WireMsg) {
        let submit = submit_time(&msg);
        let mut seen = self.seen.lock().unwrap();
        for (arrival, _) in arrivals {
            seen.check(arrival, submit, self.lookahead);
        }
        seen.msgs += 1;
    }
}

const PRESETS: [fn() -> HwConfig; 4] = [
    HwConfig::gm_myrinet,
    HwConfig::portals_myrinet,
    HwConfig::portals_myrinet_smp,
    HwConfig::emp_ethernet,
];

/// Every fault source on, at rates high enough to hit most messages.
const FAULTS: [&str; 5] = [
    "loss=burst:0.05:4",
    "stall=200:0.3",
    "storm=500:20",
    "degrade=300:0.3:3",
    "dropctl=0.2",
];

/// Send `msgs` — `(bytes, expedited, gap before the submit in ns)` — from
/// a NIC of `hw` to the probe. With `extra_port`, a third (idle) port turns
/// off the bypass NIC's two-port burst batching, so the per-packet path is
/// probed too. Returns the probe's findings and the sender's counters.
fn probe_run(hw: &HwConfig, extra_port: bool, msgs: &[(u64, bool, u64)]) -> (Seen, NicStats) {
    let mut sim = Simulation::new();
    let handle = sim.handle();
    let fabric = Fabric::new(hw.link.clone());
    let sender = match hw.nic.kind {
        NicKind::Bypass => BypassNic::attach(&handle, &hw.nic, &fabric),
        NicKind::Kernel => {
            let cpu = Cpu::new(&handle, hw.cpu.clone());
            KernelNic::attach(&handle, &hw.nic, &fabric, &cpu)
        }
    };
    let probes: Vec<Arc<ProbeNic>> = (0..1 + extra_port as usize)
        .map(|_| {
            let probe = Arc::new(ProbeNic {
                id: NodeId(fabric.port_count()),
                handle: handle.clone(),
                lookahead: hw.lookahead(),
                seen: Mutex::new(Seen::default()),
            });
            let dyn_probe: Arc<dyn Nic> = probe.clone();
            fabric.attach(Arc::downgrade(&dyn_probe), &handle);
            probe
        })
        .collect();
    let mut t = SimTime::ZERO;
    for &(bytes, expedited, gap) in msgs {
        t += SimDuration::from_nanos(gap);
        let at = t;
        let sender = Arc::clone(&sender);
        // Control messages are a few bytes at most, and a zero-byte one
        // has no DMA time to hide a short send time behind.
        let bytes = if expedited { bytes % 8 } else { bytes };
        handle.schedule_at(at, move || {
            let msg = WireMsg {
                bytes,
                class: DeliveryClass::Ring,
                expedited,
                payload: Box::new(at),
            };
            sender.submit(NodeId(1), msg, Box::new(|| {}));
        });
    }
    sim.run().expect("the probe run completes");
    let seen = std::mem::take(&mut *probes[0].seen.lock().unwrap());
    (seen, sender.stats())
}

fn msg_list() -> impl Strategy<Value = Vec<(u64, bool, u64)>> {
    proptest::collection::vec((0u64..300_000, any::<bool>(), 0u64..40_000), 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// No packet, on any preset, seed or fault draw, reaches the wire's
    /// far end sooner than one lookahead after its message was submitted.
    #[test]
    fn every_wire_arrival_is_at_least_one_lookahead_after_submit(
        preset in 0usize..4,
        seed in any::<u64>(),
        extra_port in any::<bool>(),
        msgs in msg_list(),
    ) {
        let mut base = PRESETS[preset]();
        FaultPlan::from_specs(&FAULTS, Some(seed))
            .expect("fault specs parse")
            .apply_to(&mut base);
        let hw = PerturbPlan::new(seed).hw_for_replicate(&base, 1);
        let (seen, sent) = probe_run(&hw, extra_port, &msgs);
        prop_assert!(seen.open.is_empty(), "a bulk message lost its tail");
        prop_assert_eq!(seen.msgs, sent.msgs_tx - sent.ctl_dropped, "messages the probe saw");
        prop_assert!(seen.packets >= seen.msgs);
        if let Some(slack) = seen.min_slack {
            prop_assert!(
                slack >= 0,
                "{}: a packet arrived {} ns before submit + lookahead",
                hw.name,
                -slack
            );
        }
    }
}

/// The bound is tight: without faults or jitter, a lone control packet
/// arrives exactly one lookahead after its submit.
#[test]
fn a_lone_zero_byte_control_packet_arrives_exactly_one_lookahead_later() {
    for make in PRESETS {
        let hw = make();
        let (seen, _) = probe_run(&hw, false, &[(0, true, 1_000)]);
        assert_eq!((seen.msgs, seen.min_slack), (1, Some(0)), "{}", hw.name);
    }
}
