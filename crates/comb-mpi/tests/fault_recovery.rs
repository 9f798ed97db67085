//! Property-based tests of MPI-level fault recovery: under any seeded
//! fault plan — bursty or uniform loss, NIC stalls, interrupt storms, link
//! degradation, dropped rendezvous control messages — every message must
//! still be delivered exactly once, in per-flow order, and the packet-loss
//! machinery must cost monotonically more as the loss rate rises.

use comb_hw::nic::{Nic, NicStats, NodeId, Packet, RxHandler, TxDone, WireMsg};
use comb_hw::{Cluster, FaultPlan, HwConfig, NicKind, RndvRetryConfig};
use comb_mpi::{MpiEngine, MpiProc, MpiStats, MpiWorld, Payload, Rank, Tag};
use comb_sim::{Probe, SimDuration, Simulation};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// One message in the generated schedule: (tag index, payload length).
/// Lengths straddle the eager/rendezvous threshold so lost RTS/CTS
/// recovery is exercised alongside plain packet loss.
fn message_strategy() -> impl Strategy<Value = (u8, u32)> {
    (0u8..2, prop_oneof![1u32..2_000, 10_000u32..40_000])
}

/// Integer encoding of a fault plan severe enough to matter but bounded so
/// every schedule still terminates quickly: (loss kind, rate ‱, stall duty
/// ‱, dropctl ‱) plus a plan seed.
fn fault_ints() -> impl Strategy<Value = ((u8, u32, u32, u32), u64)> {
    ((0u8..3, 1u32..2000, 0u32..5000, 0u32..5000), any::<u64>())
}

fn build_plan(ints: &((u8, u32, u32, u32), u64)) -> FaultPlan {
    let ((loss_kind, rate_bp, stall_bp, drop_bp), seed) = ints;
    let mut specs: Vec<String> = Vec::new();
    match loss_kind {
        1 => specs.push(format!("loss=uniform:{}", *rate_bp as f64 / 10_000.0)),
        2 => specs.push(format!("loss=burst:{}", *rate_bp as f64 / 10_000.0)),
        _ => {}
    }
    if *stall_bp > 0 {
        specs.push(format!("stall=200:{}", *stall_bp as f64 / 10_000.0));
    }
    if *drop_bp > 0 {
        specs.push(format!("dropctl={}", *drop_bp as f64 / 10_000.0));
    }
    FaultPlan::from_specs(&specs, Some(*seed)).expect("generated specs must parse")
}

/// Send `msgs` from rank 0 to rank 1 on `cfg`, returning the received
/// lengths per tag (in arrival order) and the cluster's total lost-packet
/// count.
fn run_schedule(cfg: &HwConfig, msgs: &[(u8, u32)]) -> (Vec<Vec<u64>>, u64) {
    let mut sim = Simulation::new();
    let cluster = Cluster::build(&sim.handle(), cfg, 2);
    let world = MpiWorld::attach(&cluster);
    let (m0, m1) = (world.proc(Rank(0)), world.proc(Rank(1)));
    let sent = msgs.to_vec();
    sim.spawn("sender", move |ctx| {
        let mut reqs = Vec::new();
        for &(tag, len) in &sent {
            reqs.push(m0.isend(
                ctx,
                Rank(1),
                Tag(tag as u32),
                Payload::synthetic(len as u64),
            ));
        }
        m0.waitall(ctx, &reqs);
    });
    let expected = msgs.to_vec();
    let probe: Probe<Vec<Vec<u64>>> = Probe::new();
    let p = probe.clone();
    sim.spawn("receiver", move |ctx| {
        let mut per_tag_reqs: Vec<Vec<_>> = vec![Vec::new(); 2];
        for tag in 0u8..2 {
            let count = expected.iter().filter(|&&(t, _)| t == tag).count();
            for _ in 0..count {
                per_tag_reqs[tag as usize].push(m1.irecv(ctx, Rank(0), Tag(tag as u32)));
            }
        }
        let mut received: Vec<Vec<u64>> = vec![Vec::new(); 2];
        for tag in 0u8..2 {
            for &r in &per_tag_reqs[tag as usize] {
                let (st, _) = m1.wait_with_payload(ctx, r);
                received[tag as usize].push(st.len);
            }
        }
        p.set(received);
    });
    sim.run().expect("faulted schedule must still complete");
    let lost = cluster
        .nodes
        .iter()
        .map(|n| n.nic.stats().lost_packets)
        .sum();
    (probe.get().expect("receiver result"), lost)
}

fn expected_per_tag(msgs: &[(u8, u32)]) -> Vec<Vec<u64>> {
    (0u8..2)
        .map(|tag| {
            msgs.iter()
                .filter(|&&(t, _)| t == tag)
                .map(|&(_, len)| len as u64)
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn any_fault_plan_still_delivers_exactly_once_in_order(
        ints in fault_ints(),
        msgs in proptest::collection::vec(message_strategy(), 1..12),
    ) {
        let plan = build_plan(&ints);
        for mut cfg in [HwConfig::gm_myrinet(), HwConfig::portals_myrinet()] {
            plan.apply_to(&mut cfg);
            let (received, _) = run_schedule(&cfg, &msgs);
            prop_assert_eq!(
                &received,
                &expected_per_tag(&msgs),
                "delivery corrupted on {} under plan `{}`",
                cfg.name,
                plan
            );
        }
    }

    #[test]
    fn lost_packets_are_monotone_in_loss_rate(
        seed in any::<u64>(),
        lo_bp in 1u32..3000,
        delta_bp in 1u32..3000,
        msgs in proptest::collection::vec(message_strategy(), 2..10),
    ) {
        // Uniform loss only (no retry timers, no control drops): the
        // packet schedule is then rate-independent, and for a fixed seed
        // the single-draw loss decision nests lower rates inside higher
        // ones, so the lost-packet count can only grow with the rate.
        let lost_at = |bp: u32| {
            let plan = FaultPlan::from_specs(
                &[format!("loss=uniform:{}", bp as f64 / 10_000.0)],
                Some(seed),
            )
            .unwrap();
            let mut cfg = HwConfig::gm_myrinet();
            plan.apply_to(&mut cfg);
            let (received, lost) = run_schedule(&cfg, &msgs);
            assert_eq!(received, expected_per_tag(&msgs));
            lost
        };
        let lo = lost_at(lo_bp);
        let hi = lost_at(lo_bp + delta_bp);
        prop_assert!(
            lo <= hi,
            "lost packets must be monotone in loss rate ({lo} at lower vs {hi} at higher)"
        );
    }
}

#[test]
fn abandoned_handshake_at_exit_cannot_wedge_the_simulation() {
    // A rendezvous send whose receiver never posts a matching recv and
    // never polls: with dropped-control recovery armed, the sender's RTS
    // retry timer would re-arm forever after the sender exits — a
    // self-perpetuating event stream the simulation can never drain
    // (regression: the polling method livelocked on GM with `dropctl`
    // because both processes fire-and-forget their final sends). The
    // engines' `finalize` at process exit must cancel the timer.
    let mut cfg = HwConfig::gm_myrinet();
    let plan = FaultPlan::from_specs(&["dropctl=0.4"], Some(11)).unwrap();
    plan.apply_to(&mut cfg);
    let mut sim = Simulation::new();
    let cluster = Cluster::build(&sim.handle(), &cfg, 2);
    let world = MpiWorld::attach(&cluster);
    let (m0, m1) = (world.proc(Rank(0)), world.proc(Rank(1)));
    sim.spawn("sender", move |ctx| {
        // Rendezvous-sized: well above the eager threshold.
        let _ = m0.isend(ctx, Rank(1), Tag(0), Payload::synthetic(256 * 1024));
        m0.finalize();
    });
    sim.spawn("idle-receiver", move |_ctx| {
        m1.finalize();
    });
    sim.run()
        .expect("the event queue must drain after finalize");
}

/// A sender-side NIC that holds back the second expedited message it is
/// given (on a pure sender, the first RTS retransmission) until
/// [`HoldingNic::release`], and passes everything else straight through.
struct HoldingNic {
    inner: Arc<dyn Nic>,
    expedited: Mutex<u32>,
    held: Mutex<Option<(NodeId, WireMsg, TxDone)>>,
}

impl HoldingNic {
    /// Put the held message on the wire now.
    fn release(&self) {
        let (dst, msg, done) = self.held.lock().unwrap().take().expect("nothing was held");
        self.inner.submit(dst, msg, done);
    }
}

impl Nic for HoldingNic {
    fn node_id(&self) -> NodeId {
        self.inner.node_id()
    }
    fn kind(&self) -> NicKind {
        self.inner.kind()
    }
    fn submit(&self, dst: NodeId, msg: WireMsg, on_tx_done: TxDone) {
        if msg.expedited {
            let mut n = self.expedited.lock().unwrap();
            *n += 1;
            if *n == 2 {
                *self.held.lock().unwrap() = Some((dst, msg, on_tx_done));
                return;
            }
        }
        self.inner.submit(dst, msg, on_tx_done)
    }
    fn set_rx_handler(&self, handler: RxHandler) {
        self.inner.set_rx_handler(handler)
    }
    fn set_ring_notify(&self, notify: Arc<dyn Fn() + Send + Sync>) {
        self.inner.set_ring_notify(notify)
    }
    fn poll_ring(&self) -> Option<(NodeId, WireMsg)> {
        self.inner.poll_ring()
    }
    fn ring_len(&self) -> usize {
        self.inner.ring_len()
    }
    fn stats(&self) -> NicStats {
        self.inner.stats()
    }
    fn deliver_packet(&self, src: NodeId, pkt: Packet) {
        self.inner.deliver_packet(src, pkt)
    }
}

#[test]
fn late_duplicate_rts_of_a_finished_handshake_is_ignored() {
    // GM with the retry protocol armed on a reliable wire. The receiver
    // stays out of the library for 800 us, so the sender's first RTS
    // retransmission (at the 500 us timeout) goes out before the CTS comes
    // back; the sender's NIC holds that copy. Handshake 0 then completes,
    // handshakes 1 and 2 run start to finish, and only then is the held
    // RTS of handshake 0 released. Its token belongs to no live handshake,
    // so the receiver must count it as a duplicate and send no CTS.
    let mut cfg = HwConfig::gm_myrinet();
    cfg.mpi.rndv_retry = Some(RndvRetryConfig::default());
    let mut sim = Simulation::new();
    let cluster = Cluster::build(&sim.handle(), &cfg, 2);
    let (n0, n1) = (&cluster.nodes[0], &cluster.nodes[1]);
    let holding = Arc::new(HoldingNic {
        inner: Arc::clone(&n0.nic),
        expedited: Mutex::new(0),
        held: Mutex::new(None),
    });
    let nic0: Arc<dyn Nic> = holding.clone();
    let m0 = MpiProc::from_engine(
        MpiEngine::new(Rank(0), &n0.handle, &n0.cpu, &nic0, cfg.mpi.clone()),
        2,
    );
    let m1 = MpiProc::from_engine(
        MpiEngine::new(Rank(1), &n1.handle, &n1.cpu, &n1.nic, cfg.mpi.clone()),
        2,
    );
    let big = || Payload::synthetic(256 * 1024);
    let sender_stats: Probe<MpiStats> = Probe::new();
    let s = sender_stats.clone();
    sim.spawn("sender", move |ctx| {
        let first = m0.isend(ctx, Rank(1), Tag(0), big());
        m0.wait(ctx, first);
        let later: Vec<_> = (1..3)
            .map(|t| m0.isend(ctx, Rank(1), Tag(t), big()))
            .collect();
        m0.waitall(ctx, &later);
        holding.release();
        // Sequenced after the duplicate: once it is received, the
        // duplicate has been handled.
        m0.send(ctx, Rank(1), Tag(9), Payload::synthetic(8));
        m0.finalize();
        s.set(m0.stats());
    });
    let receiver: Probe<(MpiStats, u64, u64)> = Probe::new();
    let r = receiver.clone();
    let nic1 = Arc::clone(&n1.nic);
    sim.spawn("receiver", move |ctx| {
        let reqs: Vec<_> = (0..3).map(|t| m1.irecv(ctx, Rank(0), Tag(t))).collect();
        ctx.hold(SimDuration::from_micros(800));
        m1.waitall(ctx, &reqs);
        let ctl_after_handshakes = nic1.stats().msgs_tx;
        m1.recv(ctx, Rank(0), Tag(9));
        m1.finalize();
        r.set((m1.stats(), ctl_after_handshakes, nic1.stats().msgs_tx));
    });
    sim.run().expect("the exchange must complete");

    let sender = sender_stats.get().expect("sender stats");
    assert_eq!(sender.rndv_retries, 1, "exactly one RTS retransmission");
    assert_eq!(sender.dup_cts, 0);
    let (stats, ctl_after_handshakes, ctl_at_end) = receiver.get().expect("receiver stats");
    assert_eq!(ctl_after_handshakes, 3, "one CTS per handshake");
    assert_eq!(stats.dup_rts, 1, "the late RTS is counted as a duplicate");
    assert_eq!(
        ctl_at_end, ctl_after_handshakes,
        "a duplicate of a finished handshake must not be answered"
    );
    assert_eq!(stats.recvs_completed, 4);
}
