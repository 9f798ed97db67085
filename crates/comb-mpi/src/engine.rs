//! The per-rank MPI engine: request table, matcher, protocol state, and the
//! progress pump, wired to a simulated NIC.
//!
//! Borrowing rule: the engine's state cell is **never borrowed across a
//! virtual-time yield** (every `Cpu::compute` / `Condition::wait` happens
//! outside the borrow), because events that fire during a yield
//! (deliveries, transmit completions) borrow the same cell, and a second
//! borrow panics.

use crate::matching::{MatchEngine, PostedRecv, Unexpected, UnexpectedBody};
use crate::protocol::{ProtoMsg, CTL_BYTES};
use crate::request::{RequestHandle, RequestTable};
use crate::types::{Envelope, Payload, Rank, RankSel, Status, TagSel};
use comb_hw::{Cpu, DeliveryClass, MpiCostConfig, Nic, NodeId, ProgressModel, WireMsg};
use comb_sim::{Condition, EventId, ProcCtx, SimCell, SimDuration, SimHandle};
use comb_trace::{Comp, MsgId, TraceEvent, Tracer};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Cumulative per-rank MPI counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MpiStats {
    /// Non-blocking sends posted.
    pub isends: u64,
    /// Non-blocking receives posted.
    pub irecvs: u64,
    /// `test` calls made.
    pub tests: u64,
    /// Protocol messages processed by library progress.
    pub progress_msgs: u64,
    /// Messages that arrived before a matching receive was posted.
    pub unexpected: u64,
    /// Sends that took the eager path.
    pub eager_sends: u64,
    /// Sends that took the rendezvous path.
    pub rndv_sends: u64,
    /// Payload bytes in completed sends.
    pub bytes_sent: u64,
    /// Payload bytes in completed receives.
    pub bytes_received: u64,
    /// Receives completed.
    pub recvs_completed: u64,
    /// RTS retransmissions sent after a retry timeout fired.
    pub rndv_retries: u64,
    /// Duplicate RTS messages received (a retransmission racing the
    /// original or its CTS).
    pub dup_rts: u64,
    /// Duplicate CTS messages received (the receiver answered a
    /// retransmitted RTS whose original CTS also arrived).
    pub dup_cts: u64,
}

struct PendingRndvSend {
    req: RequestHandle,
    env: Envelope,
    payload: Payload,
    dst: Rank,
    /// Envelope sequence the RTS carried; retransmissions reuse it so the
    /// receiver's ordering gate recognises duplicates.
    seq: u64,
    /// Retry attempts made so far (drives exponential backoff).
    attempt: u32,
    /// The armed retry timer, cancelled when the CTS arrives.
    timer: Option<EventId>,
    /// Trace correlation id of the message.
    corr: u64,
}

/// Receiver-side progress of one rendezvous handshake, for answering
/// retransmitted RTS messages idempotently.
enum RtsProgress {
    /// RTS arrived before a matching receive was posted; no CTS sent yet.
    Queued,
    /// CTS sent with this landing token — a duplicate RTS means the CTS
    /// may have been lost, so it is resent verbatim. The second field is
    /// the handshake's trace correlation id.
    CtsSent(u64, u64),
}

/// Receiver-side rendezvous landing zone awaiting DATA.
struct RndvLanding {
    req: RequestHandle,
    /// Sender identity of the handshake, for cleaning up the duplicate
    /// tracker once the payload lands.
    src: Rank,
    sender_token: u64,
}

/// Envelope ordering and handshake state for one peer rank.
#[derive(Default)]
struct Peer {
    /// Next envelope sequence number to send to this peer.
    send_seq: u64,
    /// Next envelope sequence expected from this peer, plus a reorder
    /// buffer for envelopes whose predecessors (e.g. a bulk eager payload
    /// overtaken by an expedited RTS) have not arrived yet. This is the
    /// reliability layer's in-order delivery guarantee.
    recv_seq: u64,
    reorder: BTreeMap<u64, ProtoMsg>,
    /// Progress of this peer's handshakes by its sender token, consulted
    /// when a retransmitted RTS arrives. Entries live from first RTS to
    /// DATA.
    rts_seen: BTreeMap<u64, RtsProgress>,
}

struct EngineInner {
    requests: RequestTable,
    matcher: MatchEngine,
    /// Sender-side rendezvous state awaiting CTS, by sender token.
    send_pending: BTreeMap<u64, PendingRndvSend>,
    /// Receiver-side rendezvous landing zones awaiting DATA, by recv token.
    recv_tokens: BTreeMap<u64, RndvLanding>,
    /// Per-peer state, indexed by rank and grown on first contact.
    peers: Vec<Peer>,
    /// Next rendezvous token, shared by both sides' handshakes. Tokens are
    /// never reused, so a late retransmitted RTS or CTS can only match the
    /// handshake it belongs to, never a newer one.
    next_token: u64,
    /// Next trace correlation counter (combined with the rank into a
    /// globally unique [`MsgId`] per posted send).
    next_corr: u64,
    stats: MpiStats,
}

impl EngineInner {
    /// The state kept for `rank`, created on first contact.
    fn peer(&mut self, rank: Rank) -> &mut Peer {
        if rank.0 >= self.peers.len() {
            self.peers.resize_with(rank.0 + 1, Peer::default);
        }
        &mut self.peers[rank.0]
    }
}

/// The message-passing engine for one rank. Cloneable handle.
#[derive(Clone)]
pub struct MpiEngine {
    shared: Arc<EngineShared>,
}

struct EngineShared {
    rank: Rank,
    handle: SimHandle,
    cpu: Cpu,
    nic: Arc<dyn Nic>,
    cfg: MpiCostConfig,
    tracer: Tracer,
    inner: SimCell<EngineInner>,
    /// Notified on every request completion and every ring arrival; blocking
    /// waits park here.
    completion_cond: Condition,
}

impl MpiEngine {
    /// Build an engine for `rank` on the given CPU and NIC, and install the
    /// NIC upcalls.
    pub fn new(
        rank: Rank,
        handle: &SimHandle,
        cpu: &Cpu,
        nic: &Arc<dyn Nic>,
        cfg: MpiCostConfig,
    ) -> MpiEngine {
        MpiEngine::new_traced(rank, handle, cpu, nic, cfg, Tracer::new())
    }

    /// Like [`MpiEngine::new`], emitting call/completion records to
    /// `tracer` when it is enabled.
    pub fn new_traced(
        rank: Rank,
        handle: &SimHandle,
        cpu: &Cpu,
        nic: &Arc<dyn Nic>,
        cfg: MpiCostConfig,
        tracer: Tracer,
    ) -> MpiEngine {
        let shared = Arc::new(EngineShared {
            rank,
            handle: handle.clone(),
            cpu: cpu.clone(),
            nic: Arc::clone(nic),
            cfg,
            tracer,
            inner: SimCell::new(
                handle,
                EngineInner {
                    requests: RequestTable::default(),
                    matcher: MatchEngine::default(),
                    send_pending: BTreeMap::new(),
                    recv_tokens: BTreeMap::new(),
                    peers: Vec::new(),
                    next_token: 0,
                    next_corr: 0,
                    stats: MpiStats::default(),
                },
            ),
            completion_cond: Condition::new(handle),
        });
        // The NIC owns its upcalls and the engine owns the NIC, so the
        // upcall holds the engine weakly: a strong reference would keep a
        // finished simulation's models alive forever.
        let push_engine = Arc::downgrade(&shared);
        nic.set_rx_handler(Arc::new(move |src, msg| {
            if let Some(shared) = push_engine.upgrade() {
                MpiEngine { shared }.handle_push(src, msg);
            }
        }));
        let cond = shared.completion_cond.clone();
        nic.set_ring_notify(Arc::new(move || cond.notify_all()));
        MpiEngine { shared }
    }

    /// This engine's rank.
    pub fn rank(&self) -> Rank {
        self.shared.rank
    }

    /// The progress model in effect.
    pub fn progress_model(&self) -> ProgressModel {
        self.shared.cfg.progress
    }

    /// Cumulative counters.
    pub fn stats(&self) -> MpiStats {
        self.shared.inner.borrow_mut().stats
    }

    /// The tracer this engine emits to (shared with the cluster fabric
    /// when built via `MpiWorld::attach`). Benchmarks use it to emit
    /// phase-boundary events onto the same record stream.
    pub fn tracer(&self) -> &Tracer {
        &self.shared.tracer
    }

    /// This engine's trace component lane.
    fn comp(&self) -> Comp {
        Comp::Mpi(self.shared.rank.0 as u32)
    }

    /// Number of live (unreaped) requests — for leak checks in tests.
    pub fn live_requests(&self) -> usize {
        self.shared.inner.borrow_mut().requests.live()
    }

    fn node_of(&self, rank: Rank) -> NodeId {
        NodeId(rank.0)
    }

    // ------------------------------------------------------------------
    // Posting
    // ------------------------------------------------------------------

    /// Post a non-blocking send. Charges the host-side post cost and hands
    /// the message to the transport.
    pub fn isend(
        &self,
        ctx: &ProcCtx,
        dst: Rank,
        tag: crate::types::Tag,
        payload: Payload,
    ) -> RequestHandle {
        let len = payload.len();
        let eager_wire = match self.shared.cfg.progress {
            ProgressModel::Offload => true,
            ProgressModel::Library => len < self.shared.cfg.eager_threshold,
        };
        // Post cost: the small-message path costs more on GM (bounce-buffer
        // copy inside the library, the paper's 45 us); rendezvous posts are
        // cheap. Offload transports pay their kernel-crossing cost here.
        let small_path = len < self.shared.cfg.eager_threshold;
        let cost = if small_path {
            self.shared.cfg.isend_eager
        } else {
            self.shared.cfg.isend_rndv
        };
        self.shared.cpu.compute(ctx, cost);

        let env = Envelope {
            src: self.shared.rank,
            tag,
            len,
        };
        let mut inner = self.shared.inner.borrow_mut();
        let req = inner.requests.insert();
        inner.stats.isends += 1;
        let peer = inner.peer(dst);
        let seq = peer.send_seq;
        peer.send_seq += 1;
        let corr = MsgId::new(self.shared.rank.0 as u32, inner.next_corr).0;
        inner.next_corr += 1;
        self.shared
            .tracer
            .emit(self.shared.handle.now(), self.comp(), || {
                TraceEvent::SendPosted {
                    msg: MsgId(corr),
                    peer: dst.0 as u32,
                    bytes: len,
                    eager: eager_wire,
                }
            });
        if eager_wire {
            inner.stats.eager_sends += 1;
            inner.stats.bytes_sent += len;
            drop(inner);
            let class = match self.shared.cfg.progress {
                ProgressModel::Offload => DeliveryClass::Direct,
                ProgressModel::Library => DeliveryClass::Ring,
            };
            let wire = WireMsg {
                bytes: len,
                class,
                expedited: false,
                payload: Box::new(ProtoMsg::Eager {
                    env,
                    seq,
                    corr,
                    payload,
                }),
            };
            self.shared
                .tracer
                .emit(self.shared.handle.now(), self.comp(), || {
                    TraceEvent::DataStart {
                        msg: MsgId(corr),
                        peer: dst.0 as u32,
                        bytes: len,
                    }
                });
            let me = self.clone();
            self.shared.nic.submit(
                self.node_of(dst),
                wire,
                Box::new(move || me.complete_send(req, env, corr)),
            );
        } else {
            inner.stats.rndv_sends += 1;
            inner.stats.bytes_sent += len;
            let token = inner.next_token;
            inner.next_token += 1;
            inner.send_pending.insert(
                token,
                PendingRndvSend {
                    req,
                    env,
                    payload,
                    dst,
                    seq,
                    attempt: 0,
                    timer: None,
                    corr,
                },
            );
            drop(inner);
            // The RTS transmit completion is not the send completion; the
            // send completes when the DATA leaves (after CTS).
            self.send_rts(dst, env, seq, token, corr);
            self.arm_rts_timer(token);
        }
        req
    }

    fn send_rts(&self, dst: Rank, env: Envelope, seq: u64, sender_token: u64, corr: u64) {
        self.shared
            .tracer
            .emit(self.shared.handle.now(), self.comp(), || {
                TraceEvent::RtsSent {
                    msg: MsgId(corr),
                    peer: dst.0 as u32,
                }
            });
        let wire = WireMsg {
            bytes: CTL_BYTES,
            class: DeliveryClass::Ring,
            expedited: true,
            payload: Box::new(ProtoMsg::Rts {
                env,
                seq,
                sender_token,
                corr,
            }),
        };
        self.shared
            .nic
            .submit(self.node_of(dst), wire, Box::new(|| {}));
    }

    /// Arm (or re-arm) the retry timer for a pending rendezvous send. A
    /// no-op unless the platform's rendezvous retry protocol is configured
    /// — with reliable control wiring (every preset's default) no timer
    /// events exist and behaviour is byte-identical to the pre-retry
    /// engine.
    fn arm_rts_timer(&self, token: u64) {
        let Some(retry) = self.shared.cfg.rndv_retry else {
            return;
        };
        let mut inner = self.shared.inner.borrow_mut();
        let Some(pending) = inner.send_pending.get_mut(&token) else {
            return;
        };
        let exp = pending.attempt.min(retry.max_exponent);
        let delay = retry.timeout * (retry.backoff as u64).pow(exp);
        let me = self.clone();
        let id = self
            .shared
            .handle
            .schedule_in(delay, move || me.rts_timeout(token));
        pending.timer = Some(id);
    }

    /// Retry timeout: if the handshake is still awaiting its CTS, resend
    /// the RTS (same token and sequence, so the receiver can recognise a
    /// duplicate) and back off exponentially.
    fn rts_timeout(&self, token: u64) {
        let resend = {
            let mut inner = self.shared.inner.borrow_mut();
            match inner.send_pending.get_mut(&token) {
                None => None, // CTS arrived; the handshake moved on.
                Some(pending) => {
                    pending.attempt += 1;
                    pending.timer = None;
                    let r = (
                        pending.dst,
                        pending.env,
                        pending.seq,
                        pending.corr,
                        pending.attempt,
                    );
                    inner.stats.rndv_retries += 1;
                    Some(r)
                }
            }
        };
        let Some((dst, env, seq, corr, attempt)) = resend else {
            return;
        };
        self.shared
            .tracer
            .emit(self.shared.handle.now(), self.comp(), || {
                TraceEvent::Retried {
                    msg: MsgId(corr),
                    attempt,
                }
            });
        self.send_rts(dst, env, seq, token, corr);
        self.arm_rts_timer(token);
    }

    /// Post a non-blocking receive.
    pub fn irecv(&self, ctx: &ProcCtx, src: RankSel, tag: TagSel) -> RequestHandle {
        self.shared
            .tracer
            .emit(self.shared.handle.now(), self.comp(), || {
                TraceEvent::RecvPosted
            });
        self.shared.cpu.compute(ctx, self.shared.cfg.irecv);
        let mut inner = self.shared.inner.borrow_mut();
        let req = inner.requests.insert();
        inner.stats.irecvs += 1;
        let hit = inner.matcher.post_recv(PostedRecv { req, src, tag });
        match hit {
            None => {}
            Some(Unexpected {
                env,
                corr,
                body: UnexpectedBody::Eager(payload),
            }) => {
                drop(inner);
                self.shared
                    .tracer
                    .emit(self.shared.handle.now(), self.comp(), || {
                        TraceEvent::Matched {
                            msg: MsgId(corr),
                            unexpected: true,
                        }
                    });
                // Landing a buffered eager payload costs a library copy on
                // library-progress transports (kernel already copied on
                // offload ones, but it must copy again out of its bounce
                // buffer — charge the same rate).
                self.shared.cpu.compute(
                    ctx,
                    SimDuration::for_bytes(env.len, self.shared.cfg.eager_copy_bandwidth),
                );
                self.complete_recv(req, env, payload, corr);
            }
            Some(Unexpected {
                env,
                corr,
                body: UnexpectedBody::Rndv { sender_token },
            }) => {
                let recv_token = inner.next_token;
                inner.next_token += 1;
                inner.recv_tokens.insert(
                    recv_token,
                    RndvLanding {
                        req,
                        src: env.src,
                        sender_token,
                    },
                );
                inner
                    .peer(env.src)
                    .rts_seen
                    .insert(sender_token, RtsProgress::CtsSent(recv_token, corr));
                drop(inner);
                self.shared
                    .tracer
                    .emit(self.shared.handle.now(), self.comp(), || {
                        TraceEvent::Matched {
                            msg: MsgId(corr),
                            unexpected: true,
                        }
                    });
                self.send_cts(env.src, sender_token, recv_token, corr);
            }
        }
        req
    }

    fn send_cts(&self, to: Rank, sender_token: u64, recv_token: u64, corr: u64) {
        self.shared
            .tracer
            .emit(self.shared.handle.now(), self.comp(), || {
                TraceEvent::CtsSent {
                    msg: MsgId(corr),
                    peer: to.0 as u32,
                }
            });
        let wire = WireMsg {
            bytes: CTL_BYTES,
            class: DeliveryClass::Ring,
            expedited: true,
            payload: Box::new(ProtoMsg::Cts {
                sender_token,
                recv_token,
            }),
        };
        self.shared
            .nic
            .submit(self.node_of(to), wire, Box::new(|| {}));
    }

    // ------------------------------------------------------------------
    // Completion plumbing
    // ------------------------------------------------------------------

    fn complete_send(&self, req: RequestHandle, env: Envelope, corr: u64) {
        self.shared
            .tracer
            .emit(self.shared.handle.now(), self.comp(), || {
                TraceEvent::SendDone { msg: MsgId(corr) }
            });
        let mut inner = self.shared.inner.borrow_mut();
        inner.requests.complete(
            req,
            Status {
                source: env.src,
                tag: env.tag,
                len: env.len,
            },
            None,
        );
        drop(inner);
        self.shared.completion_cond.notify_all();
    }

    fn complete_recv(&self, req: RequestHandle, env: Envelope, payload: Payload, corr: u64) {
        self.shared
            .tracer
            .emit(self.shared.handle.now(), self.comp(), || {
                TraceEvent::DataDone {
                    msg: MsgId(corr),
                    bytes: env.len,
                }
            });
        let mut inner = self.shared.inner.borrow_mut();
        inner.stats.bytes_received += env.len;
        inner.stats.recvs_completed += 1;
        inner
            .requests
            .complete(req, Status::from_envelope(&env), Some(payload));
        drop(inner);
        self.shared.completion_cond.notify_all();
    }

    // ------------------------------------------------------------------
    // Progress
    // ------------------------------------------------------------------

    /// Library-driven progress: drain the NIC ring, paying the per-message
    /// library costs. No-op on offload transports (the transport itself
    /// progressed everything). Returns the number of messages processed.
    pub fn progress(&self, ctx: &ProcCtx) -> usize {
        if self.shared.cfg.progress == ProgressModel::Offload {
            return 0;
        }
        let mut handled = 0;
        while let Some((src, wire)) = self.shared.nic.poll_ring() {
            handled += 1;
            let proto = *wire
                .payload
                .downcast::<ProtoMsg>()
                .expect("foreign payload in NIC ring");
            // Per-message library processing, plus the user-buffer copy for
            // eager payloads, happens on the host right now.
            let mut cost = self.shared.cfg.progress_per_msg;
            if let ProtoMsg::Eager { ref env, .. } = proto {
                cost += SimDuration::for_bytes(env.len, self.shared.cfg.eager_copy_bandwidth);
            }
            self.shared.cpu.compute(ctx, cost);
            self.shared.inner.borrow_mut().stats.progress_msgs += 1;
            self.dispatch_proto(src, proto);
        }
        handled
    }

    /// Push-path delivery: direct DMA completions on bypass NICs, and every
    /// message on kernel NICs (invoked from the ISR, costs already stolen).
    fn handle_push(&self, src: NodeId, wire: WireMsg) {
        let proto = *wire
            .payload
            .downcast::<ProtoMsg>()
            .expect("foreign payload pushed to MPI engine");
        self.dispatch_proto(src, proto);
        // Wake any blocked waiter: on offload transports completions happen
        // with no library call in flight.
        self.shared.completion_cond.notify_all();
    }

    fn dispatch_proto(&self, src: NodeId, proto: ProtoMsg) {
        // Envelope-carrying messages must be matched in send order even if
        // the expedited control lane reordered them on the wire: gate them
        // on the per-source sequence number, stashing early arrivals.
        let Some(seq) = proto.seq() else {
            return self.dispatch_unordered(proto);
        };
        let src = Rank(src.0);
        {
            let mut inner = self.shared.inner.borrow_mut();
            let peer = inner.peer(src);
            if seq < peer.recv_seq {
                // An already-sequenced envelope again: a retransmitted RTS
                // whose original (or whose CTS) is racing it. Answer
                // idempotently instead of re-dispatching.
                drop(inner);
                return self.handle_duplicate(proto);
            }
            if seq != peer.recv_seq {
                peer.reorder.insert(seq, proto);
                return;
            }
            peer.recv_seq += 1;
        }
        self.dispatch_unordered(proto);
        // Drain any consecutive stashed successors.
        loop {
            let next = {
                let mut inner = self.shared.inner.borrow_mut();
                let peer = &mut inner.peers[src.0];
                let next = peer.reorder.remove(&peer.recv_seq);
                if next.is_some() {
                    peer.recv_seq += 1;
                }
                next
            };
            match next {
                Some(m) => self.dispatch_unordered(m),
                None => break,
            }
        }
    }

    /// Idempotent handling of an envelope message that was already
    /// sequenced once. Only a retransmitted RTS can legitimately arrive
    /// here (eager payloads and DATA are never retransmitted): if the CTS
    /// already went out it is resent verbatim (it may have been dropped);
    /// if the handshake is still queued unexpected, or already completed,
    /// the duplicate is ignored.
    fn handle_duplicate(&self, proto: ProtoMsg) {
        let ProtoMsg::Rts {
            env, sender_token, ..
        } = proto
        else {
            return;
        };
        let resend = {
            let mut inner = self.shared.inner.borrow_mut();
            inner.stats.dup_rts += 1;
            match inner.peer(env.src).rts_seen.get(&sender_token) {
                Some(RtsProgress::CtsSent(recv_token, corr)) => Some((*recv_token, *corr)),
                Some(RtsProgress::Queued) | None => None,
            }
        };
        if let Some((recv_token, corr)) = resend {
            self.send_cts(env.src, sender_token, recv_token, corr);
        }
    }

    fn dispatch_unordered(&self, proto: ProtoMsg) {
        match proto {
            ProtoMsg::Eager {
                env, corr, payload, ..
            } => {
                let mut inner = self.shared.inner.borrow_mut();
                match inner.matcher.match_arrival(env.src, &env) {
                    Some(posted) => {
                        drop(inner);
                        self.shared
                            .tracer
                            .emit(self.shared.handle.now(), self.comp(), || {
                                TraceEvent::Matched {
                                    msg: MsgId(corr),
                                    unexpected: false,
                                }
                            });
                        self.complete_recv(posted.req, env, payload, corr);
                    }
                    None => {
                        inner.stats.unexpected += 1;
                        inner.matcher.add_unexpected(Unexpected {
                            env,
                            corr,
                            body: UnexpectedBody::Eager(payload),
                        });
                    }
                }
            }
            ProtoMsg::Rts {
                env,
                sender_token,
                corr,
                ..
            } => {
                let mut inner = self.shared.inner.borrow_mut();
                match inner.matcher.match_arrival(env.src, &env) {
                    Some(posted) => {
                        let recv_token = inner.next_token;
                        inner.next_token += 1;
                        inner.recv_tokens.insert(
                            recv_token,
                            RndvLanding {
                                req: posted.req,
                                src: env.src,
                                sender_token,
                            },
                        );
                        inner
                            .peer(env.src)
                            .rts_seen
                            .insert(sender_token, RtsProgress::CtsSent(recv_token, corr));
                        drop(inner);
                        self.shared
                            .tracer
                            .emit(self.shared.handle.now(), self.comp(), || {
                                TraceEvent::Matched {
                                    msg: MsgId(corr),
                                    unexpected: false,
                                }
                            });
                        self.send_cts(env.src, sender_token, recv_token, corr);
                    }
                    None => {
                        inner.stats.unexpected += 1;
                        inner
                            .peer(env.src)
                            .rts_seen
                            .insert(sender_token, RtsProgress::Queued);
                        inner.matcher.add_unexpected(Unexpected {
                            env,
                            corr,
                            body: UnexpectedBody::Rndv { sender_token },
                        });
                    }
                }
            }
            ProtoMsg::Cts {
                sender_token,
                recv_token,
            } => {
                let pending = {
                    let mut inner = self.shared.inner.borrow_mut();
                    match inner.send_pending.remove(&sender_token) {
                        Some(p) => p,
                        None => {
                            // The receiver answered a retransmitted RTS
                            // after the original CTS already got through;
                            // the DATA is on its way. Ignore.
                            inner.stats.dup_cts += 1;
                            return;
                        }
                    }
                };
                if let Some(timer) = pending.timer {
                    self.shared.handle.cancel(timer);
                }
                let corr = pending.corr;
                self.shared
                    .tracer
                    .emit(self.shared.handle.now(), self.comp(), || {
                        TraceEvent::DataStart {
                            msg: MsgId(corr),
                            peer: pending.dst.0 as u32,
                            bytes: pending.env.len,
                        }
                    });
                let wire = WireMsg {
                    bytes: pending.env.len,
                    class: DeliveryClass::Direct,
                    expedited: false,
                    payload: Box::new(ProtoMsg::Data {
                        recv_token,
                        env: pending.env,
                        corr,
                        payload: pending.payload,
                    }),
                };
                let me = self.clone();
                let (req, env) = (pending.req, pending.env);
                self.shared.nic.submit(
                    self.node_of(pending.dst),
                    wire,
                    Box::new(move || me.complete_send(req, env, corr)),
                );
            }
            ProtoMsg::Data {
                recv_token,
                env,
                corr,
                payload,
            } => {
                let landing = {
                    let mut inner = self.shared.inner.borrow_mut();
                    let landing = inner
                        .recv_tokens
                        .remove(&recv_token)
                        .expect("DATA for unknown receive token");
                    // The handshake is over; forget its duplicate tracker.
                    inner
                        .peer(landing.src)
                        .rts_seen
                        .remove(&landing.sender_token);
                    landing
                };
                self.complete_recv(landing.req, env, payload, corr);
            }
        }
    }

    // ------------------------------------------------------------------
    // Completion queries (the API layer wraps these with blocking loops)
    // ------------------------------------------------------------------

    /// Charge one `MPI_Test` call, run library progress, and if the request
    /// completed consume it, returning its status (and payload for
    /// receives).
    pub fn test(&self, ctx: &ProcCtx, req: RequestHandle) -> Option<(Status, Option<Payload>)> {
        self.shared.cpu.compute(ctx, self.shared.cfg.test_call);
        self.shared.inner.borrow_mut().stats.tests += 1;
        self.progress(ctx);
        self.try_consume(req)
    }

    /// Charge the cost of one test-family call (testall/testany/iprobe).
    pub(crate) fn charge_test(&self, ctx: &ProcCtx) {
        self.shared.cpu.compute(ctx, self.shared.cfg.test_call);
        self.shared.inner.borrow_mut().stats.tests += 1;
    }

    /// Non-charging completion check + consume (wait loops use this after
    /// they already paid for progress).
    pub(crate) fn try_consume(&self, req: RequestHandle) -> Option<(Status, Option<Payload>)> {
        self.shared.inner.borrow_mut().requests.try_consume(req)
    }

    /// `MPI_Iprobe`: charge one test-call, run library progress, and report
    /// whether a matching message is available (posted-receive matching is
    /// NOT performed — probing is non-destructive).
    pub fn iprobe(&self, ctx: &ProcCtx, src: RankSel, tag: TagSel) -> Option<Envelope> {
        self.shared.cpu.compute(ctx, self.shared.cfg.test_call);
        self.shared.inner.borrow_mut().stats.tests += 1;
        self.progress(ctx);
        self.shared
            .inner
            .borrow_mut()
            .matcher
            .peek_unexpected(src, tag)
    }

    /// True if the request is complete (without consuming it).
    pub fn is_complete(&self, req: RequestHandle) -> bool {
        self.shared.inner.borrow_mut().requests.is_complete(req)
    }

    /// Park the calling process until the completion condition is next
    /// notified (arrival or completion).
    pub(crate) fn park_for_activity(&self, ctx: &ProcCtx) {
        self.shared.completion_cond.wait(ctx);
    }

    /// `MPI_Finalize` analogue: abandon unfinished rendezvous handshakes
    /// by cancelling their armed retry timers. A benchmark process calls
    /// this when it exits. Without it, a retry-armed engine (dropped
    /// control messages under fault injection) whose peer has stopped
    /// making MPI calls would re-arm its RTS timer forever — a
    /// self-perpetuating event stream that keeps the simulation's event
    /// queue from ever draining. Timers are cancelled in token order. The
    /// abandoned sends stay incomplete; nothing waits on them after the
    /// process is gone.
    pub fn finalize(&self) {
        let timers: Vec<EventId> = {
            let mut inner = self.shared.inner.borrow_mut();
            inner
                .send_pending
                .values_mut()
                .filter_map(|p| p.timer.take())
                .collect()
        };
        for t in timers {
            self.shared.handle.cancel(t);
        }
    }
}
