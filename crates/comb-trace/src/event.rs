//! The typed event taxonomy.
//!
//! Every record carries a virtual timestamp, the emitting component
//! ([`Comp`]) and one [`TraceEvent`]. Message-lifecycle events additionally
//! carry a correlation id ([`MsgId`]) allocated by the sender at `isend`
//! time and threaded through the wire protocol, so the RTS→CTS→DATA leg of
//! a single message can be stitched back together across ranks.

use comb_sim::{SimDuration, SimTime};
use std::fmt;

/// Correlation id for one point-to-point message.
///
/// Allocated by the sending engine as `(rank << 40) | counter`, so ids are
/// globally unique without coordination and print as `r<rank>.<n>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgId(pub u64);

impl MsgId {
    /// Bits reserved for the per-rank counter.
    const COUNTER_BITS: u32 = 40;

    /// Build an id from the sender's rank and its message counter.
    pub fn new(rank: u32, counter: u64) -> Self {
        debug_assert!(counter < (1 << Self::COUNTER_BITS));
        MsgId(((rank as u64) << Self::COUNTER_BITS) | counter)
    }

    /// The sending rank encoded in the id.
    pub fn rank(self) -> u32 {
        (self.0 >> Self::COUNTER_BITS) as u32
    }

    /// The sender-local message counter encoded in the id.
    pub fn counter(self) -> u64 {
        self.0 & ((1 << Self::COUNTER_BITS) - 1)
    }
}

impl fmt::Display for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}.{}", self.rank(), self.counter())
    }
}

/// Benchmark phase names (paper Section 2: PWW decomposes each cycle into
/// post/work/wait; the polling method runs fixed poll intervals).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Non-blocking sends/receives being posted (PWW).
    Post,
    /// The calibrated computation chunk (PWW).
    Work,
    /// Blocking completion of the posted batch (PWW).
    Wait,
    /// One poll interval of the polling method (compute + test sweep).
    PollInterval,
    /// The uninstrumented dry run that calibrates `work_only`.
    DryRun,
}

impl Phase {
    /// Short lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Post => "post",
            Phase::Work => "work",
            Phase::Wait => "wait",
            Phase::PollInterval => "poll",
            Phase::DryRun => "dry",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The component an event was emitted from. The numeric payload is the
/// rank (for software components) or node id (for hardware components).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Comp {
    /// Benchmark/application code on a rank.
    App(u32),
    /// The MPI engine of a rank.
    Mpi(u32),
    /// The NIC of a node.
    Nic(u32),
    /// The host CPU of a node.
    Cpu(u32),
    /// The switch fabric (no per-node identity).
    Fabric,
    /// The sweep-cell result cache (process-wide, outside any simulation;
    /// timestamps are wall-clock offsets from campaign start).
    Cache,
    /// The adaptive replicate scheduler (process-wide, outside any
    /// simulation; timestamps are wall-clock offsets from campaign start).
    Adaptive,
    /// The `comb serve` HTTP front end (process-wide, outside any
    /// simulation; timestamps are wall-clock offsets from server start).
    Serve,
}

impl Comp {
    /// Chrome-trace process id: software/hardware of node `n` share pid `n`,
    /// the fabric gets its own process.
    pub fn pid(self) -> u32 {
        match self {
            Comp::App(r) | Comp::Mpi(r) | Comp::Nic(r) | Comp::Cpu(r) => r,
            Comp::Fabric => FABRIC_PID,
            Comp::Cache => CACHE_PID,
            Comp::Adaptive => ADAPTIVE_PID,
            Comp::Serve => SERVE_PID,
        }
    }

    /// Chrome-trace thread id within the pid: one lane per component kind.
    pub fn tid(self) -> u32 {
        match self {
            Comp::App(_) => 0,
            Comp::Mpi(_) => 1,
            Comp::Nic(_) => 2,
            Comp::Cpu(_) => 3,
            Comp::Fabric => 0,
            Comp::Cache => 0,
            Comp::Adaptive => 0,
            Comp::Serve => 0,
        }
    }

    /// Lane name shown in trace viewers.
    pub fn lane_name(self) -> &'static str {
        match self {
            Comp::App(_) => "app",
            Comp::Mpi(_) => "mpi",
            Comp::Nic(_) => "nic",
            Comp::Cpu(_) => "cpu",
            Comp::Fabric => "fabric",
            Comp::Cache => "cache",
            Comp::Adaptive => "adaptive",
            Comp::Serve => "serve",
        }
    }
}

/// Synthetic pid used for the fabric lane in exports.
pub const FABRIC_PID: u32 = 999;

/// Synthetic pid used for the sweep-cell cache lane in exports.
pub const CACHE_PID: u32 = 998;

/// Synthetic pid used for the adaptive replicate scheduler lane in exports.
pub const ADAPTIVE_PID: u32 = 997;

/// Synthetic pid used for the `comb serve` request lane in exports.
pub const SERVE_PID: u32 = 996;

impl fmt::Display for Comp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Comp::Fabric => f.write_str("fabric"),
            Comp::Cache => f.write_str("cache"),
            Comp::Adaptive => f.write_str("adaptive"),
            Comp::Serve => f.write_str("serve"),
            c => write!(f, "{}{}", c.lane_name(), c.pid()),
        }
    }
}

/// One typed trace event.
///
/// Begin/end pairs (`PhaseBegin`/`PhaseEnd`, `WorkStart`/`WorkEnd`, and the
/// message-lifecycle legs) are reconstructed into spans by
/// [`crate::span::build_spans`]; the pairing rules are documented in
/// DESIGN.md §7.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    // -- benchmark phase boundaries ------------------------------------
    /// A benchmark phase opens (cycle-numbered so spans pair exactly).
    PhaseBegin {
        /// Which phase.
        phase: Phase,
        /// Cycle (PWW batch) or poll-interval index.
        cycle: u64,
    },
    /// The matching phase close.
    PhaseEnd {
        /// Which phase.
        phase: Phase,
        /// Cycle (PWW batch) or poll-interval index.
        cycle: u64,
    },
    /// A calibrated CPU work chunk starts.
    WorkStart {
        /// Loop iterations in this chunk.
        iters: u64,
    },
    /// The matching work-chunk end.
    WorkEnd {
        /// Loop iterations in this chunk.
        iters: u64,
    },

    // -- message lifecycle ---------------------------------------------
    /// `isend` posted a message.
    SendPosted {
        /// Correlation id.
        msg: MsgId,
        /// Destination rank.
        peer: u32,
        /// Payload bytes.
        bytes: u64,
        /// Whether the eager protocol was chosen.
        eager: bool,
    },
    /// `irecv` posted a receive slot.
    RecvPosted,
    /// An arrival matched a posted receive (`unexpected: false`) or a
    /// posted receive matched the unexpected queue (`unexpected: true`).
    Matched {
        /// Correlation id of the matched message.
        msg: MsgId,
        /// True when the message arrived before the receive was posted.
        unexpected: bool,
    },
    /// The sender put an RTS on the wire (first attempt and retries).
    RtsSent {
        /// Correlation id.
        msg: MsgId,
        /// Destination rank.
        peer: u32,
    },
    /// The rendezvous retry timer fired and the RTS was re-sent.
    Retried {
        /// Correlation id.
        msg: MsgId,
        /// Retry attempt number (1 = first retry).
        attempt: u32,
    },
    /// The receiver granted the rendezvous with a CTS.
    CtsSent {
        /// Correlation id.
        msg: MsgId,
        /// The sender rank being granted.
        peer: u32,
    },
    /// Payload transfer started (eager submit, or DATA after CTS).
    DataStart {
        /// Correlation id.
        msg: MsgId,
        /// Destination rank.
        peer: u32,
        /// Payload bytes.
        bytes: u64,
    },
    /// Payload landed and the receive completed.
    DataDone {
        /// Correlation id.
        msg: MsgId,
        /// Payload bytes received.
        bytes: u64,
    },
    /// The send request completed locally (last byte handed to the NIC).
    SendDone {
        /// Correlation id.
        msg: MsgId,
    },
    /// A message was dropped (expedited control message under `dropctl`).
    Dropped {
        /// Bytes of the dropped message.
        bytes: u64,
    },

    // -- NIC / hardware --------------------------------------------------
    /// The NIC began DMA of a submitted message.
    DmaStart {
        /// Total wire bytes.
        bytes: u64,
        /// Number of packets the message was segmented into.
        packets: u64,
    },
    /// The NIC finished transmitting a submitted message.
    DmaDone {
        /// Total wire bytes.
        bytes: u64,
    },
    /// A per-packet interrupt fired on the host (kernel NIC).
    Interrupt {
        /// Host time consumed by the ISR.
        cost: SimDuration,
    },
    /// The NIC stalled a transmission (fault-injected delay or loss
    /// recovery folded into the reliability sublayer).
    NicStall {
        /// Length of the stall.
        penalty: SimDuration,
    },
    /// A packet departed the switch towards its destination.
    PacketOnWire {
        /// Source node.
        src: u32,
        /// Destination node.
        dst: u32,
        /// Packet bytes.
        bytes: u64,
        /// First packet of its message.
        first: bool,
        /// Last packet of its message.
        last: bool,
    },

    // -- sweep-cell cache ------------------------------------------------
    /// The sweep-cell result cache resolved one cell request.
    CacheLookup {
        /// The cell's result came from the cache (memory or disk tier)
        /// rather than a fresh simulation.
        hit: bool,
        /// The request joined an identical in-flight computation
        /// (single-flight dedup) instead of computing or reading itself.
        joined: bool,
    },

    // -- adaptive replicate scheduler -------------------------------------
    /// One replicate of a sweep cell finished and was folded into the
    /// cell's running estimate.
    ReplicateDone {
        /// Replicate index within its cell (0 = the unperturbed run).
        replicate: u32,
    },
    /// The stopping rule settled a cell: no more replicates will run.
    CellSettled {
        /// Replicates accumulated when the cell settled.
        replicates: u32,
        /// True when the CI target was met before the replicate cap.
        converged: bool,
    },

    // -- serving front end -------------------------------------------------
    /// `comb serve` admitted one HTTP request. `req` is the request-scoped
    /// correlation id (monotone per server, echoed back in the
    /// `X-Comb-Request` response header and reused as the job id for
    /// campaign requests).
    ServeAdmitted {
        /// Request-scoped correlation id.
        req: u64,
    },
    /// `comb serve` finished one HTTP request.
    ServeDone {
        /// Request-scoped correlation id.
        req: u64,
        /// HTTP status code of the response.
        status: u16,
    },
    /// `comb serve` rejected a connection at admission (queue full):
    /// the client saw `429` with a `Retry-After` header.
    ServeRejected,
    /// A saturated server routed one connection through the shed lane:
    /// `served` is true when the priority policy answered it (health,
    /// metrics, or an all-cached sweep) and false when it was shed with
    /// a derived `Retry-After`.
    ServeShed {
        /// True when the shed lane answered the request instead of
        /// rejecting it.
        served: bool,
    },
    /// The worker-panic circuit breaker changed state: `open` is true
    /// on a trip (campaigns now rejected with 503) and false when a
    /// half-open probe closed it again.
    ServeBreaker {
        /// True = tripped open, false = recovered closed.
        open: bool,
    },
    /// A poison cell crossed the panic threshold and was quarantined:
    /// further requests for it get a structured error, never a recompute.
    ServeQuarantined {
        /// Panics observed for the cell when it was quarantined.
        panics: u32,
    },

    // -- escape hatch ---------------------------------------------------
    /// Free-form marker for ad-hoc debugging; static so the off-path stays
    /// allocation-free.
    Custom(&'static str),
}

impl TraceEvent {
    /// The correlation id, for message-lifecycle events.
    pub fn msg_id(&self) -> Option<MsgId> {
        match *self {
            TraceEvent::SendPosted { msg, .. }
            | TraceEvent::Matched { msg, .. }
            | TraceEvent::RtsSent { msg, .. }
            | TraceEvent::Retried { msg, .. }
            | TraceEvent::CtsSent { msg, .. }
            | TraceEvent::DataStart { msg, .. }
            | TraceEvent::DataDone { msg, .. }
            | TraceEvent::SendDone { msg } => Some(msg),
            _ => None,
        }
    }

    /// Short kind name used in CSV exports and instant-event labels.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::PhaseBegin { .. } => "phase_begin",
            TraceEvent::PhaseEnd { .. } => "phase_end",
            TraceEvent::WorkStart { .. } => "work_start",
            TraceEvent::WorkEnd { .. } => "work_end",
            TraceEvent::SendPosted { .. } => "send_posted",
            TraceEvent::RecvPosted => "recv_posted",
            TraceEvent::Matched { .. } => "matched",
            TraceEvent::RtsSent { .. } => "rts_sent",
            TraceEvent::Retried { .. } => "retried",
            TraceEvent::CtsSent { .. } => "cts_sent",
            TraceEvent::DataStart { .. } => "data_start",
            TraceEvent::DataDone { .. } => "data_done",
            TraceEvent::SendDone { .. } => "send_done",
            TraceEvent::Dropped { .. } => "dropped",
            TraceEvent::DmaStart { .. } => "dma_start",
            TraceEvent::DmaDone { .. } => "dma_done",
            TraceEvent::Interrupt { .. } => "interrupt",
            TraceEvent::NicStall { .. } => "nic_stall",
            TraceEvent::PacketOnWire { .. } => "packet",
            TraceEvent::CacheLookup { hit, joined } => match (joined, hit) {
                (true, _) => "cache_join",
                (false, true) => "cache_hit",
                (false, false) => "cache_miss",
            },
            TraceEvent::ReplicateDone { .. } => "replicate_done",
            TraceEvent::CellSettled { .. } => "cell_settled",
            TraceEvent::ServeAdmitted { .. } => "serve_admitted",
            TraceEvent::ServeDone { .. } => "serve_done",
            TraceEvent::ServeRejected => "serve_rejected",
            TraceEvent::ServeShed { .. } => "serve_shed",
            TraceEvent::ServeBreaker { .. } => "serve_breaker",
            TraceEvent::ServeQuarantined { .. } => "serve_quarantined",
            TraceEvent::Custom(_) => "custom",
        }
    }
}

/// One recorded event: virtual time + component + typed payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Virtual timestamp.
    pub time: SimTime,
    /// Emitting component.
    pub comp: Comp,
    /// The event.
    pub event: TraceEvent,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msg_id_round_trips_rank_and_counter() {
        let id = MsgId::new(3, 12345);
        assert_eq!(id.rank(), 3);
        assert_eq!(id.counter(), 12345);
        assert_eq!(id.to_string(), "r3.12345");
    }

    #[test]
    fn comp_lanes_are_stable() {
        assert_eq!(Comp::App(0).tid(), 0);
        assert_eq!(Comp::Mpi(1).tid(), 1);
        assert_eq!(Comp::Nic(1).pid(), 1);
        assert_eq!(Comp::Fabric.pid(), FABRIC_PID);
        assert_eq!(Comp::Mpi(2).to_string(), "mpi2");
    }
}
