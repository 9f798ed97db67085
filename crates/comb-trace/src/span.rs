//! Span reconstruction: pairs begin/end events into intervals.
//!
//! Three span flavours come out of a record stream (pairing rules are
//! documented in DESIGN.md §7):
//!
//! * **Frames** — properly nested intervals on one component lane
//!   (benchmark phases, CPU work chunks). These become Chrome `"X"`
//!   complete events and must pass [`check_well_nested`].
//! * **Async spans** — intervals that may overlap freely (message
//!   lifecycles, NIC DMA windows). These become Chrome `"b"`/`"e"` async
//!   pairs keyed by correlation id.
//! * **Instants** — point events (interrupts, retries, packet departures).

use crate::event::{Comp, MsgId, Phase, TraceEvent, TraceRecord};
use comb_sim::SimTime;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// A properly nested interval on one lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Display name (e.g. `post`, `work 400000`).
    pub name: String,
    /// Category tag for trace viewers.
    pub cat: &'static str,
    /// Emitting component (fixes the pid/tid lane).
    pub comp: Comp,
    /// Interval start.
    pub start: SimTime,
    /// Interval end.
    pub end: SimTime,
    /// Cycle index for phase spans (0 otherwise).
    pub cycle: u64,
    /// The phase, for phase spans.
    pub phase: Option<Phase>,
}

/// An interval that may overlap others on the same lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsyncSpan {
    /// Display name (e.g. `msg r0.5`).
    pub name: String,
    /// Category tag (`msg`, `rndv`, `xfer`, `dma`).
    pub cat: &'static str,
    /// Correlation id tying the begin/end pair together.
    pub id: u64,
    /// Component the span is anchored to.
    pub comp: Comp,
    /// Interval start.
    pub start: SimTime,
    /// Interval end.
    pub end: SimTime,
    /// Payload bytes moved in this span (0 when not applicable).
    pub bytes: u64,
}

/// A point event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstantEvent {
    /// Display name (the event kind).
    pub name: &'static str,
    /// Emitting component.
    pub comp: Comp,
    /// Timestamp.
    pub time: SimTime,
    /// Correlation id when the event belongs to a message.
    pub msg: Option<MsgId>,
}

/// Everything reconstructed from one record stream.
#[derive(Debug, Clone, Default)]
pub struct SpanSet {
    /// Nested frames (phases, work chunks).
    pub frames: Vec<Span>,
    /// Overlappable spans (messages, DMA).
    pub asyncs: Vec<AsyncSpan>,
    /// Point events.
    pub instants: Vec<InstantEvent>,
}

impl Default for Span {
    fn default() -> Self {
        Span {
            name: String::new(),
            cat: "",
            comp: Comp::Fabric,
            start: SimTime::ZERO,
            end: SimTime::ZERO,
            cycle: 0,
            phase: None,
        }
    }
}

#[derive(Default)]
struct MsgTrack {
    send_posted: Option<SimTime>,
    first_rts: Option<SimTime>,
    data_start: Option<SimTime>,
    data_done: Option<SimTime>,
    bytes: u64,
    sender: Option<Comp>,
}

/// Reconstruct spans from a time-sorted record stream (as returned by
/// [`crate::Tracer::records`]). Unpaired begins (e.g. a phase still open
/// when the simulation ended) are dropped.
pub fn build_spans(records: &[TraceRecord]) -> SpanSet {
    let mut set = SpanSet::default();
    let mut phase_stack: HashMap<Comp, Vec<(Phase, u64, SimTime)>> = HashMap::new();
    let mut work_stack: HashMap<Comp, Vec<(u64, SimTime)>> = HashMap::new();
    let mut dma_open: HashMap<Comp, VecDeque<(u64, SimTime, u64)>> = HashMap::new();
    let mut dma_seq: u64 = 0;
    let mut msgs: BTreeMap<MsgId, MsgTrack> = BTreeMap::new();

    for r in records {
        match r.event {
            TraceEvent::PhaseBegin { phase, cycle } => {
                phase_stack
                    .entry(r.comp)
                    .or_default()
                    .push((phase, cycle, r.time));
            }
            TraceEvent::PhaseEnd { phase, cycle } => {
                let stack = phase_stack.entry(r.comp).or_default();
                if let Some(pos) = stack
                    .iter()
                    .rposition(|&(p, c, _)| p == phase && c == cycle)
                {
                    let (_, _, start) = stack.remove(pos);
                    set.frames.push(Span {
                        name: phase.name().to_string(),
                        cat: "phase",
                        comp: r.comp,
                        start,
                        end: r.time,
                        cycle,
                        phase: Some(phase),
                    });
                }
            }
            TraceEvent::WorkStart { iters } => {
                work_stack.entry(r.comp).or_default().push((iters, r.time));
            }
            TraceEvent::WorkEnd { iters } => {
                let stack = work_stack.entry(r.comp).or_default();
                if let Some(pos) = stack.iter().rposition(|&(i, _)| i == iters) {
                    let (_, start) = stack.remove(pos);
                    set.frames.push(Span {
                        name: format!("chunk {iters}"),
                        cat: "work",
                        comp: r.comp,
                        start,
                        end: r.time,
                        cycle: 0,
                        phase: None,
                    });
                }
            }
            TraceEvent::DmaStart { bytes, .. } => {
                dma_open
                    .entry(r.comp)
                    .or_default()
                    .push_back((dma_seq, r.time, bytes));
                dma_seq += 1;
            }
            TraceEvent::DmaDone { .. } => {
                // The link is FIFO per NIC, so DMAs complete in submit order.
                if let Some((id, start, bytes)) = dma_open.entry(r.comp).or_default().pop_front() {
                    set.asyncs.push(AsyncSpan {
                        name: format!("dma {bytes}B"),
                        cat: "dma",
                        id,
                        comp: r.comp,
                        start,
                        end: r.time,
                        bytes,
                    });
                }
            }
            TraceEvent::SendPosted { msg, bytes, .. } => {
                let t = msgs.entry(msg).or_default();
                t.send_posted = Some(r.time);
                t.bytes = bytes;
                t.sender = Some(r.comp);
            }
            TraceEvent::RtsSent { msg, .. } => {
                let t = msgs.entry(msg).or_default();
                t.first_rts.get_or_insert(r.time);
                set.instants.push(InstantEvent {
                    name: "rts",
                    comp: r.comp,
                    time: r.time,
                    msg: Some(msg),
                });
            }
            TraceEvent::DataStart { msg, bytes, .. } => {
                let t = msgs.entry(msg).or_default();
                t.data_start.get_or_insert(r.time);
                if t.bytes == 0 {
                    t.bytes = bytes;
                }
            }
            TraceEvent::DataDone { msg, bytes } => {
                let t = msgs.entry(msg).or_default();
                t.data_done = Some(r.time);
                if t.bytes == 0 {
                    t.bytes = bytes;
                }
            }
            TraceEvent::SendDone { .. } | TraceEvent::RecvPosted => {}
            TraceEvent::Matched { msg, .. } => set.instants.push(InstantEvent {
                name: "matched",
                comp: r.comp,
                time: r.time,
                msg: Some(msg),
            }),
            TraceEvent::Retried { msg, .. } => set.instants.push(InstantEvent {
                name: "retried",
                comp: r.comp,
                time: r.time,
                msg: Some(msg),
            }),
            TraceEvent::CtsSent { msg, .. } => set.instants.push(InstantEvent {
                name: "cts",
                comp: r.comp,
                time: r.time,
                msg: Some(msg),
            }),
            TraceEvent::Dropped { .. } => set.instants.push(InstantEvent {
                name: "dropped",
                comp: r.comp,
                time: r.time,
                msg: None,
            }),
            TraceEvent::Interrupt { .. } => set.instants.push(InstantEvent {
                name: "interrupt",
                comp: r.comp,
                time: r.time,
                msg: None,
            }),
            TraceEvent::NicStall { .. } => set.instants.push(InstantEvent {
                name: "nic_stall",
                comp: r.comp,
                time: r.time,
                msg: None,
            }),
            TraceEvent::PacketOnWire { .. } => set.instants.push(InstantEvent {
                name: "packet",
                comp: r.comp,
                time: r.time,
                msg: None,
            }),
            TraceEvent::CacheLookup { .. }
            | TraceEvent::ReplicateDone { .. }
            | TraceEvent::CellSettled { .. }
            | TraceEvent::ServeAdmitted { .. }
            | TraceEvent::ServeDone { .. }
            | TraceEvent::ServeRejected
            | TraceEvent::ServeShed { .. }
            | TraceEvent::ServeBreaker { .. }
            | TraceEvent::ServeQuarantined { .. } => set.instants.push(InstantEvent {
                name: r.event.kind(),
                comp: r.comp,
                time: r.time,
                msg: None,
            }),
            TraceEvent::Custom(name) => set.instants.push(InstantEvent {
                name,
                comp: r.comp,
                time: r.time,
                msg: None,
            }),
        }
    }

    // Message lifecycle async spans, in correlation-id order.
    for (id, t) in &msgs {
        let comp = t.sender.unwrap_or(Comp::Mpi(id.rank()));
        if let (Some(start), Some(end)) = (t.send_posted, t.data_done) {
            set.asyncs.push(AsyncSpan {
                name: format!("msg {id}"),
                cat: "msg",
                id: id.0,
                comp,
                start,
                end,
                bytes: t.bytes,
            });
        }
        if let (Some(start), Some(end)) = (t.first_rts, t.data_start) {
            set.asyncs.push(AsyncSpan {
                name: format!("rndv {id}"),
                cat: "rndv",
                id: id.0,
                comp,
                start,
                end,
                bytes: 0,
            });
        }
        if let (Some(start), Some(end)) = (t.data_start, t.data_done) {
            set.asyncs.push(AsyncSpan {
                name: format!("xfer {id}"),
                cat: "xfer",
                id: id.0,
                comp,
                start,
                end,
                bytes: t.bytes,
            });
        }
    }
    set
}

/// Check that frames on each (pid, tid) lane are properly nested: any two
/// either disjoint or one containing the other. Returns the first
/// violation as an error string.
pub fn check_well_nested(frames: &[Span]) -> Result<(), String> {
    let mut lanes: BTreeMap<(u32, u32), Vec<&Span>> = BTreeMap::new();
    for s in frames {
        lanes
            .entry((s.comp.pid(), s.comp.tid()))
            .or_default()
            .push(s);
    }
    for ((pid, tid), mut spans) in lanes {
        spans.sort_by(|a, b| a.start.cmp(&b.start).then(b.end.cmp(&a.end)));
        let mut stack: Vec<&Span> = Vec::new();
        for s in spans {
            while let Some(top) = stack.last() {
                if top.end <= s.start {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(top) = stack.last() {
                if s.end > top.end {
                    return Err(format!(
                        "lane pid={pid} tid={tid}: span '{}' [{}..{}] overlaps \
                         '{}' [{}..{}] without nesting",
                        s.name, s.start, s.end, top.name, top.start, top.end
                    ));
                }
            }
            stack.push(s);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tracer;

    fn rec(ns: u64, comp: Comp, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            time: SimTime::from_nanos(ns),
            comp,
            event,
        }
    }

    #[test]
    fn phase_pairs_become_frames() {
        let app = Comp::App(0);
        let records = vec![
            rec(
                10,
                app,
                TraceEvent::PhaseBegin {
                    phase: Phase::Post,
                    cycle: 0,
                },
            ),
            rec(
                20,
                app,
                TraceEvent::PhaseEnd {
                    phase: Phase::Post,
                    cycle: 0,
                },
            ),
            rec(
                20,
                app,
                TraceEvent::PhaseBegin {
                    phase: Phase::Work,
                    cycle: 0,
                },
            ),
            rec(25, app, TraceEvent::WorkStart { iters: 100 }),
            rec(75, app, TraceEvent::WorkEnd { iters: 100 }),
            rec(
                80,
                app,
                TraceEvent::PhaseEnd {
                    phase: Phase::Work,
                    cycle: 0,
                },
            ),
        ];
        let set = build_spans(&records);
        assert_eq!(set.frames.len(), 3);
        assert!(check_well_nested(&set.frames).is_ok());
        let work = set
            .frames
            .iter()
            .find(|s| s.phase == Some(Phase::Work))
            .unwrap();
        assert_eq!(work.start, SimTime::from_nanos(20));
        assert_eq!(work.end, SimTime::from_nanos(80));
    }

    #[test]
    fn message_lifecycle_becomes_async_spans() {
        let id = MsgId::new(0, 1);
        let records = vec![
            rec(
                0,
                Comp::Mpi(0),
                TraceEvent::SendPosted {
                    msg: id,
                    peer: 1,
                    bytes: 4096,
                    eager: false,
                },
            ),
            rec(1, Comp::Mpi(0), TraceEvent::RtsSent { msg: id, peer: 1 }),
            rec(5, Comp::Mpi(1), TraceEvent::CtsSent { msg: id, peer: 0 }),
            rec(
                9,
                Comp::Mpi(0),
                TraceEvent::DataStart {
                    msg: id,
                    peer: 1,
                    bytes: 4096,
                },
            ),
            rec(
                30,
                Comp::Mpi(1),
                TraceEvent::DataDone {
                    msg: id,
                    bytes: 4096,
                },
            ),
        ];
        let set = build_spans(&records);
        let cats: Vec<&str> = set.asyncs.iter().map(|a| a.cat).collect();
        assert_eq!(cats, vec!["msg", "rndv", "xfer"]);
        let msg = &set.asyncs[0];
        assert_eq!(msg.start, SimTime::from_nanos(0));
        assert_eq!(msg.end, SimTime::from_nanos(30));
        assert_eq!(msg.bytes, 4096);
    }

    #[test]
    fn overlapping_frames_fail_the_nesting_check() {
        let app = Comp::App(0);
        let frames = vec![
            Span {
                name: "a".into(),
                cat: "phase",
                comp: app,
                start: SimTime::from_nanos(0),
                end: SimTime::from_nanos(10),
                ..Span::default()
            },
            Span {
                name: "b".into(),
                cat: "phase",
                comp: app,
                start: SimTime::from_nanos(5),
                end: SimTime::from_nanos(15),
                ..Span::default()
            },
        ];
        assert!(check_well_nested(&frames).is_err());
    }

    #[test]
    fn unpaired_begin_is_dropped() {
        let t = Tracer::enabled();
        t.emit(SimTime::from_nanos(1), Comp::App(0), || {
            TraceEvent::PhaseBegin {
                phase: Phase::Wait,
                cycle: 3,
            }
        });
        let set = build_spans(&t.records());
        assert!(set.frames.is_empty());
    }
}
