//! Flat CSV export — one row per record, for spreadsheet/pandas analysis.

use crate::event::{TraceEvent, TraceRecord};
use std::fmt::Write;

/// Render records (time-sorted) as CSV with a header row.
pub fn csv_export(records: &[TraceRecord]) -> String {
    let mut out = String::from("time_ns,comp,event,msg,bytes,detail\n");
    for r in records {
        let msg = r.event.msg_id().map(|m| m.to_string()).unwrap_or_default();
        let (bytes, detail) = fields(&r.event);
        writeln!(
            out,
            "{},{},{},{},{},{}",
            r.time.as_nanos(),
            r.comp,
            r.event.kind(),
            msg,
            bytes,
            detail
        )
        .expect("write to String cannot fail");
    }
    out
}

/// (bytes column, free-detail column) for one event.
fn fields(e: &TraceEvent) -> (u64, String) {
    match *e {
        TraceEvent::PhaseBegin { phase, cycle } | TraceEvent::PhaseEnd { phase, cycle } => {
            (0, format!("phase={phase} cycle={cycle}"))
        }
        TraceEvent::WorkStart { iters } | TraceEvent::WorkEnd { iters } => {
            (0, format!("iters={iters}"))
        }
        TraceEvent::SendPosted {
            peer, bytes, eager, ..
        } => (bytes, format!("peer={peer} eager={eager}")),
        TraceEvent::RecvPosted => (0, String::new()),
        TraceEvent::Matched { unexpected, .. } => (0, format!("unexpected={unexpected}")),
        TraceEvent::RtsSent { peer, .. } | TraceEvent::CtsSent { peer, .. } => {
            (0, format!("peer={peer}"))
        }
        TraceEvent::Retried { attempt, .. } => (0, format!("attempt={attempt}")),
        TraceEvent::DataStart { peer, bytes, .. } => (bytes, format!("peer={peer}")),
        TraceEvent::DataDone { bytes, .. } => (bytes, String::new()),
        TraceEvent::SendDone { .. } => (0, String::new()),
        TraceEvent::Dropped { bytes } => (bytes, String::new()),
        TraceEvent::DmaStart { bytes, packets } => (bytes, format!("packets={packets}")),
        TraceEvent::DmaDone { bytes } => (bytes, String::new()),
        TraceEvent::Interrupt { cost } => (0, format!("cost={cost}")),
        TraceEvent::NicStall { penalty } => (0, format!("penalty={penalty}")),
        TraceEvent::PacketOnWire {
            src,
            dst,
            bytes,
            first,
            last,
        } => (
            bytes,
            format!("src={src} dst={dst} first={first} last={last}"),
        ),
        TraceEvent::CacheLookup { hit, joined } => (0, format!("hit={hit} joined={joined}")),
        TraceEvent::ReplicateDone { replicate } => (0, format!("replicate={replicate}")),
        TraceEvent::CellSettled {
            replicates,
            converged,
        } => (0, format!("replicates={replicates} converged={converged}")),
        TraceEvent::ServeAdmitted { req } => (0, format!("req={req}")),
        TraceEvent::ServeDone { req, status } => (0, format!("req={req} status={status}")),
        TraceEvent::ServeRejected => (0, String::new()),
        TraceEvent::ServeShed { served } => (0, format!("served={served}")),
        TraceEvent::ServeBreaker { open } => (0, format!("open={open}")),
        TraceEvent::ServeQuarantined { panics } => (0, format!("panics={panics}")),
        TraceEvent::Custom(s) => (0, s.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Comp, MsgId};
    use comb_sim::SimTime;

    #[test]
    fn csv_has_header_and_rows() {
        let t = crate::Tracer::enabled();
        t.emit(SimTime::from_nanos(42), Comp::Mpi(1), || {
            TraceEvent::SendPosted {
                msg: MsgId::new(1, 0),
                peer: 0,
                bytes: 512,
                eager: true,
            }
        });
        let csv = csv_export(&t.records());
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), "time_ns,comp,event,msg,bytes,detail");
        assert_eq!(
            lines.next().unwrap(),
            "42,mpi1,send_posted,r1.0,512,peer=0 eager=true"
        );
    }
}
