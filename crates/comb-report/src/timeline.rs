//! ASCII timeline of one Post-Work-Wait batch: the worker's phase bar, each
//! message's lifecycle aligned under it, and the interrupt activity that
//! steals host time. The textual counterpart of loading the Chrome trace in
//! a viewer — enough to see *where* a transfer sat relative to the work
//! phase straight from a terminal.

use comb_sim::SimTime;
use comb_trace::{build_spans, AsyncSpan, Comp, MsgId, Span, TraceRecord};

/// Maximum message rows rendered; further messages are summarised.
const MAX_MSG_ROWS: usize = 12;

/// Render the last complete cycle of a traced PWW run as an ASCII timeline
/// roughly `width` characters wide. Returns a note instead when the trace
/// holds no complete post-work-wait cycle.
pub fn render_pww_timeline(records: &[TraceRecord], width: usize) -> String {
    let width = width.clamp(40, 200);
    let set = build_spans(records);

    // The worker is rank 0; its phase frames carry the batch structure.
    let app = Comp::App(0);
    let phases: Vec<&Span> = set
        .frames
        .iter()
        .filter(|s| s.comp == app && s.cat == "phase" && s.phase.is_some())
        .collect();
    let Some(cycle) = phases
        .iter()
        .filter(|s| s.phase == Some(comb_trace::Phase::Wait))
        .map(|s| s.cycle)
        .max()
    else {
        return "timeline: no complete post-work-wait cycle in trace\n".to_string();
    };
    let in_cycle: Vec<&&Span> = phases.iter().filter(|s| s.cycle == cycle).collect();
    // `in_cycle` is non-empty: `cycle` came from a matching phase frame.
    let (Some(w0), Some(w1)) = (
        in_cycle.iter().map(|s| s.start).min(),
        in_cycle.iter().map(|s| s.end).max(),
    ) else {
        return "timeline: no complete post-work-wait cycle in trace\n".to_string();
    };
    let dur = w1.since(w0);
    if dur.is_zero() {
        return "timeline: degenerate (zero-length) cycle\n".to_string();
    }

    let label_w = 10;
    let cols = width - label_w;
    let col = |t: SimTime| -> usize {
        let t = t.clamp(w0, w1);
        ((t.since(w0).as_nanos() as u128 * (cols - 1) as u128) / dur.as_nanos() as u128) as usize
    };
    let mut out = String::new();
    out.push_str(&format!("pww batch, cycle {cycle}: {w0} .. {w1} ({dur})\n"));

    fn row(out: &mut String, label: &str, body: &[char]) {
        out.push_str(&format!("{label:>9} "));
        out.extend(body.iter());
        out.push('\n');
    }

    // Phase bar: post 'P', work '=', wait '.'.
    let mut bar = vec![' '; cols];
    for s in &in_cycle {
        let mark = match s.phase {
            Some(comb_trace::Phase::Post) => 'P',
            Some(comb_trace::Phase::Work) => '=',
            Some(comb_trace::Phase::Wait) => '.',
            _ => '?',
        };
        for c in bar.iter_mut().take(col(s.end) + 1).skip(col(s.start)) {
            *c = mark;
        }
    }
    row(&mut out, "rank0", &bar);

    // One row per message whose lifecycle intersects the window, in
    // correlation-id order (the order the sends were posted).
    let windowed = |a: &&AsyncSpan| a.end > w0 && a.start < w1;
    let mut msgs: Vec<&AsyncSpan> = set
        .asyncs
        .iter()
        .filter(|a| a.cat == "msg")
        .filter(windowed)
        .collect();
    msgs.sort_by_key(|a| a.id);
    let shown = msgs.len().min(MAX_MSG_ROWS);
    for m in &msgs[..shown] {
        let mut line = vec![' '; cols];
        for c in line.iter_mut().take(col(m.end) + 1).skip(col(m.start)) {
            *c = '-';
        }
        // Overlay the rendezvous handshake and the wire transfer windows.
        for (cat, mark) in [("rndv", '~'), ("xfer", '#')] {
            if let Some(sub) = set.asyncs.iter().find(|a| a.cat == cat && a.id == m.id) {
                for c in line
                    .iter_mut()
                    .take(col(sub.end.clamp(w0, w1)) + 1)
                    .skip(col(sub.start.clamp(w0, w1)))
                {
                    *c = mark;
                }
            }
        }
        // Point markers on top: RTS, CTS, match, retry.
        for i in set.instants.iter().filter(|i| i.msg == Some(MsgId(m.id))) {
            if i.time < w0 || i.time > w1 {
                continue;
            }
            let mark = match i.name {
                "rts" => 'R',
                "cts" => 'C',
                "matched" => 'M',
                "retried" => '!',
                _ => continue,
            };
            line[col(i.time)] = mark;
        }
        row(&mut out, &MsgId(m.id).to_string(), &line);
    }
    if msgs.len() > shown {
        out.push_str(&format!(
            "{:>9} (+{} more messages not shown)\n",
            "",
            msgs.len() - shown
        ));
    }

    // Interrupts and NIC stalls anywhere in the cluster, on one row.
    let mut irq = vec![' '; cols];
    let mut irqs = 0u64;
    for i in &set.instants {
        if i.time < w0 || i.time > w1 {
            continue;
        }
        match i.name {
            "interrupt" => {
                irq[col(i.time)] = '!';
                irqs += 1;
            }
            "nic_stall" if irq[col(i.time)] == ' ' => irq[col(i.time)] = 's',
            _ => {}
        }
    }
    row(&mut out, "irq", &irq);
    out.push_str(&format!(
        "legend: P post  = work  . wait  - msg  ~ rndv  # xfer  R rts  C cts  \
         M match  ! irq/retry  s stall   ({} msgs, {} interrupts in window)\n",
        msgs.len(),
        irqs
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use comb_core::{run, MethodConfig, PwwParams, RunSpec, Transport};

    #[test]
    fn timeline_renders_phases_messages_and_legend() {
        let mut cfg = MethodConfig::new(Transport::Gm, 100 * 1024);
        cfg.cycles = 3;
        let spec = RunSpec {
            trace: true,
            ..RunSpec::of(&cfg)
        };
        let traced = run(&PwwParams::new(&cfg, 1_000_000, false), &spec).unwrap();
        let text = render_pww_timeline(&traced.records, 100);
        assert!(text.contains("pww batch"));
        assert!(text.contains("rank0"));
        assert!(text.contains('='), "work phase must be drawn");
        assert!(text.contains('#'), "a transfer window must be drawn");
        assert!(text.contains("legend:"));
        // Deterministic rendering.
        assert_eq!(text, render_pww_timeline(&traced.records, 100));
    }

    #[test]
    fn empty_trace_degrades_gracefully() {
        assert!(render_pww_timeline(&[], 80).contains("no complete"));
    }
}
