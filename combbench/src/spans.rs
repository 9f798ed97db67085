//! Spans the harness records around its calls into the library.
//!
//! A span is a name, a start and end on the harness's monotonic clock, the
//! span that caused it, and (for serve requests) a request id. Spans stay
//! in memory and are written out once, when the traced run ends. Untraced
//! runs pass `None` wherever a recorder is taken, so they record nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: Option<u64>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store shared by every thread of a traced run.
pub struct Spans {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Per-name totals over a span set.
#[derive(Debug)]
pub struct SpanTotals {
    pub count: usize,
    pub total_ns: u64,
    /// Duration minus the part of it that child spans cover.
    pub self_ns: u64,
    /// Every duration of this name, in recording order.
    pub durations_ns: Vec<u64>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }

    fn open(&self, name: &'static str, parent: Option<usize>, req: Option<u64>) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        spans.len() - 1
    }

    fn close(&self, id: usize) {
        let end_ns = self.now_ns();
        self.lock()[id].end_ns = end_ns;
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Count, total time and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let spans = self.snapshot();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let covered = covered_ns(s, children[i].iter().map(|&c| &spans[c]));
            let t = out.entry(s.name).or_insert_with(|| SpanTotals {
                count: 0,
                total_ns: 0,
                self_ns: 0,
                durations_ns: Vec::new(),
            });
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += s.dur_ns() - covered;
            t.durations_ns.push(s.dur_ns());
        }
        out
    }

    /// The span file: one JSON object with the workload name and every
    /// span in recording order (times in ns from the start of the run).
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = format!("{{\"workload\":\"{workload}\",\"spans\":[");
        for (i, s) in self.snapshot().iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = write!(
                out,
                "{}\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.req),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Nanoseconds of `parent` covered by the union of `children`, clipped to
/// the parent's interval (children of one parent may overlap when they
/// run on different threads).
fn covered_ns<'a>(parent: &Span, children: impl Iterator<Item = &'a Span>) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let (mut covered, mut reach) = (0, parent.start_ns);
    for (a, b) in iv {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

/// Run `f` inside a span named `name` when `rec` is recording; `f` gets the
/// new span's id to parent its own spans on. Without a recorder this is a
/// plain call.
pub fn span<T>(
    rec: Option<&Spans>,
    name: &'static str,
    parent: Option<usize>,
    req: Option<u64>,
    f: impl FnOnce(Option<usize>) -> T,
) -> T {
    match rec {
        None => f(None),
        Some(r) => {
            let id = r.open(name, parent, req);
            let out = f(Some(id));
            r.close(id);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let rec = Spans::new();
        *rec.lock() = vec![
            at("root", 0, 100, None),
            at("a", 10, 30, Some(0)),
            at("a", 20, 50, Some(0)),  // overlaps the first child
            at("b", 90, 120, Some(0)), // runs past the parent's end
        ];
        let t = rec.totals();
        assert_eq!(t["root"].self_ns, 100 - 40 - 10);
        assert_eq!(t["a"].count, 2);
        assert_eq!(t["a"].total_ns, 50);
        assert_eq!(t["a"].self_ns, 50);
        assert_eq!(t["b"].durations_ns, vec![30]);
    }

    #[test]
    fn nested_spans_record_their_parent_and_request() {
        let rec = Spans::new();
        span(Some(&rec), "outer", None, Some(7), |outer| {
            span(Some(&rec), "inner", outer, Some(7), |_| ());
        });
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].req, Some(7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let json = rec.to_json("w");
        assert!(json.contains("\"name\":\"inner\"") && json.contains("\"parent\":0"));
        assert_eq!(span(None, "off", None, None, |id| id), None);
    }
}
