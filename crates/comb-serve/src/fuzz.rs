//! Deterministic, structure-aware protocol fuzzing for the serving
//! parsers.
//!
//! The harness drives the two hand-rolled recursive-descent parsers — the
//! JSON value grammar ([`crate::json::Json`]) and the HTTP/1.1 request
//! parser ([`crate::http::read_request`]) — with seeded adversarial input
//! and asserts the serving crash-safety invariants:
//!
//! * **no panic**: every case runs under `catch_unwind`; a panic is a
//!   recorded failure with the exact per-case seed that reproduces it;
//! * **bounded work**: all inputs are generated within hard size and
//!   depth budgets, and the parsers' own limits (`MAX_HEAD`, `MAX_BODY`,
//!   `MAX_DEPTH`) must hold them to termination;
//! * **idempotence**: for structured cases,
//!   `parse → render → reparse → render` must be a fixed point.
//!
//! Case seeds derive from `(harness seed, case index)` via comb-hw's
//! `stream_seed`, so `comb soak --serve` manifests can name the single
//! failing case out of 10k without replaying the run.

use crate::http::{read_request, MemStream, ReadOutcome};
use crate::json::Json;
use comb_hw::fault::{stream_seed, DetRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Stream tag for per-case seed derivation (serving tags start at 16;
/// netfault uses 16–19).
const TAG_FUZZ: u64 = 20;

/// Fuzz harness configuration.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// Root seed; every case seed derives from it.
    pub seed: u64,
    /// Number of cases to run.
    pub iters: u64,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 42,
            iters: 10_000,
        }
    }
}

/// One failing case, with everything needed to replay it.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// Case index within the run.
    pub case: u64,
    /// The derived per-case seed (replays independently of the index).
    pub case_seed: u64,
    /// Which generator produced the input.
    pub kind: &'static str,
    /// What went wrong.
    pub detail: String,
}

/// Outcome of a fuzz run.
#[derive(Debug, Default)]
pub struct FuzzReport {
    /// Cases executed.
    pub cases: u64,
    /// Invariant violations (empty on a green run).
    pub failures: Vec<FuzzFailure>,
}

impl FuzzReport {
    /// True when every case upheld every invariant.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        if self.passed() {
            format!("fuzz: {} cases, all invariants held", self.cases)
        } else {
            let f = &self.failures[0];
            format!(
                "fuzz: {} case(s) FAILED of {} (first: case {} seed {} [{}]: {})",
                self.failures.len(),
                self.cases,
                f.case,
                f.case_seed,
                f.kind,
                f.detail
            )
        }
    }
}

/// Run `cfg.iters` seeded cases across the generator mix. Deterministic:
/// the same config always runs the same inputs in the same order.
pub fn run_fuzz(cfg: FuzzConfig) -> FuzzReport {
    let mut report = FuzzReport::default();
    for case in 0..cfg.iters {
        let case_seed = stream_seed(cfg.seed, case, TAG_FUZZ);
        let mut rng = DetRng::new(case_seed);
        let (kind, result): (&'static str, Result<Result<(), String>, _>) = match case % 4 {
            0 => (
                "json-bytes",
                catch_unwind(AssertUnwindSafe(|| {
                    json_bytes_case(&mut rng);
                    Ok(())
                })),
            ),
            1 => (
                "json-tree",
                catch_unwind(AssertUnwindSafe(|| json_tree_case(&mut rng))),
            ),
            2 => (
                "json-mutated",
                catch_unwind(AssertUnwindSafe(|| {
                    json_mutated_case(&mut rng);
                    Ok(())
                })),
            ),
            _ => (
                "http-stream",
                catch_unwind(AssertUnwindSafe(|| http_stream_case(&mut rng))),
            ),
        };
        report.cases += 1;
        let failure = match result {
            Err(panic) => Some(format!("panicked: {}", panic_text(&*panic))),
            Ok(Err(detail)) => Some(detail),
            Ok(Ok(())) => None,
        };
        if let Some(detail) = failure {
            report.failures.push(FuzzFailure {
                case,
                case_seed,
                kind,
                detail,
            });
        }
    }
    report
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Raw bytes over a JSON-flavored alphabet: mostly structural characters,
/// digits and quotes, so the parser's deep paths are actually reached.
fn json_bytes_case(rng: &mut DetRng) {
    const ALPHABET: &[u8] = br#"{}[]",:0123456789.eE+-truefalsn \u"#;
    let len = (rng.next_u64() % 512) as usize;
    let mut doc = String::with_capacity(len);
    for _ in 0..len {
        let b = ALPHABET[(rng.next_u64() as usize) % ALPHABET.len()];
        doc.push(b as char);
    }
    // Must terminate without panicking; Ok or Err are both fine.
    let _ = Json::parse(&doc);
}

/// A structurally valid document: parse must succeed and
/// render → reparse → render must be a fixed point.
fn json_tree_case(rng: &mut DetRng) -> Result<(), String> {
    let doc = gen_tree(rng, 5).render();
    let v = Json::parse(&doc).map_err(|e| format!("generated doc rejected: {e} ({doc})"))?;
    let r1 = v.render();
    let v2 = Json::parse(&r1).map_err(|e| format!("render not reparseable: {e} ({r1})"))?;
    let r2 = v2.render();
    if r1 != r2 {
        return Err(format!("render not idempotent: {r1} != {r2}"));
    }
    Ok(())
}

/// A valid document with seeded byte mutations: parsing may fail but must
/// not panic, and an accepted mutant must still canonicalize.
fn json_mutated_case(rng: &mut DetRng) {
    let mut doc = gen_tree(rng, 4).render().into_bytes();
    let flips = 1 + (rng.next_u64() % 8) as usize;
    for _ in 0..flips {
        if doc.is_empty() {
            break;
        }
        let i = (rng.next_u64() as usize) % doc.len();
        match rng.next_u64() % 3 {
            0 => doc[i] = (rng.next_u64() & 0xFF) as u8,
            1 => {
                doc.remove(i);
            }
            _ => doc.insert(i, b"{}[],:\"0"[(rng.next_u64() as usize) % 8]),
        }
    }
    if let Ok(text) = String::from_utf8(doc) {
        if let Ok(v) = Json::parse(&text) {
            let r = v.render();
            // An accepted mutant enters the canonical pipeline; it must
            // hold the fixed-point property like any other value.
            assert_eq!(Json::parse(&r).map(|v2| v2.render()), Ok(r));
        }
    }
}

fn gen_tree(rng: &mut DetRng, depth: usize) -> Json {
    let pick = rng.next_u64() % if depth == 0 { 4 } else { 6 };
    match pick {
        0 => Json::Null,
        1 => Json::Bool(rng.next_u64().is_multiple_of(2)),
        2 => {
            // Mix of whole numbers, negatives and fractions, all finite.
            match rng.next_u64() % 3 {
                0 => Json::Num((rng.next_u64() % 1_000_000) as f64),
                1 => Json::Num(-((rng.next_u64() % 1000) as f64)),
                _ => Json::Num(rng.next_f64() * 1e6 - 5e5),
            }
        }
        3 => Json::Str(gen_string(rng)),
        4 => {
            let n = (rng.next_u64() % 4) as usize;
            Json::Arr((0..n).map(|_| gen_tree(rng, depth - 1)).collect())
        }
        _ => {
            let n = (rng.next_u64() % 4) as usize;
            let mut members = Vec::new();
            for i in 0..n {
                // Indexed keys keep generated objects duplicate-free.
                members.push((
                    format!("k{i}_{}", gen_string(rng)),
                    gen_tree(rng, depth - 1),
                ));
            }
            Json::Obj(members)
        }
    }
}

fn gen_string(rng: &mut DetRng) -> String {
    const CHARS: &[char] = &['a', 'Z', '0', ' ', '"', '\\', '\n', '\t', 'é', '∆', '\u{1}'];
    let len = (rng.next_u64() % 8) as usize;
    (0..len)
        .map(|_| CHARS[(rng.next_u64() as usize) % CHARS.len()])
        .collect()
}

/// Adversarial HTTP byte streams through the full request parser via
/// [`MemStream`]: truncations, bad Content-Length, oversized heads,
/// binary garbage. The parser must terminate with *some* outcome.
fn http_stream_case(rng: &mut DetRng) -> Result<(), String> {
    let wire = match rng.next_u64() % 6 {
        0 => {
            // A valid request, possibly truncated mid-stream.
            let body = r#"{"method":"polling","xs":[1000]}"#;
            let full = format!(
                "POST /v1/sweep HTTP/1.1\r\nHost: fuzz\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            let cut = (rng.next_u64() as usize) % (full.len() + 1);
            full.as_bytes()[..cut].to_vec()
        }
        1 => {
            // Content-Length disagrees with the actual body.
            let claimed = rng.next_u64() % 4096;
            format!("POST /x HTTP/1.1\r\nContent-Length: {claimed}\r\n\r\nshort").into_bytes()
        }
        2 => {
            // Oversized head: header lines past MAX_HEAD.
            let mut w = b"GET / HTTP/1.1\r\n".to_vec();
            let line = format!("X-Pad: {}\r\n", "p".repeat(120));
            while w.len() < crate::http::MAX_HEAD + 2048 {
                w.extend_from_slice(line.as_bytes());
            }
            w
        }
        3 => {
            // Binary garbage.
            let len = (rng.next_u64() % 2048) as usize;
            (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect()
        }
        4 => {
            // Valid-looking head with a hostile declared body size.
            format!(
                "POST /v1/sweep HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                u64::MAX
            )
            .into_bytes()
        }
        _ => {
            // Header soup: random names/values with embedded colons.
            let mut w = b"GET /metrics HTTP/1.1\r\n".to_vec();
            let n = rng.next_u64() % 8;
            for _ in 0..n {
                let k = gen_string(rng).replace(['\r', '\n'], "");
                let v = gen_string(rng).replace(['\r', '\n'], "");
                w.extend_from_slice(format!("{k}: {v}\r\n").as_bytes());
            }
            w.extend_from_slice(b"\r\n");
            w
        }
    };
    let mut stream = MemStream::new(wire);
    match read_request(&mut stream) {
        ReadOutcome::Request(req) => {
            // A parsed request's body must respect the declared bound.
            if req.body.len() > crate::http::MAX_BODY {
                return Err(format!("body over MAX_BODY: {}", req.body.len()));
            }
            Ok(())
        }
        ReadOutcome::Closed | ReadOutcome::Malformed(_) | ReadOutcome::TimedOut => Ok(()),
    }
}

/// Depth probe used by tests: a document nested `n` deep.
pub fn nested_doc(n: usize) -> String {
    format!("{}1{}", "[".repeat(n), "]".repeat(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{escape, MAX_DEPTH};

    #[test]
    fn fuzz_smoke_run_is_green_and_deterministic() {
        let cfg = FuzzConfig {
            seed: 7,
            iters: 400,
        };
        let a = run_fuzz(cfg);
        assert!(a.passed(), "{}", a.summary());
        assert_eq!(a.cases, 400);
        let b = run_fuzz(cfg);
        assert_eq!(b.cases, a.cases);
        assert!(b.passed());
    }

    #[test]
    fn depth_probe_is_rejected_within_bounds() {
        assert!(Json::parse(&nested_doc(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested_doc(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn generated_strings_escape_safely() {
        let mut rng = DetRng::new(99);
        for _ in 0..200 {
            let s = gen_string(&mut rng);
            let doc = escape(&s);
            assert_eq!(Json::parse(&doc).unwrap().as_str(), Some(s.as_str()));
        }
    }
}
