//! Property-based tests of the serving protocol surface: the JSON
//! parser's total-function contract (no panic, bounded recursion, canon
//! round-trip) and the HTTP request reader's bounded-memory contract —
//! the shrinking-free complement to the seeded fuzz harness in
//! `comb_serve::fuzz`. The vendored proptest generates plain values;
//! structured inputs are built in the test bodies (the workspace idiom).

use comb_hw::fault::DetRng;
use comb_serve::http::{
    read_request, MemStream, ReadLimits, ReadOutcome, RequestReader, MAX_BODY, MAX_HEAD,
};
use comb_serve::json::{Json, MAX_DEPTH};
use comb_serve::{FaultedStream, NetFaultCounters, NetFaultPlan};
use proptest::prelude::*;
use std::sync::Arc;

/// Build a random JSON tree from a deterministic generator. Keys are
/// made unique per object (the parser rejects duplicates by design) and
/// numbers are kept to exact-integer territory so rendering is stable.
fn gen_tree(rng: &mut DetRng, depth: u32) -> Json {
    let pick = if depth == 0 {
        rng.next_u64() % 4
    } else {
        rng.next_u64() % 6
    };
    match pick {
        0 => Json::Null,
        1 => Json::Bool(rng.next_u64() & 1 == 1),
        2 => {
            let n = (rng.next_u64() % 2_000_003) as i64 - 1_000_001;
            Json::Num(n as f64)
        }
        3 => Json::Str(gen_string(rng)),
        4 => {
            let len = rng.next_u64() % 5;
            Json::Arr((0..len).map(|_| gen_tree(rng, depth - 1)).collect())
        }
        _ => {
            let len = rng.next_u64() % 5;
            Json::Obj(
                (0..len)
                    .map(|i| {
                        (
                            format!("k{i}_{}", gen_string(rng)),
                            gen_tree(rng, depth - 1),
                        )
                    })
                    .collect(),
            )
        }
    }
}

fn gen_string(rng: &mut DetRng) -> String {
    const ALPHABET: &[char] = &[
        'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\u{1}', 'é', '∆', '🦀',
    ];
    let len = rng.next_u64() % 8;
    (0..len)
        .map(|_| ALPHABET[(rng.next_u64() as usize) % ALPHABET.len()])
        .collect()
}

/// One generated request: its wire bytes and the `(method, path,
/// headers, body)` the reader must return for them.
type Expected = (String, String, Vec<(String, String)>, Vec<u8>);

/// A well-formed request with lowercase header names, trimmed values and
/// an arbitrary-byte body framed by `Content-Length` (omitted at random
/// when the body is empty).
fn gen_request(rng: &mut DetRng) -> (Vec<u8>, Expected) {
    const METHODS: &[&str] = &["GET", "POST", "PUT", "DELETE"];
    let method = METHODS[(rng.next_u64() as usize) % METHODS.len()].to_string();
    let path = format!("/p{}/q?x={}", rng.next_u64() % 100, rng.next_u64() % 1000);
    let mut headers: Vec<(String, String)> = (0..rng.next_u64() % 4)
        .map(|i| (format!("x-h{i}"), format!("v{}", rng.next_u64() % 10_000)))
        .collect();
    let body: Vec<u8> = (0..rng.next_u64() % 64)
        .map(|_| rng.next_u64() as u8)
        .collect();
    if !body.is_empty() || rng.next_u64() & 1 == 1 {
        headers.push(("content-length".to_string(), body.len().to_string()));
    }
    let mut wire = format!("{method} {path} HTTP/1.1\r\n").into_bytes();
    for (k, v) in &headers {
        wire.extend_from_slice(format!("{k}: {v}\r\n").as_bytes());
    }
    wire.extend_from_slice(b"\r\n");
    wire.extend_from_slice(&body);
    (wire, (method, path, headers, body))
}

proptest! {
    /// Parsing arbitrary bytes is a total function: Ok or Err, never a
    /// panic, never unbounded recursion.
    #[test]
    fn parse_is_total_on_arbitrary_input(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let input = String::from_utf8_lossy(&bytes);
        let _ = Json::parse(&input);
    }

    /// Bracket-heavy garbage stays within the recursion bound instead of
    /// overflowing the stack, with the documented error past MAX_DEPTH.
    #[test]
    fn parse_survives_bracket_storms(depth in 1usize..4096, curly in any::<bool>()) {
        let doc = if curly { "{\"k\":".repeat(depth) } else { "[".repeat(depth) };
        let r = Json::parse(&doc);
        prop_assert!(r.is_err(), "unterminated doc must not parse");
        if depth > MAX_DEPTH {
            let msg = r.unwrap_err();
            prop_assert!(msg.contains("nesting deeper than"), "depth {depth}: {msg}");
        }
    }

    /// render → parse → render is the identity on valid documents.
    #[test]
    fn render_parse_round_trip(seed in any::<u64>()) {
        let mut rng = DetRng::new(seed);
        let tree = gen_tree(&mut rng, 4);
        let once = tree.render();
        let back = Json::parse(&once).unwrap_or_else(|e| panic!("reparse of {once:?}: {e}"));
        prop_assert_eq!(back.render(), once);
    }

    /// The HTTP reader never buffers beyond its documented bounds and
    /// never panics, whatever bytes arrive on the wire.
    #[test]
    fn http_reader_is_bounded_on_arbitrary_bytes(
        kind in 0u8..3,
        noise in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let prefix: &[u8] = match kind {
            0 => b"",
            1 => b"POST /v1/sweep HTTP/1.1\r\n",
            _ => b"GET /healthz HTTP/1.1\r\nContent-Length: ",
        };
        let mut wire = prefix.to_vec();
        wire.extend_from_slice(&noise);
        let mut stream = MemStream::new(wire);
        match read_request(&mut stream) {
            ReadOutcome::Request(req) => {
                prop_assert!(req.body.len() <= MAX_BODY);
                prop_assert!(req.path.len() <= MAX_HEAD);
            }
            ReadOutcome::Closed | ReadOutcome::TimedOut | ReadOutcome::Malformed(_) => {}
        }
    }

    /// Concatenated well-formed requests (HTTP/1.1 pipelining) come back
    /// from one connection reader exactly and in order, then `Closed` —
    /// whether the bytes arrive in full buffers or in short reads.
    #[test]
    fn connection_reader_returns_concatenated_requests_in_order(
        seed in any::<u64>(),
        count in 1usize..6,
        short_reads in any::<bool>(),
    ) {
        let mut rng = DetRng::new(seed);
        let mut wire = Vec::new();
        let mut expected = Vec::new();
        for _ in 0..count {
            let (bytes, want) = gen_request(&mut rng);
            wire.extend_from_slice(&bytes);
            expected.push(want);
        }
        let plan = if short_reads {
            NetFaultPlan::from_specs(&["partial=0.5"], Some(seed)).unwrap()
        } else {
            NetFaultPlan::none()
        };
        let mut stream = FaultedStream::new(
            MemStream::new(wire),
            plan.for_conn(0),
            Arc::new(NetFaultCounters::default()),
        );
        let mut reader = RequestReader::new();
        for (i, (method, path, headers, body)) in expected.into_iter().enumerate() {
            match reader.read(&mut stream, ReadLimits::default()) {
                ReadOutcome::Request(req) => {
                    prop_assert_eq!(req.method, method);
                    prop_assert_eq!(req.path, path);
                    prop_assert_eq!(req.headers, headers);
                    prop_assert_eq!(req.body, body);
                }
                other => panic!("request {i} of {count}: {other:?}"),
            }
        }
        let tail = reader.read(&mut stream, ReadLimits::default());
        prop_assert!(matches!(tail, ReadOutcome::Closed), "after {count}: {tail:?}");
    }

    /// Fault-plan specs round-trip through their canonical rendering.
    #[test]
    fn netfault_spec_round_trip(
        probs in (0u32..10_001, 0u32..10_001, 0u32..10_001, 0u32..10_001),
        delay_us in 1u64..100_000,
        seed in any::<u64>(),
    ) {
        let (delay_bp, partial_bp, torn_bp, reset_bp) = probs;
        let mut specs: Vec<String> = Vec::new();
        if delay_bp > 0 {
            specs.push(format!("delay={}:{delay_us}", delay_bp as f64 / 10_000.0));
        }
        if partial_bp > 0 {
            specs.push(format!("partial={}", partial_bp as f64 / 10_000.0));
        }
        if torn_bp > 0 {
            specs.push(format!("torn={}", torn_bp as f64 / 10_000.0));
        }
        if reset_bp > 0 {
            specs.push(format!("reset={}", reset_bp as f64 / 10_000.0));
        }
        let plan = NetFaultPlan::from_specs(&specs, Some(seed))
            .unwrap_or_else(|e| panic!("{specs:?}: {e}"));
        let rendered = plan.to_string();
        let back = if rendered == "none" {
            NetFaultPlan::from_specs::<&str>(&[], Some(seed)).unwrap()
        } else {
            let respecs: Vec<&str> = rendered.split(' ').collect();
            NetFaultPlan::from_specs(&respecs, None)
                .unwrap_or_else(|e| panic!("reparse {rendered}: {e}"))
        };
        prop_assert_eq!(back.to_string(), rendered);
        if !plan.is_none() {
            prop_assert_eq!(back, plan);
        }
    }
}
