//! Model-based fuzzing of the request table: random insert / complete /
//! `try_consume` / `is_complete` sequences are checked against a
//! `BTreeMap` of the live requests. Consumed handles stay in play, so
//! queries through stale handles whose slots were reused are exercised.

use comb_mpi::{Payload, Rank, RequestHandle, RequestTable, Status, Tag};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

/// The double-complete panics below are expected: keep them off stderr,
/// and report every other panic as usual.
fn quiet_expected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| info.payload().downcast_ref::<String>().map(|s| s.as_str()));
            if msg != Some("request completed twice") {
                default(info);
            }
        }));
    });
}

fn status(len: u64) -> Status {
    Status {
        source: Rank(1),
        tag: Tag(7),
        len,
    }
}

/// Even-length requests stand for receives, which deliver a payload.
fn payload(len: u64) -> Option<Payload> {
    len.is_multiple_of(2).then(|| Payload::synthetic(len))
}

/// One step: `(op, pick)`. `op % 8`: 0..=2 insert, 3..=4 complete a live
/// request (panic expected if it already completed), 5..=6 `try_consume`
/// and 7 `is_complete` on any handle ever issued. `pick` chooses the
/// request.
fn ops() -> impl Strategy<Value = Vec<(u8, u32)>> {
    proptest::collection::vec((0u8..8, 0u32..u32::MAX), 1..200)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn request_table_matches_a_map_model(ops in ops()) {
        quiet_expected_panics();
        let mut table = RequestTable::default();
        // Live requests by insertion number: handle, and the completed
        // status length once complete.
        let mut model: BTreeMap<usize, (RequestHandle, Option<u64>)> = BTreeMap::new();
        // Every handle ever issued, by insertion number.
        let mut issued: Vec<RequestHandle> = Vec::new();
        for (op, pick) in ops {
            match op {
                0..=2 => {
                    let h = table.insert();
                    prop_assert!(!issued.contains(&h), "handle {h:?} issued twice");
                    model.insert(issued.len(), (h, None));
                    issued.push(h);
                }
                3..=4 if !model.is_empty() => {
                    let n = *model.keys().nth(pick as usize % model.len()).unwrap();
                    let (h, done) = model.get_mut(&n).unwrap();
                    let len = n as u64;
                    if done.is_some() {
                        let again = catch_unwind(AssertUnwindSafe(|| {
                            table.complete(*h, status(len), payload(len))
                        }));
                        prop_assert!(again.is_err(), "completing {h:?} twice did not panic");
                    } else {
                        table.complete(*h, status(len), payload(len));
                        *done = Some(len);
                    }
                }
                5..=7 if !issued.is_empty() => {
                    let n = pick as usize % issued.len();
                    let h = issued[n];
                    let state = model.get(&n).map(|&(_, done)| done);
                    if op == 7 {
                        prop_assert_eq!(table.is_complete(h), matches!(state, Some(Some(_))));
                    } else {
                        let got = table.try_consume(h);
                        match state {
                            Some(Some(len)) => {
                                let (st, delivered) = got.expect("completed request not consumed");
                                prop_assert_eq!(st, status(len));
                                prop_assert_eq!(delivered, payload(len));
                                model.remove(&n);
                            }
                            // Pending, or consumed earlier (stale).
                            _ => prop_assert!(got.is_none(), "{h:?} consumed while {state:?}"),
                        }
                    }
                }
                _ => {}
            }
            prop_assert_eq!(table.live(), model.len());
        }
    }
}

#[test]
#[should_panic(expected = "request completed twice")]
fn completing_twice_panics() {
    let mut table = RequestTable::default();
    let h = table.insert();
    table.complete(h, status(1), None);
    table.complete(h, status(1), None);
}
