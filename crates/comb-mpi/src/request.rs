//! Non-blocking request objects and the per-engine request table.

use crate::types::{Payload, Status};
use std::collections::HashMap;

/// Handle to a non-blocking operation, returned by `isend`/`irecv`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestHandle(pub(crate) u64);

/// Direction of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// A non-blocking send.
    Send,
    /// A non-blocking receive.
    Recv,
}

/// Internal request record.
pub(crate) struct Request {
    /// Direction, kept for diagnostics and debug assertions.
    #[allow(dead_code)]
    pub kind: RequestKind,
    pub complete: bool,
    pub status: Option<Status>,
    /// Delivered payload (receives only), until taken by the caller.
    pub payload: Option<Payload>,
}

impl Request {
    pub fn new(kind: RequestKind) -> Request {
        Request {
            kind,
            complete: false,
            status: None,
            payload: None,
        }
    }
}

/// The per-engine request table.
#[derive(Default)]
pub(crate) struct RequestTable {
    next: u64,
    entries: HashMap<u64, Request>,
    pub completed_total: u64,
}

impl RequestTable {
    pub fn insert(&mut self, req: Request) -> RequestHandle {
        let id = self.next;
        self.next += 1;
        self.entries.insert(id, req);
        RequestHandle(id)
    }

    pub fn get(&self, h: RequestHandle) -> Option<&Request> {
        self.entries.get(&h.0)
    }

    /// Mark a request complete. Blocking waits park on the engine's
    /// completion condition, which the engine notifies after this.
    /// Idempotent-hostile by design: completing twice is a protocol bug.
    pub fn complete(&mut self, h: RequestHandle, status: Status, payload: Option<Payload>) {
        let req = self
            .entries
            .get_mut(&h.0)
            .expect("completing unknown request");
        assert!(!req.complete, "request completed twice");
        req.complete = true;
        req.status = Some(status);
        req.payload = payload;
        self.completed_total += 1;
    }

    /// Remove a finished request, returning its status and payload.
    pub fn remove(&mut self, h: RequestHandle) -> Option<(Status, Option<Payload>)> {
        let req = self.entries.remove(&h.0)?;
        debug_assert!(req.complete, "removing an incomplete request");
        Some((
            req.status.expect("complete request has status"),
            req.payload,
        ))
    }

    /// Number of live (not yet removed) requests.
    pub fn live(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Rank, Tag};

    fn status() -> Status {
        Status {
            source: Rank(0),
            tag: Tag(1),
            len: 10,
        }
    }

    #[test]
    fn insert_complete_remove_lifecycle() {
        let mut table = RequestTable::default();
        let h = table.insert(Request::new(RequestKind::Recv));
        assert!(!table.get(h).unwrap().complete);
        assert_eq!(table.live(), 1);
        table.complete(h, status(), Some(Payload::synthetic(10)));
        assert!(table.get(h).unwrap().complete);
        let (st, payload) = table.remove(h).unwrap();
        assert_eq!(st.len, 10);
        assert_eq!(payload, Some(Payload::synthetic(10)));
        assert_eq!(table.live(), 0);
        assert!(table.remove(h).is_none());
    }

    #[test]
    fn handles_are_unique() {
        let mut table = RequestTable::default();
        let h1 = table.insert(Request::new(RequestKind::Send));
        let h2 = table.insert(Request::new(RequestKind::Send));
        assert_ne!(h1, h2);
    }

    #[test]
    #[should_panic(expected = "completed twice")]
    fn double_complete_panics() {
        let mut table = RequestTable::default();
        let h = table.insert(Request::new(RequestKind::Send));
        table.complete(h, status(), None);
        table.complete(h, status(), None);
    }
}
