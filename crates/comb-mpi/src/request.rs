//! Non-blocking request handles and the per-engine request table.

use crate::types::{Payload, Status};

/// Handle to a non-blocking operation, returned by `isend`/`irecv`.
///
/// Packs a request-table slot index (low 32 bits) and that slot's
/// generation (high 32 bits). Consuming a request bumps its slot's
/// generation, so a consumed handle never names the request that reuses
/// the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestHandle(pub(crate) u64);

impl RequestHandle {
    fn pack(slot: u32, generation: u32) -> Self {
        RequestHandle(((generation as u64) << 32) | slot as u64)
    }
    fn slot(self) -> usize {
        self.0 as u32 as usize
    }
    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// What a table slot holds.
enum State {
    /// On the free list.
    Vacant,
    /// Posted, not yet complete.
    Pending,
    /// Complete; the status and (receives only) the delivered payload wait
    /// for the caller to consume them.
    Done(Status, Option<Payload>),
}

struct Slot {
    /// Bumped every time the slot is freed.
    generation: u32,
    state: State,
}

/// The per-engine request table: a slab of generation-tagged slots whose
/// freed slots are reused last-freed first, so a warm table stops growing.
/// Every operation on a handle is one indexed lookup plus a generation
/// compare.
#[derive(Default)]
pub struct RequestTable {
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
}

impl RequestTable {
    /// Post a new, incomplete request.
    pub fn insert(&mut self) -> RequestHandle {
        self.live += 1;
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                let slot = u32::try_from(self.slots.len()).expect("request table full");
                self.slots.push(Slot {
                    generation: 0,
                    state: State::Vacant,
                });
                slot
            }
        };
        let s = &mut self.slots[slot as usize];
        s.state = State::Pending;
        RequestHandle::pack(slot, s.generation)
    }

    /// The slot `h` names, if `h` is still current.
    fn slot_mut(&mut self, h: RequestHandle) -> Option<&mut Slot> {
        self.slots
            .get_mut(h.slot())
            .filter(|s| s.generation == h.generation())
    }

    /// Mark a request complete. Blocking waits park on the engine's
    /// completion condition, which the engine notifies after this.
    /// Idempotent-hostile by design: completing twice, or completing a
    /// consumed request, is a protocol bug and panics.
    pub fn complete(&mut self, h: RequestHandle, status: Status, payload: Option<Payload>) {
        let slot = self.slot_mut(h).expect("completing unknown request");
        match slot.state {
            State::Pending => slot.state = State::Done(status, payload),
            State::Done(..) => panic!("request completed twice"),
            State::Vacant => panic!("completing unknown request"),
        }
    }

    /// True if `h` names a live, completed request.
    pub fn is_complete(&self, h: RequestHandle) -> bool {
        self.slots
            .get(h.slot())
            .is_some_and(|s| s.generation == h.generation() && matches!(s.state, State::Done(..)))
    }

    /// Take a completed request out of the table, returning its status and
    /// payload. `None` if it is still pending, or if `h` was already
    /// consumed (even after its slot was reused).
    pub fn try_consume(&mut self, h: RequestHandle) -> Option<(Status, Option<Payload>)> {
        let slot = self.slot_mut(h)?;
        match std::mem::replace(&mut slot.state, State::Vacant) {
            State::Done(status, payload) => {
                slot.generation = slot.generation.wrapping_add(1);
                self.free.push(h.slot() as u32);
                self.live -= 1;
                Some((status, payload))
            }
            pending => {
                slot.state = pending;
                None
            }
        }
    }

    /// Number of live (posted, not yet consumed) requests.
    pub fn live(&self) -> usize {
        self.live
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
    fn insert_complete_consume_lifecycle() {
        let mut table = RequestTable::default();
        let h = table.insert();
        assert!(!table.is_complete(h));
        assert!(table.try_consume(h).is_none(), "pending is not consumable");
        assert_eq!(table.live(), 1);
        table.complete(h, status(), Some(Payload::synthetic(10)));
        assert!(table.is_complete(h));
        let (st, payload) = table.try_consume(h).unwrap();
        assert_eq!(st.len, 10);
        assert_eq!(payload, Some(Payload::synthetic(10)));
        assert_eq!(table.live(), 0);
        assert!(table.try_consume(h).is_none());
    }

    #[test]
    fn handles_are_unique_and_stale_ones_never_alias() {
        let mut table = RequestTable::default();
        let h1 = table.insert();
        let h2 = table.insert();
        assert_ne!(h1, h2);
        table.complete(h1, status(), None);
        table.try_consume(h1).unwrap();
        // The freed slot is reused before the slab grows, under a new
        // generation.
        let h3 = table.insert();
        assert_eq!(h3.slot(), h1.slot());
        assert_ne!(h3, h1);
        assert_eq!(table.slots.len(), 2, "churn must not grow the slab");
        table.complete(h3, status(), None);
        assert!(!table.is_complete(h1), "stale handle sees the new request");
        assert!(table.try_consume(h1).is_none());
        assert!(table.try_consume(h3).is_some());
    }

    #[test]
    #[should_panic(expected = "completed twice")]
    fn double_complete_panics() {
        let mut table = RequestTable::default();
        let h = table.insert();
        table.complete(h, status(), None);
        table.complete(h, status(), None);
    }
}
