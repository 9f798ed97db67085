//! Event queue internals: slab arena + indexed four-ary timer heap.
//!
//! Events are totally ordered by `(time, sched, sequence-number)`, where
//! `sched` is the virtual instant the event was scheduled at. Within one
//! simulation the clock is monotone while events execute, so `sched` is
//! non-decreasing in sequence order and the composite key orders events
//! exactly as the historical `(time, seq)` key did: two events for the
//! same instant fire in the order they were scheduled. This, plus the
//! one-runnable-entity-at-a-time process model, makes every simulation run
//! bit-for-bit reproducible.
//!
//! The `sched` component earns its keep at shard boundaries: a cross-shard
//! event injected at an epoch barrier (see `crate::shard`) carries the
//! *source* shard's schedule time, which slots it among the destination's
//! own events at exactly the position the serial kernel would have given
//! it — sequence numbers are per-queue and cannot be compared across
//! shards, but schedule times can.
//!
//! # Layout
//!
//! Event payloads live in a slab of generation-tagged [`Slot`]s; ordering
//! lives in dense 32-byte [`HeapEntry`] keys split across a four-ary
//! min-heap, a sorted *tail* run, and a zero-delay *lane* (see
//! [`EventQueue`]). Cancellation is an O(1) generation bump on the slot —
//! no `HashSet` insert/probe, no per-pop hash lookup. The cancelled
//! entry's key stays where it is and is discarded by a single integer tag
//! check the one time it surfaces at a region front; live events never
//! pay for dead ones. Generation tags also make a cancel of an
//! already-fired (or never-valid) id a guaranteed no-op: the slot's
//! generation is bumped when it is freed, so a stale [`EventId`] simply
//! fails the tag check. (A tag is 32 bits; a single slot would need to be
//! reused 2^32 times while a stale id for it is still held for a false
//! match — not a realistic hazard for simulation runs.)
//!
//! Postponing an event queued ahead ([`EventQueue::postpone`]) is O(1) as
//! well: the slot takes the key a cancel plus a fresh schedule would have
//! given the event, and its queued entry stays where it is under the old,
//! earlier key. A queued key is therefore never later than the event's
//! true key, so the entry surfaces at a region front before the event is
//! due, and is re-inserted under the slot's key then. An entry is current
//! when its generation and sequence number match its slot's.
//!
//! Zero-delay self-schedules — the dominant pattern in polling-method
//! runs — skip the heap entirely: an event scheduled for the current
//! instant goes onto the FIFO lane. All lane entries share
//! `time == clock` (the clock can only advance once the lane is empty,
//! because `pop` always prefers the lane while it holds a live entry with
//! the smaller `(time, seq)` key), so lane order is exactly seq order and
//! the lane never needs sifting. Events scheduled ahead in non-decreasing
//! key order — station completions, the self-rescheduling sweep drivers —
//! extend the sorted tail with an O(1) append and pop from its front with
//! no sifting either; only genuinely out-of-order schedules touch the
//! heap.
//!
//! Closures up to [`INLINE_WORDS`] machine words are stored inline in the
//! slot ([`InlineCall`]); only larger captures fall back to a boxed
//! `dyn FnOnce`. Process resumes and inline calls make up the typed fast
//! path with zero per-event heap allocations.

use crate::kernel::WatchdogConfig;
use crate::process::ProcId;
use crate::time::SimTime;
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, Ordering};

/// Opaque handle to a scheduled event; used to cancel it.
///
/// Packs a slab slot index (low 32 bits) and that slot's generation tag
/// (high 32 bits); cancellation through a stale id is a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(pub(crate) u64);

impl EventId {
    /// Sentinel returned for cross-shard sends, which cannot be cancelled
    /// (the event lives in a router mailbox, not a slab). Its slot index is
    /// out of range for any real arena, so cancelling it is a guaranteed
    /// no-op rather than a hazard.
    pub(crate) const CROSS_SHARD: EventId = EventId::pack(u32::MAX, u32::MAX);

    const fn pack(slot: u32, generation: u32) -> Self {
        EventId(((generation as u64) << 32) | slot as u64)
    }
    fn slot(self) -> u32 {
        self.0 as u32
    }
    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// Capacity (in machine words) of the inline-closure fast path. Nine
/// words hold the largest closure on the hardware's hot path, a wire
/// delivery that owns its destination NIC, its source and its packet or
/// burst (comb-hw's `Fabric::transmit`), so no per-packet or per-message
/// event is boxed. Every slot embeds an `EventKind` and every pop moves
/// one, so the budget grows only as far as such a closure needs.
#[doc(hidden)]
pub const INLINE_WORDS: usize = 9;

type InlineBuf = [usize; INLINE_WORDS];

/// A closure stored inline (no heap allocation) inside an event slot.
///
/// Holds any `FnOnce() + Send` whose size fits [`INLINE_WORDS`] words and
/// whose alignment does not exceed a word's. Larger closures are rejected
/// by [`InlineCall::try_new`] and fall back to `Box<dyn FnOnce>`.
pub(crate) struct InlineCall {
    data: MaybeUninit<InlineBuf>,
    call: unsafe fn(*mut u8),
    drop_fn: unsafe fn(*mut u8),
}

// Safety: `try_new` only accepts `F: Send`, and the buffer is just that F.
unsafe impl Send for InlineCall {}

impl InlineCall {
    /// Store `f` inline, or hand it back if it is too big / over-aligned.
    #[inline]
    pub fn try_new<F: FnOnce() + Send + 'static>(f: F) -> Result<Self, F> {
        if std::mem::size_of::<F>() > std::mem::size_of::<InlineBuf>()
            || std::mem::align_of::<F>() > std::mem::align_of::<InlineBuf>()
        {
            return Err(f);
        }
        // Safety contract for both fn pointers: `p` points at a valid,
        // initialized F which is never touched again afterwards.
        unsafe fn call_impl<F: FnOnce()>(p: *mut u8) {
            (p as *mut F).read()()
        }
        unsafe fn drop_impl<F>(p: *mut u8) {
            std::ptr::drop_in_place(p as *mut F)
        }
        let mut data = MaybeUninit::<InlineBuf>::uninit();
        // Safety: size/align were checked above, so F fits the buffer.
        unsafe { (data.as_mut_ptr() as *mut F).write(f) };
        Ok(InlineCall {
            data,
            call: call_impl::<F>,
            drop_fn: drop_impl::<F>,
        })
    }

    /// Invoke the stored closure, consuming it.
    #[inline]
    pub fn invoke(self) {
        // `call` moves the closure out, so the Drop impl must never run —
        // not even when the closure panics and unwinds through here.
        let mut this = std::mem::ManuallyDrop::new(self);
        let p = this.data.as_mut_ptr() as *mut u8;
        // SAFETY: `try_new` initialized the buffer with an F, and the
        // ManuallyDrop above means it is moved out here and nowhere else.
        unsafe { (this.call)(p) };
    }
}

impl Drop for InlineCall {
    fn drop(&mut self) {
        // Safety: only reached when `invoke` never ran, so the closure is
        // still initialized and owned here.
        unsafe { (self.drop_fn)(self.data.as_mut_ptr() as *mut u8) }
    }
}

/// What happens when an event fires.
pub(crate) enum EventKind {
    /// Run a closure stored inline in the event slot (typed fast path).
    Inline(InlineCall),
    /// Run a boxed closure (fallback for large captures).
    Call(Box<dyn FnOnce() + Send>),
    /// Resume a simulated process.
    Resume(ProcId),
}

impl std::fmt::Debug for EventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EventKind::Inline(_) => write!(f, "Inline(..)"),
            EventKind::Call(_) => write!(f, "Call(..)"),
            EventKind::Resume(p) => write!(f, "Resume({p:?})"),
        }
    }
}

/// An event handed to the kernel loop by [`EventQueue::pop`].
pub(crate) struct FiredEvent {
    pub time: SimTime,
    #[cfg_attr(not(test), allow(dead_code))]
    pub id: EventId,
    pub kind: EventKind,
}

/// One slab cell: the event payload plus its ordering key and bookkeeping.
/// `kind == None` means the slot is vacant (on the free list).
struct Slot {
    /// Generation tag; bumped every time the slot is freed.
    generation: u32,
    time: SimTime,
    /// Virtual instant the event was scheduled at (cross-shard injections
    /// carry the source shard's instant). Middle component of the key.
    sched: SimTime,
    seq: u64,
    kind: Option<EventKind>,
}

/// 32-byte ordering key kept dense in the heap and tail; the payload stays
/// in the slab so sifting moves keys, not closures. Carries the slot's
/// generation so a cancelled entry is recognized (and skipped) in O(1)
/// without any back-pointer maintenance during sifts.
#[derive(Clone, Copy)]
struct HeapEntry {
    time: SimTime,
    sched: SimTime,
    seq: u64,
    slot: u32,
    generation: u32,
}

impl HeapEntry {
    #[inline]
    fn key(&self) -> (SimTime, SimTime, u64) {
        (self.time, self.sched, self.seq)
    }
}

/// Counters for the simulation kernel's event hot path.
///
/// Per-simulation snapshots come from `SimHandle::kernel_stats`; the
/// process-wide accumulation (flushed when each simulation's queue is
/// dropped) from [`KernelStats::global`]. A postponement counts as the
/// cancel and the schedule it stands for.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KernelStats {
    /// Events scheduled (lane + heap).
    pub scheduled: u64,
    /// Events that fired (executed by the kernel loop).
    pub fired: u64,
    /// Live events cancelled before firing. Stale cancels are not counted.
    pub cancelled: u64,
    /// High-water mark of live events resident in the slab arena.
    pub arena_high_water: u64,
    /// Events that took the zero-delay lane instead of the heap.
    pub lane_scheduled: u64,
    /// Closures too large for the inline fast path (boxed fallback).
    pub boxed_calls: u64,
}

static G_SCHEDULED: AtomicU64 = AtomicU64::new(0);
static G_FIRED: AtomicU64 = AtomicU64::new(0);
static G_CANCELLED: AtomicU64 = AtomicU64::new(0);
static G_ARENA_HIGH_WATER: AtomicU64 = AtomicU64::new(0);
static G_LANE_SCHEDULED: AtomicU64 = AtomicU64::new(0);
static G_BOXED_CALLS: AtomicU64 = AtomicU64::new(0);

impl KernelStats {
    /// Process-wide totals across all simulations whose queues have been
    /// dropped (each queue flushes its counters exactly once, on drop).
    /// `arena_high_water` is the max across simulations, not a sum.
    pub fn global() -> KernelStats {
        KernelStats {
            scheduled: G_SCHEDULED.load(Ordering::Relaxed),
            fired: G_FIRED.load(Ordering::Relaxed),
            cancelled: G_CANCELLED.load(Ordering::Relaxed),
            arena_high_water: G_ARENA_HIGH_WATER.load(Ordering::Relaxed),
            lane_scheduled: G_LANE_SCHEDULED.load(Ordering::Relaxed),
            boxed_calls: G_BOXED_CALLS.load(Ordering::Relaxed),
        }
    }
}

/// Why [`EventQueue::pop_next`] stopped the run at the event it popped.
pub(crate) enum Trip {
    /// The run's event limit was exceeded; carries the limit.
    Limit(u64),
    /// The watchdog saw this many events at instant `at` without the clock
    /// advancing.
    Stalled { events: u64, at: SimTime },
    /// The event lies past the watchdog's deadline.
    Deadline(SimTime),
}

/// The running event loop's limits and per-run counters. They sit next to
/// the queue so that a process asking to wake up can check, in the same
/// borrow, that the loop would pop its wake-up next without tripping any of
/// them ([`EventQueue::skip`]). The default is a closed run: nothing fits.
#[derive(Clone, Copy, Default)]
struct RunState {
    /// Events the run may execute; one more trips [`Trip::Limit`].
    max_events: u64,
    /// `stats.fired` after the run's last allowed event.
    fired_cap: u64,
    /// The run pops no event later than this (`run_until`'s deadline, or
    /// an epoch's end on a shard worker).
    until: SimTime,
    /// The watchdog trips [`Trip::Deadline`] on an event later than this.
    wd_deadline: SimTime,
    /// Events executed at the current instant without the clock advancing.
    stalled: u64,
    /// `stalled` at which the watchdog trips [`Trip::Stalled`].
    stall_cap: u64,
}

/// Where `pop` found the next event.
enum Src {
    Lane,
    Tail,
    Heap,
}

/// The mutable core of the event queue. Lives in a simulation-owned cell
/// in [`crate::kernel::SimShared`] (see `cell.rs`): at most one simulation
/// entity runs at any moment, so no lock guards it.
///
/// Three ordered regions, popped by comparing their front keys:
/// - `lane`: FIFO of events at `time == clock` (zero-delay self-schedules).
/// - `tail`: sorted run of events scheduled in non-decreasing key order —
///   the dominant pattern — giving O(1) push and O(1) pop with no sifting.
/// - `heap`: four-ary min-heap for the out-of-order remainder.
///
/// Cancellation is an O(1) generation bump on the slot; the queued entry
/// goes stale in place and is skipped (one cheap tag check, once) when it
/// surfaces. No tombstone set, no per-pop hash probe. Postponement re-keys
/// the slot only; its entry is re-inserted, once, when it surfaces.
#[derive(Default)]
pub(crate) struct EventQueue {
    slots: Vec<Slot>,
    free: Vec<u32>,
    heap: Vec<HeapEntry>,
    /// Sorted (ascending key) run; `tail_head` indexes its live front.
    tail: Vec<HeapEntry>,
    tail_head: usize,
    /// FIFO of `(slot, generation)` for events at `time == clock`.
    lane: VecDeque<(u32, u32)>,
    next_seq: u64,
    /// Fire time of the most recently popped event. The shard coordinator
    /// reports the max across shards as the run's end time, because
    /// partial runs fast-forward the clock to each epoch boundary and the
    /// clock alone overshoots the final event by up to one lookahead.
    pub(crate) last_fired: SimTime,
    run: RunState,
    pub stats: KernelStats,
    /// Snapshot of `stats` at the last [`EventQueue::flush_global`], so
    /// repeated flushes (one per run, one on drop) only push deltas.
    flushed: KernelStats,
}

impl EventQueue {
    /// Schedule `kind` at `time`. `now` is the current clock reading; an
    /// event for the current instant takes the zero-delay lane.
    #[inline]
    pub fn schedule(&mut self, now: SimTime, time: SimTime, kind: EventKind) -> EventId {
        self.schedule_keyed(now, time, now, kind)
    }

    /// [`EventQueue::schedule`] with an explicit `sched` key component.
    ///
    /// Local scheduling always passes `sched == now`; the shard epoch
    /// coordinator passes the *source* shard's schedule time when it
    /// injects a cross-shard event, which places the event among local
    /// ones exactly where the serial kernel would have. `sched` may be in
    /// this queue's past; only `time` must not be (`time > now` for every
    /// injection, guaranteed by the lookahead bound).
    #[inline]
    pub fn schedule_keyed(
        &mut self,
        now: SimTime,
        time: SimTime,
        sched: SimTime,
        kind: EventKind,
    ) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        if matches!(kind, EventKind::Call(_)) {
            self.stats.boxed_calls += 1;
        }
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                let s = self.slots.len() as u32;
                self.slots.push(Slot {
                    generation: 0,
                    time: SimTime::ZERO,
                    sched: SimTime::ZERO,
                    seq: 0,
                    kind: None,
                });
                s
            }
        };
        let generation = {
            let cell = &mut self.slots[slot as usize];
            cell.time = time;
            cell.sched = sched;
            cell.seq = seq;
            cell.kind = Some(kind);
            cell.generation
        };
        if time == now {
            self.lane.push_back((slot, generation));
            self.stats.lane_scheduled += 1;
        } else {
            self.push_ahead(HeapEntry {
                time,
                sched,
                seq,
                slot,
                generation,
            });
        }
        self.stats.scheduled += 1;
        let live = (self.slots.len() - self.free.len()) as u64;
        if live > self.stats.arena_high_water {
            self.stats.arena_high_water = live;
        }
        EventId::pack(slot, generation)
    }

    /// Cancel a previously scheduled event. Cancelling an event that already
    /// fired, was already cancelled, or was never scheduled is a no-op (the
    /// generation tag won't match a live slot), and leaks nothing.
    pub fn cancel(&mut self, id: EventId) {
        let slot = id.slot() as usize;
        let Some(cell) = self.slots.get(slot) else {
            return;
        };
        if cell.generation != id.generation() || cell.kind.is_none() {
            return;
        }
        // The queued lane/tail/heap entry goes stale: the bumped generation
        // makes it fail its tag check whenever it surfaces.
        self.free_slot(slot as u32);
        self.stats.cancelled += 1;
    }

    /// Move the live event `id`, queued ahead, to `t`: give it exactly the
    /// key that cancelling it and scheduling its payload at `t` now would
    /// give, `(t, now, next_seq)`, and charge that cancel and schedule. The
    /// queued entry stays where it is under its old, earlier key, and is
    /// re-inserted under the new one when it surfaces at a region front
    /// ([`EventQueue::drain_stale`]), before the event can be due.
    ///
    /// Panics unless `id` is live, not on the lane, and `t` is later than
    /// its time.
    pub fn postpone(&mut self, now: SimTime, id: EventId, t: SimTime) {
        let seq = self.next_seq;
        let cell = self
            .slots
            .get_mut(id.slot() as usize)
            .filter(|c| c.generation == id.generation() && c.kind.is_some())
            .expect("postponing an event that is not live");
        // Only a lane entry is keyed at the instant it was scheduled for.
        assert!(cell.time != cell.sched, "postponing an event on the lane");
        assert!(
            t > cell.time,
            "postponing an event to no later than its time"
        );
        cell.time = t;
        cell.sched = now;
        cell.seq = seq;
        if matches!(cell.kind, Some(EventKind::Call(_))) {
            self.stats.boxed_calls += 1;
        }
        self.next_seq += 1;
        self.stats.scheduled += 1;
        self.stats.cancelled += 1;
    }

    /// Pop the next live event in `(time, seq)` order.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn pop(&mut self) -> Option<FiredEvent> {
        self.pop_due(SimTime::MAX)
    }

    /// Pop the next live event if its time is `<= deadline`; an event
    /// beyond the deadline stays queued.
    #[inline]
    pub fn pop_due(&mut self, deadline: SimTime) -> Option<FiredEvent> {
        self.drain_stale();
        let mut best: Option<((SimTime, SimTime, u64), Src)> = None;
        if let Some(&(slot, _)) = self.lane.front() {
            let cell = &self.slots[slot as usize];
            best = Some(((cell.time, cell.sched, cell.seq), Src::Lane));
        }
        if let Some(e) = self.tail.get(self.tail_head) {
            let k = e.key();
            if best.as_ref().is_none_or(|(b, _)| k < *b) {
                best = Some((k, Src::Tail));
            }
        }
        if let Some(e) = self.heap.first() {
            let k = e.key();
            if best.as_ref().is_none_or(|(b, _)| k < *b) {
                best = Some((k, Src::Heap));
            }
        }
        let (key, src) = best?;
        if key.0 > deadline {
            return None;
        }
        let slot = match src {
            Src::Lane => self.lane.pop_front().expect("lane front vanished").0,
            Src::Tail => {
                let s = self.tail[self.tail_head].slot;
                self.advance_tail();
                s
            }
            Src::Heap => self.heap_pop_root().slot,
        };
        let cell = &mut self.slots[slot as usize];
        let time = cell.time;
        let id = EventId::pack(slot, cell.generation);
        let kind = cell.kind.take().expect("live slot without payload");
        self.free_slot(slot);
        self.stats.fired += 1;
        self.last_fired = time;
        Some(FiredEvent { time, id, kind })
    }

    /// Open a run of the event loop: it pops events up to `until`
    /// (inclusive) and trips on its `max_events + 1`-th event or on a
    /// `wd` limit.
    pub(crate) fn begin_run(
        &mut self,
        max_events: u64,
        until: SimTime,
        wd: Option<&WatchdogConfig>,
    ) {
        let stall_cap = match wd {
            Some(wd) if wd.max_stalled_events > 0 => wd.max_stalled_events,
            _ => u64::MAX,
        };
        self.run = RunState {
            max_events,
            fired_cap: self.stats.fired.saturating_add(max_events),
            until,
            wd_deadline: wd.and_then(|wd| wd.deadline).unwrap_or(SimTime::MAX),
            stalled: 0,
            stall_cap,
        };
    }

    /// Close the run: no [`EventQueue::skip`] fits until the next one.
    pub(crate) fn end_run(&mut self) {
        self.run = RunState::default();
    }

    /// Pop the run's next event, due by the run's deadline, and charge it
    /// to the run's limits. `now` is the clock reading before the event.
    /// `None` when nothing is due, or when the event trips a limit: then
    /// `trip` says which, and the event is dropped unrun.
    #[inline]
    pub(crate) fn pop_next(&mut self, now: SimTime, trip: &mut Option<Trip>) -> Option<FiredEvent> {
        let ev = self.pop_due(self.run.until)?;
        *trip = self.charge(ev.time, now);
        trip.is_none().then_some(ev)
    }

    /// Charge one popped event, firing at `time`, to the run's limits.
    #[inline(always)]
    fn charge(&mut self, time: SimTime, now: SimTime) -> Option<Trip> {
        let run = &mut self.run;
        if self.stats.fired > run.fired_cap {
            return Some(Trip::Limit(run.max_events));
        }
        if time > now {
            run.stalled = 0;
        } else {
            run.stalled += 1;
            if run.stalled >= run.stall_cap {
                return Some(Trip::Stalled {
                    events: run.stalled,
                    at: now,
                });
            }
        }
        if time > run.wd_deadline {
            return Some(Trip::Deadline(run.wd_deadline));
        }
        None
    }

    /// Charge `n` events exactly as if the loop had scheduled and popped
    /// them, without queueing any, if it would pop them next: a chain
    /// whose first event fires at `t`, scheduled at `now`, and whose every
    /// later event is scheduled by the one before it for the same instant.
    /// Returns false, charging nothing, when anything is queued at or
    /// before `t` (a cancelled or postponed entry at a region front counts:
    /// the ordinary path drains or re-inserts it) or when one of the events
    /// would trip the run's limits — the caller then schedules the events
    /// as usual, and the loop trips at the same event with the same error.
    #[inline]
    pub(crate) fn skip(&mut self, now: SimTime, t: SimTime, n: u64) -> bool {
        debug_assert!(n > 0 && t >= now);
        if !self.lane.is_empty()
            || self.tail.get(self.tail_head).is_some_and(|e| e.time <= t)
            || self.heap.first().is_some_and(|e| e.time <= t)
        {
            return false;
        }
        let run = &mut self.run;
        let fired = self.stats.fired + n;
        // The first event resets the stall count if it moves the clock;
        // every later one is at the same instant.
        let stalled = if t > now { n - 1 } else { run.stalled + n };
        if fired > run.fired_cap || stalled >= run.stall_cap || t > run.until || t > run.wd_deadline
        {
            return false;
        }
        run.stalled = stalled;
        self.stats.fired = fired;
        self.stats.scheduled += n;
        // Every event after the first is scheduled for the instant it is
        // scheduled at; so is the first when `t == now`.
        self.stats.lane_scheduled += n - 1 + u64::from(t == now);
        // Each event is scheduled after the one before it left the arena.
        let live = (self.slots.len() - self.free.len()) as u64 + 1;
        self.stats.arena_high_water = self.stats.arena_high_water.max(live);
        self.next_seq += n;
        self.last_fired = t;
        true
    }

    /// Time of the next live event without popping it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.drain_stale();
        let mut t = self
            .lane
            .front()
            .map(|&(slot, _)| self.slots[slot as usize].time);
        for cand in [
            self.tail.get(self.tail_head).map(|e| e.time),
            self.heap.first().map(|e| e.time),
        ]
        .into_iter()
        .flatten()
        {
            t = Some(t.map_or(cand, |cur| cur.min(cand)));
        }
        t
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub fn is_empty(&mut self) -> bool {
        self.peek_time().is_none()
    }

    /// Make each region's front current (or the region empty): drop the
    /// entries of cancelled events sitting there, and re-insert those of
    /// postponed events under their slots' keys. A re-inserted entry is
    /// current, so each postponement costs one re-insertion at most.
    #[inline]
    fn drain_stale(&mut self) {
        while let Some(&(slot, generation)) = self.lane.front() {
            if self.slots[slot as usize].generation == generation {
                break;
            }
            self.lane.pop_front();
        }
        while let Some(&e) = self.tail.get(self.tail_head) {
            let (live, current) = self.check(&e);
            if current {
                break;
            }
            self.advance_tail();
            if live {
                self.requeue(e.slot);
            }
        }
        // A heap entry re-inserted onto the tail lands behind its current
        // front, or is the front itself.
        while let Some(&root) = self.heap.first() {
            let (live, current) = self.check(&root);
            if current {
                break;
            }
            self.heap_pop_root();
            if live {
                self.requeue(root.slot);
            }
        }
    }

    /// Whether `e`'s event is live, and whether `e` is its current entry.
    #[inline(always)]
    fn check(&self, e: &HeapEntry) -> (bool, bool) {
        let cell = &self.slots[e.slot as usize];
        let live = cell.generation == e.generation;
        (live, live && cell.seq == e.seq)
    }

    /// Queue a postponed event's entry again, under its slot's key.
    fn requeue(&mut self, slot: u32) {
        let cell = &self.slots[slot as usize];
        self.push_ahead(HeapEntry {
            time: cell.time,
            sched: cell.sched,
            seq: cell.seq,
            slot,
            generation: cell.generation,
        });
    }

    /// Queue an entry for a later instant. Keys that arrive in
    /// non-decreasing order extend the sorted tail for free; anything out
    /// of order goes to the heap.
    #[inline]
    fn push_ahead(&mut self, entry: HeapEntry) {
        match self.tail.last() {
            Some(last) if entry.key() < last.key() => {
                self.heap.push(entry);
                self.sift_up(self.heap.len() - 1);
            }
            _ => self.tail.push(entry),
        }
    }

    fn advance_tail(&mut self) {
        self.tail_head += 1;
        if self.tail_head == self.tail.len() {
            self.tail.clear();
            self.tail_head = 0;
        } else if self.tail_head >= 64 && 2 * self.tail_head >= self.tail.len() {
            // A tail that never drains — two processes holding in turn keep
            // one resume queued behind the other — would otherwise grow for
            // the whole run. Dropping its consumed front once that is half
            // the buffer keeps the buffer bounded at amortized O(1) a pop,
            // and leaves its last entry, which routes new keys, in place.
            self.tail.drain(..self.tail_head);
            self.tail_head = 0;
        }
    }

    fn free_slot(&mut self, slot: u32) {
        let cell = &mut self.slots[slot as usize];
        cell.kind = None;
        cell.generation = cell.generation.wrapping_add(1);
        self.free.push(slot);
    }

    fn sift_up(&mut self, mut i: usize) {
        let entry = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 4;
            if self.heap[parent].key() <= entry.key() {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = entry;
    }

    fn sift_down(&mut self, mut i: usize) {
        let entry = self.heap[i];
        let len = self.heap.len();
        loop {
            let first_child = 4 * i + 1;
            if first_child >= len {
                break;
            }
            let mut min_child = first_child;
            let mut min_key = self.heap[first_child].key();
            let last_child = (first_child + 3).min(len - 1);
            for c in first_child + 1..=last_child {
                let k = self.heap[c].key();
                if k < min_key {
                    min_key = k;
                    min_child = c;
                }
            }
            if entry.key() <= min_key {
                break;
            }
            self.heap[i] = self.heap[min_child];
            i = min_child;
        }
        self.heap[i] = entry;
    }

    /// Remove and return the root entry, restoring the heap property.
    fn heap_pop_root(&mut self) -> HeapEntry {
        let root = self.heap[0];
        let last = self.heap.pop().expect("pop from empty heap");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0);
        }
        root
    }

    /// Push the not-yet-flushed portion of this queue's counters into the
    /// process-wide totals. Called at the end of every kernel run and
    /// again on drop; only the delta since the previous flush is added,
    /// so the two call sites never double-count. The run-boundary call
    /// matters because hardware models keep `SimHandle` clones in
    /// reference cycles — many real simulations are never dropped.
    pub(crate) fn flush_global(&mut self) {
        let s = self.stats;
        let f = self.flushed;
        G_SCHEDULED.fetch_add(s.scheduled - f.scheduled, Ordering::Relaxed);
        G_FIRED.fetch_add(s.fired - f.fired, Ordering::Relaxed);
        G_CANCELLED.fetch_add(s.cancelled - f.cancelled, Ordering::Relaxed);
        G_ARENA_HIGH_WATER.fetch_max(s.arena_high_water, Ordering::Relaxed);
        G_LANE_SCHEDULED.fetch_add(s.lane_scheduled - f.lane_scheduled, Ordering::Relaxed);
        G_BOXED_CALLS.fetch_add(s.boxed_calls - f.boxed_calls, Ordering::Relaxed);
        self.flushed = s;
    }

    /// Flush, then swap out every pending event together with the arena
    /// and queue buffers, keeping the clock-side state and the counters,
    /// and return them for dropping.
    pub(crate) fn take_storage(&mut self) -> EventQueue {
        self.flush_global();
        let mut keep = EventQueue::default();
        keep.next_seq = self.next_seq;
        keep.last_fired = self.last_fired;
        keep.stats = self.stats;
        keep.flushed = self.flushed;
        std::mem::replace(self, keep)
    }
}

impl Drop for EventQueue {
    fn drop(&mut self) {
        self.flush_global();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use proptest::prelude::*;

    fn call() -> EventKind {
        match InlineCall::try_new(|| {}) {
            Ok(ic) => EventKind::Inline(ic),
            Err(f) => EventKind::Call(Box::new(f)),
        }
    }

    const T0: SimTime = SimTime::ZERO;

    #[test]
    fn pops_in_time_then_fifo_order() {
        let mut q = EventQueue::default();
        let t1 = SimTime::from_nanos(10);
        let t0 = SimTime::from_nanos(5);
        let a = q.schedule(T0, t1, call());
        let b = q.schedule(T0, t0, call());
        let c = q.schedule(T0, t1, call());
        assert_eq!(q.pop().unwrap().id, b);
        assert_eq!(
            q.pop().unwrap().id,
            a,
            "same-time events fire in schedule order"
        );
        assert_eq!(q.pop().unwrap().id, c);
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancelled_events_are_skipped() {
        let mut q = EventQueue::default();
        let t = SimTime::from_nanos(1);
        let a = q.schedule(T0, t, call());
        let b = q.schedule(T0, t, call());
        q.cancel(a);
        assert_eq!(q.pop().unwrap().id, b);
        assert!(q.pop().is_none());
        // Cancelling an already-fired event is a no-op.
        q.cancel(b);
        assert!(q.is_empty());
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut q = EventQueue::default();
        let a = q.schedule(T0, SimTime::from_nanos(1), call());
        q.schedule(T0, SimTime::from_nanos(2), call());
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(2)));
    }

    #[test]
    fn zero_delay_lane_preserves_fifo_against_heap() {
        let mut q = EventQueue::default();
        let now = SimTime::from_nanos(100);
        // Heap entry for `now` scheduled earlier (while the clock was behind).
        let early = q.schedule(SimTime::from_nanos(50), now, call());
        // Lane entries at the current instant: must fire after `early`
        // (smaller seq wins among same-time events) and in FIFO order.
        let l1 = q.schedule(now, now, call());
        let l2 = q.schedule(now, now, call());
        let later = q.schedule(now, SimTime::from_nanos(200), call());
        assert_eq!(q.pop().unwrap().id, early);
        assert_eq!(q.pop().unwrap().id, l1);
        assert_eq!(q.pop().unwrap().id, l2);
        assert_eq!(q.pop().unwrap().id, later);
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_of_unknown_or_fired_id_is_a_noop_and_leaks_nothing() {
        let mut q = EventQueue::default();
        // Never-scheduled ids: out-of-range slot and wrong generation.
        q.cancel(EventId::pack(12345, 0));
        q.cancel(EventId::pack(0, 7));
        let a = q.schedule(T0, SimTime::from_nanos(1), call());
        let fired = q.pop().unwrap();
        assert_eq!(fired.id, a);
        // Cancel after fire: generation was bumped on free, so this must
        // neither count as a cancellation nor disturb the recycled slot.
        q.cancel(a);
        assert_eq!(q.stats.cancelled, 0);
        let b = q.schedule(T0, SimTime::from_nanos(2), call());
        assert_eq!(b.slot(), a.slot(), "slot is recycled");
        q.cancel(a); // stale id for the recycled slot: still a no-op
        assert_eq!(q.pop().unwrap().id, b, "recycled event untouched");
        assert_eq!(q.stats.cancelled, 0);
        assert_eq!(q.stats.fired, 2);
    }

    #[test]
    fn arena_reuses_slots_without_growth() {
        let mut q = EventQueue::default();
        for round in 0..1000u64 {
            let id = q.schedule(T0, SimTime::from_nanos(round + 1), call());
            if round % 3 == 0 {
                q.cancel(id);
            } else {
                q.pop().unwrap();
            }
        }
        assert_eq!(q.stats.arena_high_water, 1);
        assert_eq!(
            q.slots.len(),
            1,
            "steady-state churn must not grow the slab"
        );
    }

    #[test]
    fn stats_count_scheduled_fired_cancelled() {
        let mut q = EventQueue::default();
        let a = q.schedule(T0, SimTime::from_nanos(1), call());
        let _b = q.schedule(T0, SimTime::from_nanos(2), call());
        q.schedule(T0, T0, call());
        q.cancel(a);
        while q.pop().is_some() {}
        assert_eq!(q.stats.scheduled, 3);
        assert_eq!(q.stats.fired, 2);
        assert_eq!(q.stats.cancelled, 1);
        assert_eq!(q.stats.lane_scheduled, 1);
        assert_eq!(q.stats.boxed_calls, 0);
    }

    fn nanos(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// Pop every event, returning the ids in firing order.
    fn drain(q: &mut EventQueue) -> Vec<EventId> {
        std::iter::from_fn(|| q.pop().map(|e| e.id)).collect()
    }

    #[test]
    fn postponing_the_tail_front_requeues_it_among_later_events() {
        let mut q = EventQueue::default();
        let a = q.schedule(T0, nanos(10), call());
        let b = q.schedule(T0, nanos(20), call());
        let c = q.schedule(T0, nanos(30), call());
        assert_eq!((q.tail.len(), q.heap.len()), (3, 0), "all on the tail");
        // Onto b's instant: a is keyed as scheduled now, after b.
        q.postpone(T0, a, nanos(20));
        assert_eq!(q.peek_time(), Some(nanos(20)), "the old key never fires");
        assert_eq!(drain(&mut q), [b, a, c]);
    }

    #[test]
    fn postponing_a_heap_entry_requeues_it() {
        let mut q = EventQueue::default();
        let c = q.schedule(T0, nanos(30), call());
        let a = q.schedule(T0, nanos(10), call());
        let b = q.schedule(T0, nanos(20), call());
        assert_eq!((q.tail.len(), q.heap.len()), (1, 2), "a and b in the heap");
        // The root, then an inner entry, past the tail's only entry.
        q.postpone(T0, a, nanos(40));
        q.postpone(T0, b, nanos(35));
        assert_eq!(drain(&mut q), [c, b, a]);
        assert_eq!(q.stats.fired, 3);
    }

    #[test]
    fn postponed_event_orders_as_if_rescheduled_now() {
        let mut q = EventQueue::default();
        let a = q.schedule(T0, nanos(10), call());
        let x = q.schedule(T0, nanos(20), call());
        let now = nanos(5);
        let before = q.schedule(now, nanos(20), call());
        q.postpone(now, a, nanos(20));
        let after = q.schedule(now, nanos(20), call());
        assert_eq!(drain(&mut q), [x, before, a, after]);
    }

    #[test]
    fn cancel_after_postpone_drops_the_event() {
        let mut q = EventQueue::default();
        let a = q.schedule(T0, nanos(10), call());
        let b = q.schedule(T0, nanos(20), call());
        q.postpone(T0, a, nanos(30));
        q.cancel(a);
        assert_eq!(drain(&mut q), [b]);
        assert!(q.is_empty());
        assert_eq!((q.stats.scheduled, q.stats.cancelled), (3, 2));
        // Postponed twice, the event fires once, at its last time.
        let c = q.schedule(T0, nanos(40), call());
        q.postpone(T0, c, nanos(50));
        q.postpone(T0, c, nanos(60));
        let fired = q.pop().unwrap();
        assert_eq!((fired.id, fired.time), (c, nanos(60)));
        assert!(q.pop().is_none());
    }

    #[test]
    fn postpone_counts_as_cancel_plus_schedule() {
        let (mut lazy, mut eager) = (EventQueue::default(), EventQueue::default());
        for q in [&mut lazy, &mut eager] {
            q.schedule(T0, nanos(10), call());
            q.schedule(T0, nanos(15), call());
        }
        let a = lazy.schedule(T0, nanos(12), call());
        lazy.postpone(nanos(1), a, nanos(18));
        let a = eager.schedule(T0, nanos(12), call());
        eager.cancel(a);
        eager.schedule(nanos(1), nanos(18), call());
        let times = |q: &mut EventQueue| -> Vec<SimTime> {
            std::iter::from_fn(|| q.pop().map(|e| e.time)).collect()
        };
        assert_eq!(times(&mut lazy), times(&mut eager));
        assert_eq!(lazy.stats, eager.stats);
        assert_eq!(lazy.next_seq, eager.next_seq);
    }

    #[test]
    #[should_panic(expected = "postponing an event on the lane")]
    fn postponing_a_lane_event_panics() {
        let mut q = EventQueue::default();
        let a = q.schedule(T0, T0, call());
        q.postpone(T0, a, nanos(1));
    }

    #[test]
    #[should_panic(expected = "postponing an event that is not live")]
    fn postponing_a_fired_event_panics() {
        let mut q = EventQueue::default();
        let a = q.schedule(T0, nanos(1), call());
        q.pop().unwrap();
        q.postpone(nanos(1), a, nanos(2));
    }

    /// Naive reference model: a Vec of live `(time, seq)` events, popped by
    /// linear minimum scan. The arena + indexed heap + lane must match its
    /// time-then-FIFO order under arbitrary schedule/cancel/postpone
    /// interleavings.
    #[derive(Default)]
    struct RefModel {
        live: Vec<(u64, u64, usize)>, // (time, seq, tag)
        next_seq: u64,
    }

    impl RefModel {
        fn schedule(&mut self, time: u64, tag: usize) {
            self.live.push((time, self.next_seq, tag));
            self.next_seq += 1;
        }
        fn cancel(&mut self, tag: usize) {
            self.live.retain(|&(_, _, t)| t != tag);
        }
        /// A postponed event is the one a cancel and a fresh schedule give.
        fn postpone(&mut self, tag: usize, time: u64) {
            self.cancel(tag);
            self.schedule(time, tag);
        }
        fn peek(&self) -> Option<u64> {
            self.live
                .iter()
                .map(|&(time, seq, _)| (time, seq))
                .min()
                .map(|(t, _)| t)
        }
        fn pop(&mut self) -> Option<(u64, usize)> {
            let (i, _) = self
                .live
                .iter()
                .enumerate()
                .min_by_key(|(_, &(time, seq, _))| (time, seq))?;
            let (time, _, tag) = self.live.remove(i);
            Some((time, tag))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        /// Random interleavings of schedule / cancel / postpone / pop
        /// against the reference model. `op % 10`: 0..=4 schedule, 5 cancel
        /// a random outstanding id, 6..=7 postpone a random outstanding id
        /// that is not on the lane, 8..=9 pop. Times are offset from a
        /// moving "clock" (the last popped time) so the zero-delay lane is
        /// exercised too.
        #[test]
        fn matches_naive_reference_model(
            ops in proptest::collection::vec((any::<u8>(), 0u64..6, 0u64..4096), 1..200)
        ) {
            let mut q = EventQueue::default();
            let mut model = RefModel::default();
            // (tag, id, time, on the lane)
            let mut ids: Vec<(usize, EventId, u64, bool)> = Vec::new();
            let mut now = 0u64;
            let mut tag = 0usize;
            for &(op, dt, pick) in &ops {
                let ahead: Vec<usize> = (0..ids.len()).filter(|&i| !ids[i].3).collect();
                match op % 10 {
                    0..=4 => {
                        let t = now + dt; // dt == 0 → lane
                        let id = q.schedule(
                            SimTime::from_nanos(now),
                            SimTime::from_nanos(t),
                            call(),
                        );
                        model.schedule(t, tag);
                        ids.push((tag, id, t, dt == 0));
                        tag += 1;
                    }
                    5 if !ids.is_empty() => {
                        let (tag, id, _, _) = ids.swap_remove(pick as usize % ids.len());
                        q.cancel(id);
                        model.cancel(tag);
                    }
                    6 | 7 if !ahead.is_empty() => {
                        let e = &mut ids[ahead[pick as usize % ahead.len()]];
                        e.2 += 1 + dt;
                        q.postpone(SimTime::from_nanos(now), e.1, SimTime::from_nanos(e.2));
                        model.postpone(e.0, e.2);
                    }
                    5..=7 => {}
                    _ => {
                        prop_assert_eq!(q.peek_time().map(SimTime::as_nanos), model.peek());
                        let got = q.pop();
                        let want = model.pop();
                        match (got, want) {
                            (None, None) => {}
                            (Some(ev), Some((t, want_tag))) => {
                                prop_assert_eq!(ev.time.as_nanos(), t);
                                now = t;
                                let i = ids
                                    .iter()
                                    .position(|&(_, id, _, _)| id == ev.id)
                                    .expect("popped id is not outstanding");
                                prop_assert_eq!(ids[i].0, want_tag, "FIFO mismatch");
                                ids.remove(i);
                            }
                            (g, w) => panic!(
                                "pop mismatch: got {:?}, want {:?}",
                                g.map(|e| e.time),
                                w
                            ),
                        }
                    }
                }
            }
            // Drain both: remaining events must agree exactly.
            loop {
                match (q.pop(), model.pop()) {
                    (None, None) => break,
                    (Some(ev), Some((t, want_tag))) => {
                        prop_assert_eq!(ev.time.as_nanos(), t);
                        let i = ids
                            .iter()
                            .position(|&(_, id, _, _)| id == ev.id)
                            .expect("drained id is not outstanding");
                        prop_assert_eq!(ids[i].0, want_tag, "FIFO mismatch");
                        ids.remove(i);
                    }
                    (g, w) => panic!(
                        "drain mismatch: got {:?}, want {:?}",
                        g.map(|e| e.time),
                        w
                    ),
                }
            }
        }
    }
}
