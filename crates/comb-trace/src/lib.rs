//! # comb-trace — typed observability for the COMB reproduction
//!
//! Replaces the old free-form string tracer with a typed event/span
//! subsystem threaded through every layer of the simulator:
//!
//! * [`TraceEvent`] — the event taxonomy: message lifecycle
//!   (RTS→CTS→DATA with a per-message correlation id), NIC DMA /
//!   interrupt / stall events, CPU work chunks, and benchmark phase
//!   boundaries.
//! * [`Tracer`] — the lock-cheap recording sink (one relaxed atomic load
//!   when disabled, lazy event construction).
//! * [`span`] — reconstruction of begin/end pairs into intervals plus a
//!   well-nestedness checker.
//! * [`chrome`] / [`csv`] — exporters; the Chrome trace-event JSON opens
//!   in `chrome://tracing` and Perfetto.
//! * [`analysis`] — per-phase time breakdown, latency percentiles, and
//!   overlap efficiency (overlapped bytes / total bytes).
//! * [`fsio`] — atomic artifact writes (temp file + rename; fsynced for
//!   exported artifacts, unsynced for self-validating cache entries)
//!   used by every exporter above this crate.
//!
//! The format and pairing rules are documented in DESIGN.md §7.

#![warn(missing_docs)]

pub mod analysis;
pub mod chrome;
pub mod csv;
pub mod event;
pub mod fsio;
pub mod span;
mod tracer;

pub use analysis::{LatencyStats, PhaseTotal, TraceAnalysis};
pub use chrome::{chrome_trace_json, ChromeTrace};
pub use csv::csv_export;
pub use event::{Comp, MsgId, Phase, TraceEvent, TraceRecord};
pub use fsio::{atomic_write, atomic_write_str, atomic_write_unsynced};
pub use span::{build_spans, check_well_nested, AsyncSpan, InstantEvent, Span, SpanSet};
pub use tracer::Tracer;
