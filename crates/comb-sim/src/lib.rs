//! # comb-sim — deterministic discrete-event simulation kernel
//!
//! The foundation of the COMB reproduction: a process-oriented
//! discrete-event simulator with integer-nanosecond virtual time.
//!
//! * [`Simulation`] owns the event queue and drives the run.
//! * [`SimHandle`] is a cloneable handle for scheduling/cancelling events
//!   and reading the virtual clock from anywhere (hardware models, tests).
//! * Simulated processes are spawned with [`Simulation::spawn`]; their code
//!   receives a [`ProcCtx`] and blocks via [`ProcCtx::hold`] or
//!   [`Signal::wait`]. Each process is a stackful coroutine on the thread
//!   that calls `run`: the event loop switches into a process to resume it
//!   and the process switches back when it blocks, so exactly one of them
//!   runs at a time, no process needs a thread of its own, and every run is
//!   bit-for-bit reproducible. Processes need x86_64 Linux (see `coro.rs`).
//! * [`Signal`] (one-shot latch) and [`Condition`] (broadcast) are the
//!   wait/notify primitives.
//! * [`SimCell`] holds model state owned by one simulation: borrowing it
//!   on the thread running that simulation takes no lock, and borrowing it
//!   from any other thread meanwhile panics.
//!
//! ```
//! use comb_sim::{Simulation, SimDuration, Signal};
//!
//! let mut sim = Simulation::new();
//! let h = sim.handle();
//! let done = Signal::new(&h);
//! let probe = sim.probe::<u64>();
//!
//! let d = done.clone();
//! sim.spawn("producer", move |ctx| {
//!     ctx.hold(SimDuration::from_micros(10));
//!     d.fire();
//! });
//! let p = probe.clone();
//! sim.spawn("consumer", move |ctx| {
//!     done.wait(ctx);
//!     p.set(ctx.now().as_nanos());
//! });
//!
//! sim.run().unwrap();
//! assert_eq!(probe.get(), Some(10_000));
//! ```

#![warn(missing_docs)]

mod cell;
mod coro;
mod event;
mod kernel;
mod process;
mod shard;
mod signal;
pub mod stats;
mod time;

pub use cell::{SimCell, SimRefMut};
#[doc(hidden)]
pub use coro::StackStats;
#[doc(hidden)]
pub use event::INLINE_WORDS;
pub use event::{EventId, KernelStats};
pub use kernel::{Probe, SimError, SimHandle, Simulation, WatchdogConfig};
pub use process::{ProcCtx, ProcId};
pub use shard::ShardedSimulation;
pub use signal::{Condition, Signal};
pub use time::{SimDuration, SimTime};
