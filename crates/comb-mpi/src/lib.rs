//! # comb-mpi — a from-scratch MPI-subset message-passing library
//!
//! The messaging substrate the COMB benchmark measures: non-blocking
//! sends/receives with tag+source matching (including wildcards and an
//! unexpected-message queue), eager and RTS/CTS/DATA rendezvous protocols,
//! and — the property at the heart of the paper — two *progress models*:
//!
//! * [`comb_hw::ProgressModel::Library`] (MPICH/GM-like): protocol messages
//!   park in the NIC receive ring and are processed only inside MPI calls.
//!   No application offload; violates the MPI Progress Rule.
//! * [`comb_hw::ProgressModel::Offload`] (Portals/EMP-like): the transport
//!   matches and completes messages with no library call in flight.
//!
//! ```
//! use comb_hw::{Cluster, HwConfig};
//! use comb_mpi::{MpiWorld, Payload, Rank, Tag};
//! use comb_sim::Simulation;
//!
//! let mut sim = Simulation::new();
//! let cluster = Cluster::build(&sim.handle(), &HwConfig::gm_myrinet(), 2);
//! let world = MpiWorld::attach(&cluster);
//!
//! let (m0, m1) = (world.proc(Rank(0)), world.proc(Rank(1)));
//! let probe = sim.probe::<u64>();
//! sim.spawn("rank0", move |ctx| {
//!     m0.send(ctx, Rank(1), Tag(7), Payload::synthetic(100 * 1024));
//! });
//! let p = probe.clone();
//! sim.spawn("rank1", move |ctx| {
//!     let (st, _) = m1.recv(ctx, Rank(0), Tag(7));
//!     p.set(st.len);
//! });
//! sim.run().unwrap();
//! assert_eq!(probe.get(), Some(100 * 1024));
//! ```

#![warn(missing_docs)]

mod api;
mod collectives;
mod engine;
mod matching;
mod protocol;
mod request;
mod types;

pub use api::{MpiProc, MpiWorld, BARRIER_TAG};
pub use collectives::ReduceOp;
pub use engine::{MpiEngine, MpiStats};
pub use protocol::CTL_BYTES;
pub use request::RequestHandle;
// Not part of the API: the engine owns every request. Exported only so
// `tests/request_table.rs` can check the table against a model.
#[doc(hidden)]
pub use request::RequestTable;
pub use types::{Envelope, MpiError, Payload, Rank, RankSel, Status, Tag, TagSel};
