//! # comb-hw — simulated cluster hardware
//!
//! The hardware substrate the COMB reproduction runs on: host CPUs with
//! interrupt stealing, two NIC personalities (GM-like OS-bypass and
//! Portals-like kernel/interrupt), a switch fabric, and the calibrated
//! platform presets ([`HwConfig::gm_myrinet`], [`HwConfig::portals_myrinet`]).
//!
//! The substitution rationale (what the paper's physical testbed maps to
//! here) is documented in `DESIGN.md` §1.

#![warn(missing_docs)]

pub mod config;
pub mod cpu;
pub mod fault;
pub mod interrupt;
pub mod link;
pub mod loss;
pub mod nic;
pub mod node;
pub mod packet;
pub mod perturb;
pub mod switch;

pub use config::{
    CpuConfig, HwConfig, LinkConfig, MpiCostConfig, NicConfig, NicKind, ProgressModel,
    RndvRetryConfig, SmpConfig,
};
pub use cpu::{ComputeSample, Cpu, CpuStats};
pub use fault::{DegradeSpec, FaultPlan, FaultStats, LossSpec, NoiseSpec, StallSpec, StormSpec};
pub use nic::{
    burst_batched_packets_total, DeliveryClass, Nic, NicStats, NodeId, RxHandler, TxDone, WireMsg,
};
pub use node::{Cluster, Node};
pub use perturb::{PerturbPlan, DEFAULT_PERTURB_SEED};
pub use switch::Fabric;
