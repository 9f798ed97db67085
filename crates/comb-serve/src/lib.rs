//! # comb-serve — the HTTP benchmark-serving subsystem
//!
//! Serves COMB sweep and figure results over a dependency-free HTTP/1.1
//! server (`std::net` only, matching the repo's vendored-offline
//! constraint), layered on the worker pool and the
//! content-addressed cell cache:
//!
//! * `POST /v1/sweep` — canonical JSON sweep description → the exact
//!   bytes `comb sweep` would print. Identical concurrent requests are
//!   single-flighted through the cache's in-process map (one computes,
//!   the rest join); repeats are served from memory.
//! * `GET /v1/jobs/<id>` / `GET /v1/jobs/<id>/events` — job status and a
//!   chunked live event stream for a running request. Every running job
//!   and the most recent [`jobs::FINISHED_JOBS_KEPT`] finished ones are
//!   kept; an evicted id answers `404`.
//! * `GET /v1/figures/<name>.csv` — byte-identical to `comb figure`'s
//!   CSV export.
//! * `GET /healthz`, `GET /metrics` — liveness and counters (requests,
//!   admission rejections, cache hit/miss/joined, p50/p99 latency).
//! * `POST /admin/shutdown` — loopback-only graceful drain.
//!
//! Each frame goes out in one write and each connection is read through
//! one [`http::RequestReader`], so pipelined requests are answered in
//! order.
//!
//! Admission is bounded by an [`comb_core::AdmissionGate`]: when
//! `workers + queue` connections are in the building, new ones are
//! refused with `429` + `Retry-After` instead of growing memory. See
//! [`server`] for the threading model.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod chaos;
pub mod fuzz;
pub mod http;
pub mod jobs;
pub mod json;
pub mod metrics;
pub mod netfault;
pub mod overload;
pub mod server;
pub mod sweepreq;

pub use chaos::{run_serve_soak, ServeSoakConfig, ServeSoakReport};
pub use fuzz::{run_fuzz, FuzzConfig, FuzzReport};
pub use http::{client_request, ClientResponse};
pub use jobs::{Job, JobRegistry, JobState};
pub use json::Json;
pub use metrics::{metric_value, ServeMetrics};
pub use netfault::{FaultedStream, NetFaultCounters, NetFaultPlan};
pub use overload::{CircuitBreaker, Quarantine};
pub use server::{ServeConfig, Server, ServerHandle};
pub use sweepreq::SweepRequest;
