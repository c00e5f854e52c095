#![warn(missing_docs)]

//! SSN-as-a-service: a hardened, zero-dependency HTTP server over the
//! estimation suite.
//!
//! The crate exposes the five analysis entry points — `estimate`,
//! `budget`, `montecarlo`, `sweep`, `validate` — over a hand-rolled
//! HTTP/1.1 layer built entirely on `std::net`. Robustness is the
//! headline, not the protocol:
//!
//! * **Strict parsing** ([`http`]): hard caps on request line, header
//!   count/size, and body; every malformed input maps to a typed 4xx —
//!   the malformed-HTTP fuzz suite asserts no input can panic the server.
//! * **Deadlines everywhere** ([`server`]): each connection runs under a
//!   [`ssn_core::durable::RunBudget`]; socket reads and writes carry
//!   timeouts derived from its remaining time (slow-loris and
//!   stalled-writer defense).
//! * **Admission control** ([`jobs`]): a bounded job queue that sheds
//!   load with `503` + `Retry-After` instead of queueing unboundedly,
//!   with queue-depth and shed-count telemetry.
//! * **Crash-safe jobs** ([`jobs`], [`cache`]): large requests become
//!   durable jobs journaled through the PR-5 checkpoint store under a
//!   journal lock; `kill -9` → restart → resubmit resumes the journal
//!   and produces *byte-identical* results. Completed bodies live in a
//!   content-addressed cache keyed on the canonical request digest.
//! * **Graceful drain** ([`server`]): stop accepting, finish or
//!   checkpoint in-flight work, exit with a documented code.
//! * **Fault injection** ([`ServerConfig::faults`]): the server's share of
//!   the `ssn_core::faults` plane — deterministic torn bodies,
//!   mid-response disconnects and injected handler panics, plus storage
//!   faults on the cache and spool — armed in release binaries via
//!   `SSN_FAULTS`, exercised by the CI smoke gate and the `serve_load`
//!   generator.

pub mod api;
pub mod cache;
pub mod client;
pub mod http;
pub mod jobs;
pub mod json;
pub mod server;

pub use api::{ApiError, ApiRequest, Endpoint};
pub use server::{DrainReport, ServeError, Server, ServerConfig};
