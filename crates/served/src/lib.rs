//! `wmn-served` — the scenario-service subsystem (DESIGN.md §4.6).
//!
//! A long-running daemon accepts scenario jobs as newline-delimited JSON
//! over a Unix-domain socket, validates them into [`ScenarioSpec`]s, and
//! runs them on a bounded-worker scheduler that dedupes shared scenario
//! prefixes: jobs that agree on every prefix-relevant setting (same
//! [`cnlr::ScenarioBuilder::prefix_fingerprint`]) share one built topology
//! and flow draw and, when static and fault-free, a warm link-budget
//! cache. Both hand-offs are pure performance — results are bit-identical to
//! independent one-shot runs, and the figure-sweep byte-identity tests
//! hold the subsystem to exactly that.
//!
//! The crate ships three faces:
//! - [`Server`] — the embeddable service core (the `wmn-served` binary and
//!   the integration tests both drive this),
//! - [`Client`] — a blocking line-protocol client (the `wmn-submit` binary
//!   and the `--served` figure sweeps are thin wrappers over it),
//! - [`ScenarioSpec`] — the one scenario description, re-exported from
//!   [`cnlr::spec`] where it is defined.

pub mod client;
pub mod proto;
pub mod server;
pub use cnlr::spec;

pub use client::{Client, ClientError};
pub use proto::{
    standard_metrics, JobInfo, JobListing, JobResult, Request, ServiceStats, ServiceStatus,
    PROTOCOL_VERSION,
};
pub use server::{JobState, Server, ServerConfig};
pub use spec::ScenarioSpec;
