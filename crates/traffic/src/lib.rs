//! `wmn-traffic` — application-layer workload generation.
//!
//! Rebuilds the ns-2 `cbr`/exponential traffic agents: a scenario declares a
//! set of [`FlowSpec`]s (constant-bit-rate or Poisson sources), each
//! driven by a [`FlowState`] that yields successive packet emission times.
//! [`FlowTracker`] does the per-flow delivery bookkeeping that the
//! evaluation's PDR/delay/throughput figures are computed from.

#![warn(missing_docs)]

pub mod flow;
pub mod tracker;

pub use flow::{FlowSpec, FlowState, TrafficPattern};
pub use tracker::{FlowTracker, TrackerSummary};
