//! `wmn-metrics` — measurement, aggregation and reporting.
//!
//! Replaces the awk-over-trace-files post-processing of an ns-2 evaluation
//! with typed streaming statistics: Welford mean/variance accumulators,
//! Jain's fairness index (CNLR's load-balance metric), Student-t confidence
//! intervals over replications, a scoped-thread parallel job pool, and
//! markdown/CSV result tables. (Log-scaled histograms live in
//! `wmn_telemetry::LogHistogram`.)

#![warn(missing_docs)]

pub mod ci;
pub mod fairness;
pub mod recovery;
pub mod replicate;
pub mod series;
pub mod table;
pub mod welford;

pub use ci::{t_critical_95, MeanCi};
pub use fairness::{coefficient_of_variation, hotspot_factor, jain_index};
pub use recovery::{pdr_during_outages, time_to_reconverge, RecoveryTracker};
pub use replicate::{default_threads, run_jobs, run_replications, seeds_from};
pub use series::{Bin, ProbeSeries, TimeSeries};
pub use table::{fmt_f, ResultTable};
pub use welford::Welford;
