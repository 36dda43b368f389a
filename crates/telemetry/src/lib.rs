//! `wmn-telemetry` — the unified observability layer.
//!
//! Replaces the old string-ring tracer with a typed, zero-cost-when-off
//! pipeline: every layer emits [`TelemetryEvent`]s through a cloneable
//! [`Tel`] handle into a pluggable [`EventSink`] (JSONL file, in-memory for
//! tests, console for `--trace`). A disabled handle is a single `Option`
//! branch on the hot path and schedules no extra simulation events, so
//! disabled runs are byte-identical to an uninstrumented build.
//!
//! The crate also owns the [`Counters`] registry (one flat snake_case
//! namespace over every per-layer counter struct), the [`RunManifest`]
//! provenance record attached to figure outputs, and [`json`], the one
//! bounded JSON document codec every artefact and wire line is read and
//! written through (the build environment is offline, so it is hand-rolled).

#![warn(missing_docs)]

pub mod config;
pub mod counters;
pub mod event;
pub mod export;
pub mod histogram;
pub mod json;
pub mod manifest;
pub mod merge;
pub mod profile;
pub mod sink;

pub use config::{next_run_id, TelemetryConfig};
pub use counters::{counter_for_ctrl_drop, Counters};
pub use event::{
    counter_for_drop, counter_for_event, DropReason, EventKind, FaultCode, TelemetryEvent,
};
pub use export::profile_to_prometheus;
pub use histogram::LogHistogram;
pub use json::{parse_object, JsonValue};
pub use manifest::{git_rev, RunManifest};
pub use merge::{first_divergence, merge_region_traces, Divergence, FieldDelta};
pub use profile::{sample_host, HostSample, RegionProfile, ShardProfile, ShardProfiler};
pub use sink::{ConsoleSink, EventSink, FileSink, HashSink, MemorySink, SharedSink, Tel};
