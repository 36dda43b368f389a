//! Telemetry configuration: what a caller asks one simulation to record.
//!
//! Nothing here reads the process environment — a run records exactly
//! what its caller configured (`wmn-sim --trace-out`, a test's in-memory
//! sink, the daemon's probe stream), and nothing otherwise.

use crate::sink::{FileSink, SharedSink};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use wmn_sim::SimDuration;

/// Resolved telemetry settings for one simulation.
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetryConfig {
    /// Master switch; when false nothing is collected or scheduled.
    pub enabled: bool,
    /// JSONL output path (used when no explicit sink is supplied).
    pub trace_path: Option<std::path::PathBuf>,
    /// Per-node probe tick; `None` disables probes.
    pub probe_interval: Option<SimDuration>,
    /// Event-loop profiling probes (events/sec, heap depth).
    pub profile: bool,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig::disabled()
    }
}

impl TelemetryConfig {
    /// Telemetry fully off (the zero-cost default).
    pub fn disabled() -> Self {
        TelemetryConfig {
            enabled: false,
            trace_path: None,
            probe_interval: None,
            profile: false,
        }
    }

    /// Enabled with defaults: 1 s probes, no profiling, `trace.jsonl`.
    pub fn enabled() -> Self {
        TelemetryConfig {
            enabled: true,
            trace_path: Some("trace.jsonl".into()),
            probe_interval: Some(SimDuration::from_secs(1)),
            profile: false,
        }
    }

    /// Create (truncate) the JSONL file this configuration names. `None`
    /// when disabled; an error when the file cannot be created or an
    /// enabled configuration names none.
    pub fn open_sink(&self) -> std::io::Result<Option<SharedSink>> {
        if !self.enabled {
            return Ok(None);
        }
        let path = self.trace_path.as_deref().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "no trace path")
        })?;
        Ok(Some(Arc::new(Mutex::new(FileSink::create(path)?))))
    }
}

static NEXT_RUN: AtomicU32 = AtomicU32::new(0);

/// Allocate the next process-unique run id (stamped on every event of one
/// simulation so several runs recorded into one sink stay separable).
pub fn next_run_id() -> u32 {
    NEXT_RUN.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_opens_no_sink() {
        let cfg = TelemetryConfig::disabled();
        assert!(!cfg.enabled);
        assert!(cfg.open_sink().unwrap().is_none());
    }

    #[test]
    fn enabled_defaults() {
        let cfg = TelemetryConfig::enabled();
        assert!(cfg.enabled);
        assert_eq!(cfg.probe_interval, Some(SimDuration::from_secs(1)));
        assert!(!cfg.profile);
    }

    #[test]
    fn run_ids_are_unique() {
        let a = next_run_id();
        let b = next_run_id();
        assert_ne!(a, b);
    }

    #[test]
    fn an_uncreatable_or_missing_path_is_an_error() {
        let cfg = TelemetryConfig {
            trace_path: Some("/nonexistent/dir/t.jsonl".into()),
            ..TelemetryConfig::enabled()
        };
        assert!(cfg.open_sink().is_err());
        let cfg = TelemetryConfig {
            trace_path: None,
            ..TelemetryConfig::enabled()
        };
        assert!(cfg.open_sink().is_err());
    }
}
