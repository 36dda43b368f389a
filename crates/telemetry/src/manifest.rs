//! Run manifests: self-describing provenance attached to every figure
//! binary's `results/` output.

use crate::counters::Counters;
use crate::json::{object, parse, Decimals, FromJson, JsonValue, Layout, Pairs};
use crate::profile::sample_host;
use std::sync::OnceLock;

/// Everything needed to reproduce and audit one figure run.
#[derive(Clone, Debug, Default)]
pub struct RunManifest {
    /// Figure identifier (`fig1`, `tab2`, …).
    pub id: String,
    /// Human title.
    pub title: String,
    /// `git rev-parse HEAD` at run time (`"unknown"` outside a checkout).
    pub git_rev: String,
    /// Scheme labels swept.
    pub schemes: Vec<String>,
    /// Replication seeds.
    pub seeds: Vec<u64>,
    /// x-axis values swept.
    pub xs: Vec<f64>,
    /// Free-form `(name, value)` parameters (durations, topology, …).
    pub params: Vec<(String, String)>,
    /// Wall-clock duration of the sweep, seconds.
    pub wall_s: f64,
    /// Total engine events processed across all replications.
    pub events_processed: u64,
    /// Logical cores on the host that produced this run (0 = unknown).
    pub host_cores: u64,
    /// Peak resident set size of the producing process in bytes
    /// (`VmHWM`; 0 = unavailable).
    pub peak_rss_bytes: u64,
    /// Aggregated counter registry across all replications.
    pub counters: Counters,
    /// Checkpoint lineage: one entry per run segment, oldest first
    /// (`"fresh"`, then `"resumed from ckpt_epoch_N at <dir>"` per resume).
    /// Empty for runs without checkpointing, and omitted from the JSON so
    /// pre-existing manifests are byte-identical.
    pub lineage: Vec<String>,
}

impl RunManifest {
    /// A manifest of this process, now: `git_rev`, `host_cores` and
    /// `peak_rss_bytes` are stamped here, the rest is for the caller's
    /// struct update to fill.
    pub fn stamped(id: impl Into<String>, title: impl Into<String>) -> RunManifest {
        let host = sample_host();
        RunManifest {
            id: id.into(),
            title: title.into(),
            git_rev: git_rev(),
            host_cores: host.host_cores,
            peak_rss_bytes: host.peak_rss_bytes,
            ..RunManifest::default()
        }
    }

    /// Render as JSON, one top-level member per line.
    pub fn to_json(&self) -> String {
        object(Layout::Lines, |o| {
            o.field("id", &self.id)
                .field("title", &self.title)
                .field("git_rev", &self.git_rev)
                .field("schemes", &self.schemes)
                .field("seeds", &self.seeds)
                .field("xs", &self.xs)
                .field("params", &Pairs(self.params.iter().map(|(k, v)| (k, v))))
                .field("wall_s", &Decimals(self.wall_s, Some(3)))
                .field("events_processed", &self.events_processed)
                .field("host_cores", &self.host_cores)
                .field("peak_rss_bytes", &self.peak_rss_bytes);
            if !self.lineage.is_empty() {
                o.field("lineage", &self.lineage);
            }
            o.field_in("counters", &self.counters, Layout::Compact);
        })
    }

    /// Read a manifest back. The members added after the first manifests
    /// were committed (`host_cores`, `peak_rss_bytes`, `lineage`) read as
    /// their documented "unknown" when absent; a document missing any
    /// other member, or holding one of the wrong shape, is refused.
    pub fn from_json(text: &str) -> Option<RunManifest> {
        fn later<T: FromJson + Default>(v: &JsonValue, key: &str) -> Option<T> {
            v.get(key).map_or(Some(T::default()), T::read_json)
        }
        let v = parse(text)?;
        Some(RunManifest {
            id: v.field("id")?,
            title: v.field("title")?,
            git_rev: v.field("git_rev")?,
            schemes: v.field("schemes")?,
            seeds: v.field("seeds")?,
            xs: v.field("xs")?,
            params: v.field("params")?,
            wall_s: v.field("wall_s")?,
            events_processed: v.field("events_processed")?,
            host_cores: later(&v, "host_cores")?,
            peak_rss_bytes: later(&v, "peak_rss_bytes")?,
            counters: v.field("counters")?,
            lineage: later(&v, "lineage")?,
        })
    }

    /// Write `<dir>/<id>_manifest.json`; returns the path written.
    pub fn write(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}_manifest.json", self.id));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// The current git revision, or `"unknown"` outside a repository. `git` is
/// asked once per process, however many manifests it stamps.
pub fn git_rev() -> String {
    static REV: OnceLock<String> = OnceLock::new();
    REV.get_or_init(|| {
        std::process::Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    })
    .clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_json_has_all_sections() {
        let mut counters = Counters::new();
        counters.add("rreq_originated", 12);
        let m = RunManifest {
            id: "figX".into(),
            title: "PDR vs load".into(),
            git_rev: "abc123".into(),
            schemes: vec!["cnlr".into(), "flooding".into()],
            seeds: vec![1, 2, 3],
            xs: vec![5.0, 10.0],
            params: vec![("duration_s".into(), "60".into())],
            wall_s: 1.25,
            events_processed: 1000,
            host_cores: 4,
            peak_rss_bytes: 123_456_789,
            counters,
            lineage: vec![],
        };
        let j = m.to_json();
        assert!(
            !j.contains("lineage"),
            "empty lineage must be omitted for byte-compat"
        );
        for needle in [
            "\"id\": \"figX\"",
            "\"git_rev\": \"abc123\"",
            "\"schemes\": [\"cnlr\", \"flooding\"]",
            "\"seeds\": [1, 2, 3]",
            "\"duration_s\": \"60\"",
            "\"events_processed\": 1000",
            "\"host_cores\": 4",
            "\"peak_rss_bytes\": 123456789",
            "\"rreq_originated\":12",
        ] {
            assert!(j.contains(needle), "missing {needle} in:\n{j}");
        }
        let back = RunManifest::from_json(&j).expect("own output parses");
        assert_eq!(back.counters.get("rreq_originated"), 12);
        assert_eq!(back.to_json(), j);
    }

    #[test]
    fn lineage_is_emitted_when_present() {
        let m = RunManifest {
            id: "figY".into(),
            lineage: vec![
                "fresh".into(),
                "resumed from ckpt_epoch_42 at results/ckpt".into(),
            ],
            ..RunManifest::default()
        };
        let j = m.to_json();
        assert!(
            j.contains("\"lineage\": [\"fresh\", \"resumed from ckpt_epoch_42 at results/ckpt\"]")
        );
    }

    #[test]
    fn write_creates_named_file() {
        let dir = std::env::temp_dir().join("wmn_manifest_test");
        let m = RunManifest {
            id: "figtest".into(),
            ..RunManifest::default()
        };
        let path = m.write(&dir).expect("write");
        assert!(path.ends_with("figtest_manifest.json"));
        assert!(path.exists());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn git_rev_never_panics() {
        let r = git_rev();
        assert!(!r.is_empty());
    }
}
