//! Shard-engine execution profiling.
//!
//! [`ShardProfiler`] implements [`wmn_sim::shard::ShardProbe`] and folds the
//! per-epoch window samples delivered by the engine into a [`ShardProfile`]:
//! per-region totals (events, busy/barrier-wait wall time, outbox volume,
//! stall attribution) plus log-scale histograms for event service time,
//! queue depth, and epoch width, and a host sample (cores, peak RSS).
//!
//! Field discipline: everything in the profile except `*_ns` wall-clock
//! fields and the host sample is derived purely from simulation state, so it
//! is bit-identical for any worker count. [`ShardProfile::sim_fingerprint`]
//! captures exactly that deterministic subset for tests.

use crate::histogram::LogHistogram;
use crate::json::{object, parse, write_object, FromJson, JsonValue, Layout, ToJson};
use crate::json_members;
use wmn_sim::checkpoint::{ByteReader, ByteWriter, CheckpointError};
use wmn_sim::shard::{ShardProbe, ShardRunReport, WindowSample};

/// Schema tag written into every profile artifact.
pub const PROFILE_SCHEMA: &str = "wmn-shard-profile/1";

/// A point-in-time sample of the host and process.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HostSample {
    /// Logical cores available to this process.
    pub host_cores: u64,
    /// Peak resident set size in bytes (`VmHWM`), 0 if unavailable.
    pub peak_rss_bytes: u64,
    /// OS threads in this process, 0 if unavailable.
    pub process_threads: u64,
}

/// Sample the host: core count from the runtime, peak RSS and thread count
/// from `/proc/self/status` (zeros on platforms without procfs).
pub fn sample_host() -> HostSample {
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(0);
    let mut s = HostSample {
        host_cores,
        ..HostSample::default()
    };
    if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                if let Some(kb) = rest
                    .split_whitespace()
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                {
                    s.peak_rss_bytes = 1024 * kb;
                }
            } else if let Some(rest) = line.strip_prefix("Threads:") {
                s.process_threads = rest.trim().parse().unwrap_or(0);
            }
        }
    }
    s
}

/// Per-region execution totals accumulated over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegionProfile {
    /// Region index.
    pub region: u32,
    /// Events executed by this region.
    pub events: u64,
    /// Wall time spent executing windows (wall-clock; excluded from the
    /// deterministic fingerprint).
    pub busy_ns: u64,
    /// Wall time spent waiting at epoch barriers: epoch wall minus this
    /// region's own window time, summed over epochs (wall-clock).
    pub wait_ns: u64,
    /// Cross-region events this region emitted (outbox volume).
    pub outbox: u64,
    /// Epochs in which this region had a window to run.
    pub active_windows: u64,
    /// Epochs in which this region had pending events but no window — it
    /// was stalled behind another region's safe horizon.
    pub stalled_windows: u64,
    /// Epochs in which this region's clock was the binding constraint on
    /// some other region's safe horizon (stall-source count).
    pub bound_others: u64,
    /// Largest event-queue depth observed at an epoch boundary.
    pub max_queue: u64,
}

impl RegionProfile {
    /// Share of barrier-synchronised wall time this region spent busy
    /// (`busy / (busy + wait)`), or 0.0 with no samples.
    pub fn utilisation(&self) -> f64 {
        let total = self.busy_ns + self.wait_ns;
        if total == 0 {
            0.0
        } else {
            self.busy_ns as f64 / total as f64
        }
    }
}

json_members!(RegionProfile {
    "region" => region,
    "events" => events,
    "busy_ns" => busy_ns,
    "wait_ns" => wait_ns,
    "outbox" => outbox,
    "active_windows" => active_windows,
    "stalled_windows" => stalled_windows,
    "bound_others" => bound_others,
    "max_queue" => max_queue,
});

impl ToJson for RegionProfile {
    fn write_json(&self, out: &mut String, layout: Layout) {
        write_object(out, layout, |o| self.write_members(o))
    }
}

impl FromJson for RegionProfile {
    fn read_json(v: &JsonValue) -> Option<Self> {
        let mut region = RegionProfile::default();
        region.read_members(v)?;
        Some(region)
    }
}

/// A complete execution profile of one sharded-engine run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ShardProfile {
    /// Schema tag ([`PROFILE_SCHEMA`]).
    pub schema: String,
    /// Worker threads requested for the run.
    pub threads: u64,
    /// Number of regions.
    pub regions: u64,
    /// Epoch barriers executed.
    pub epochs: u64,
    /// Total events processed.
    pub events: u64,
    /// Cross-region events merged.
    pub cross_region: u64,
    /// Committed simulation end time in nanoseconds.
    pub end_time_ns: u64,
    /// Total run wall time (wall-clock).
    pub wall_ns: u64,
    /// Wall time spent in the deterministic outbox merge (wall-clock).
    pub merge_ns: u64,
    /// Epochs in which the work-stealing scheduler packed regions onto
    /// workers (0 when stealing was off or the run was serial).
    pub steal_epochs: u64,
    /// Total regions moved off their previous worker by the scheduler
    /// (wall-clock-derived: the schedule follows measured busy times).
    pub regions_moved: u64,
    /// Sum over steal epochs of the post-steal imbalance (busiest worker's
    /// measured window time over the pool mean, ×1000); divide by
    /// [`steal_epochs`](ShardProfile::steal_epochs) for the mean
    /// (wall-clock-derived).
    pub steal_imbalance_milli_sum: u64,
    /// Host sample taken when the profile was finalised.
    pub host: HostSample,
    /// Per-region totals, ascending by region index.
    pub per_region: Vec<RegionProfile>,
    /// Wall time per event within a window (`busy_ns / events`; wall-clock).
    pub service_ns: LogHistogram,
    /// Event-queue depth per region per epoch boundary.
    pub queue_depth: LogHistogram,
    /// Width of bounded safe windows in nanoseconds (sim time).
    pub epoch_width_ns: LogHistogram,
}

impl ShardProfile {
    /// Ratio of the busiest region's event count to the mean region event
    /// count (1.0 = perfectly balanced), or 0.0 with no events.
    pub fn imbalance_factor(&self) -> f64 {
        if self.per_region.is_empty() || self.events == 0 {
            return 0.0;
        }
        let max = self.per_region.iter().map(|r| r.events).max().unwrap_or(0);
        let mean = self.events as f64 / self.per_region.len() as f64;
        max as f64 / mean
    }

    /// Share of all regions' barrier-synchronised wall time spent waiting
    /// rather than executing (`Σ wait / Σ (busy + wait)`).
    pub fn barrier_wait_share(&self) -> f64 {
        let busy: u64 = self.per_region.iter().map(|r| r.busy_ns).sum();
        let wait: u64 = self.per_region.iter().map(|r| r.wait_ns).sum();
        if busy + wait == 0 {
            0.0
        } else {
            wait as f64 / (busy + wait) as f64
        }
    }

    /// Mean regions moved per steal epoch (0.0 when stealing never ran).
    pub fn regions_moved_per_epoch(&self) -> f64 {
        if self.steal_epochs == 0 {
            0.0
        } else {
            self.regions_moved as f64 / self.steal_epochs as f64
        }
    }

    /// Mean post-steal imbalance factor (busiest worker over pool mean;
    /// 1.0 = perfectly balanced, 0.0 when stealing never ran).
    pub fn post_steal_imbalance(&self) -> f64 {
        if self.steal_epochs == 0 {
            0.0
        } else {
            self.steal_imbalance_milli_sum as f64 / self.steal_epochs as f64 / 1000.0
        }
    }

    /// Regions that most often set the binding safe horizon for others,
    /// as `(region, epochs_bound)` descending; ties broken by region index.
    pub fn top_stall_sources(&self, k: usize) -> Vec<(u32, u64)> {
        let mut v: Vec<(u32, u64)> = self
            .per_region
            .iter()
            .filter(|r| r.bound_others > 0)
            .map(|r| (r.region, r.bound_others))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    /// A canonical string over only the simulation-derived fields (no wall
    /// clocks, no host sample). Equal across worker counts by construction;
    /// tests assert exactly that.
    pub fn sim_fingerprint(&self) -> String {
        let mut out = format!(
            "regions={} epochs={} events={} cross_region={} end_time_ns={}\n",
            self.regions, self.epochs, self.events, self.cross_region, self.end_time_ns
        );
        for r in &self.per_region {
            out.push_str(&format!(
                "r{} events={} outbox={} active={} stalled={} bound_others={} max_queue={}\n",
                r.region,
                r.events,
                r.outbox,
                r.active_windows,
                r.stalled_windows,
                r.bound_others,
                r.max_queue
            ));
        }
        out.push_str(&format!("queue_depth={}\n", self.queue_depth.to_json()));
        out.push_str(&format!(
            "epoch_width_ns={}\n",
            self.epoch_width_ns.to_json()
        ));
        out
    }

    /// Serialise as JSON: one top-level member per line, each region and
    /// each histogram a compact object on a line of its own.
    pub fn to_json(&self) -> String {
        object(Layout::Lines, |o| {
            self.write_members(o);
            o.field_in("per_region", &self.per_region, Layout::Rows)
                .field_in("service_ns", &self.service_ns, Layout::Compact)
                .field_in("queue_depth", &self.queue_depth, Layout::Compact)
                .field_in("epoch_width_ns", &self.epoch_width_ns, Layout::Compact);
        })
    }

    /// Read a profile back. A document that is cut short, lacks a member
    /// or carries another `schema` tag is refused, never read as zeros.
    pub fn from_json(text: &str) -> Option<Self> {
        let v = parse(text)?;
        let mut p = ShardProfile {
            per_region: v.field("per_region")?,
            service_ns: v.field("service_ns")?,
            queue_depth: v.field("queue_depth")?,
            epoch_width_ns: v.field("epoch_width_ns")?,
            ..ShardProfile::default()
        };
        p.read_members(&v)?;
        (p.schema == PROFILE_SCHEMA).then_some(p)
    }
}

json_members!(ShardProfile {
    "schema" => schema,
    "threads" => threads,
    "regions" => regions,
    "epochs" => epochs,
    "events" => events,
    "cross_region" => cross_region,
    "end_time_ns" => end_time_ns,
    "wall_ns" => wall_ns,
    "merge_ns" => merge_ns,
    "steal_epochs" => steal_epochs,
    "regions_moved" => regions_moved,
    "steal_imbalance_milli_sum" => steal_imbalance_milli_sum,
    "host_cores" => host.host_cores,
    "peak_rss_bytes" => host.peak_rss_bytes,
    "process_threads" => host.process_threads,
});

/// A [`ShardProbe`] that accumulates a [`ShardProfile`].
///
/// Create one, pass `Some(&mut profiler)` to
/// [`ShardedEngine::run_probed`](wmn_sim::shard::ShardedEngine::run_probed),
/// then call [`finish`](ShardProfiler::finish).
#[derive(Debug)]
pub struct ShardProfiler {
    /// The profile so far; `regions` and `host` are set by
    /// [`finish`](ShardProfiler::finish).
    profile: ShardProfile,
    /// Each region's window time in the epoch under way.
    cur_busy: Vec<u64>,
}

impl ShardProfiler {
    /// New profiler for a run with `threads` workers.
    pub fn new(threads: usize) -> Self {
        let profile = ShardProfile {
            schema: PROFILE_SCHEMA.to_string(),
            threads: threads as u64,
            ..ShardProfile::default()
        };
        Self {
            profile,
            cur_busy: Vec::new(),
        }
    }

    fn grow_to(&mut self, region: u32) {
        let regions = &mut self.profile.per_region;
        while regions.len() <= region as usize {
            regions.push(RegionProfile {
                region: regions.len() as u32,
                ..RegionProfile::default()
            });
            self.cur_busy.push(0);
        }
    }

    /// Finalise into a [`ShardProfile`], sampling the host.
    pub fn finish(self) -> ShardProfile {
        ShardProfile {
            regions: self.profile.per_region.len() as u64,
            host: sample_host(),
            ..self.profile
        }
    }
}

impl ShardProbe for ShardProfiler {
    fn window(&mut self, s: &WindowSample) {
        self.grow_to(s.region);
        if s.bound_by >= 0 {
            self.grow_to(s.bound_by as u32);
            self.profile.per_region[s.bound_by as usize].bound_others += 1;
        }
        let r = &mut self.profile.per_region[s.region as usize];
        r.events += s.events;
        r.outbox += s.outbox;
        r.max_queue = r.max_queue.max(s.queue_depth);
        if s.active {
            r.active_windows += 1;
            r.busy_ns += s.busy_ns;
            self.cur_busy[s.region as usize] = s.busy_ns;
            self.profile.service_ns.record(s.busy_ns / s.events.max(1));
        } else if s.queue_depth > 0 {
            r.stalled_windows += 1;
        }
        self.profile.queue_depth.record(s.queue_depth);
        if s.window_end_ns != u64::MAX {
            self.profile
                .epoch_width_ns
                .record(s.window_end_ns.saturating_sub(s.window_start_ns));
        }
    }

    fn epoch_end(&mut self, epoch: u64, wall_ns: u64, _merged: u64, merge_ns: u64) {
        self.profile.epochs = epoch;
        self.profile.merge_ns += merge_ns;
        for (r, busy) in self
            .profile
            .per_region
            .iter_mut()
            .zip(self.cur_busy.iter_mut())
        {
            r.wait_ns += wall_ns.saturating_sub(*busy);
            *busy = 0;
        }
    }

    fn steal(&mut self, _epoch: u64, moved: u64, imbalance_milli: u64) {
        self.profile.steal_epochs += 1;
        self.profile.regions_moved += moved;
        self.profile.steal_imbalance_milli_sum += imbalance_milli;
    }

    fn run_end(&mut self, report: &ShardRunReport, wall_ns: u64) {
        self.profile.wall_ns = wall_ns;
        self.profile.events = report.events_processed;
        self.profile.cross_region = report.cross_region;
        self.profile.end_time_ns = report.end_time.as_nanos();
        // Regions that never sent a window sample still exist; size from
        // the report so `regions` is right even for degenerate runs.
        if report.per_region.len() > self.profile.per_region.len() {
            self.grow_to(report.per_region.len() as u32 - 1);
        }
    }

    /// The profile so far is plain counters, so its lossless JSON codec is
    /// the checkpoint encoding too.
    fn encode_probe(&self, out: &mut ByteWriter) {
        out.bytes(self.profile.to_json().as_bytes());
    }

    fn decode_probe(&mut self, r: &mut ByteReader<'_>) -> Result<(), CheckpointError> {
        let saved = (std::str::from_utf8(r.bytes()?).ok())
            .and_then(ShardProfile::from_json)
            .ok_or_else(|| CheckpointError::Corrupt("unreadable profile blob".into()))?;
        // Checkpoints land at epoch barriers, after epoch_end zeroed the
        // per-epoch busy scratch: all-zero is the exact saved state.
        self.cur_busy = vec![0; saved.per_region.len()];
        // The resuming run may use another worker count; that one is kept.
        self.profile = ShardProfile {
            threads: self.profile.threads,
            ..saved
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profile() -> ShardProfile {
        let mut profiler = ShardProfiler::new(2);
        for epoch in 1..=3u64 {
            for region in 0..2u32 {
                profiler.window(&WindowSample {
                    epoch,
                    region,
                    active: region == 0 || epoch > 1,
                    events: 10 * (region as u64 + 1),
                    busy_ns: 500 + region as u64,
                    queue_depth: 4 + epoch,
                    outbox: region as u64,
                    window_start_ns: epoch * 1000,
                    window_end_ns: epoch * 1000 + 250,
                    bound_by: if region == 0 { 1 } else { -1 },
                });
            }
            profiler.epoch_end(epoch, 2000, 3, 100);
        }
        profiler.run_end(
            &ShardRunReport {
                reason: wmn_sim::shard::ShardStopReason::QueueEmpty,
                events_processed: 60,
                per_region: vec![30, 30],
                cross_region: 9,
                epochs: 3,
                end_time: wmn_sim::SimTime(4000),
            },
            123_456,
        );
        profiler.finish()
    }

    #[test]
    fn profiler_accumulates_and_attributes() {
        let p = sample_profile();
        assert_eq!(p.schema, PROFILE_SCHEMA);
        assert_eq!(p.regions, 2);
        assert_eq!(p.epochs, 3);
        assert_eq!(p.events, 60);
        assert_eq!(p.per_region[1].bound_others, 3);
        assert_eq!(p.per_region[0].bound_others, 0);
        assert_eq!(p.top_stall_sources(3), vec![(1, 3)]);
        assert!(p.barrier_wait_share() > 0.0 && p.barrier_wait_share() < 1.0);
        assert!(p.imbalance_factor() >= 1.0);
        assert_eq!(p.queue_depth.count(), 6);
        assert_eq!(p.epoch_width_ns.count(), 6);
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let p = sample_profile();
        let parsed = ShardProfile::from_json(&p.to_json()).expect("parse");
        assert_eq!(parsed, p);
        assert_eq!(parsed.sim_fingerprint(), p.sim_fingerprint());
    }

    #[test]
    fn probe_state_roundtrips_through_checkpoint_codec() {
        // Build a mid-run profiler (no run_end — checkpoints happen before
        // the run finishes), snapshot it, and restore into a fresh one.
        let mut profiler = ShardProfiler::new(4);
        for epoch in 1..=5u64 {
            for region in 0..3u32 {
                profiler.window(&WindowSample {
                    epoch,
                    region,
                    active: true,
                    events: 7 * (region as u64 + 1),
                    busy_ns: 900 + epoch,
                    queue_depth: epoch + region as u64,
                    outbox: 2,
                    window_start_ns: epoch * 1000,
                    window_end_ns: epoch * 1000 + 400,
                    bound_by: -1,
                });
            }
            profiler.epoch_end(epoch, 1500, 6, 80);
        }
        let mut w = ByteWriter::new();
        profiler.encode_probe(&mut w);
        let buf = w.into_inner();

        let mut restored = ShardProfiler::new(4);
        let mut r = ByteReader::new(&buf);
        restored.decode_probe(&mut r).expect("decode");
        r.expect_end().expect("fully consumed");

        // Finishing both must yield identical profiles (host sample aside).
        let mut a = profiler.finish();
        let mut b = restored.finish();
        a.host = HostSample::default();
        b.host = HostSample::default();
        assert_eq!(a, b);
        assert_eq!(a.sim_fingerprint(), b.sim_fingerprint());
    }

    #[test]
    fn probe_decode_rejects_garbage() {
        let mut restored = ShardProfiler::new(1);
        let garbage = vec![0xFFu8; 16];
        let mut r = ByteReader::new(&garbage);
        assert!(restored.decode_probe(&mut r).is_err());
    }

    #[test]
    fn fingerprint_excludes_wall_fields() {
        let a = sample_profile();
        let mut b = a.clone();
        b.wall_ns = 1;
        b.merge_ns = 2;
        // Scheduler decisions follow measured wall time, so they are
        // wall-clock-derived and must not perturb the fingerprint either.
        b.steal_epochs = 5;
        b.regions_moved = 17;
        b.steal_imbalance_milli_sum = 9001;
        b.host = HostSample::default();
        for r in &mut b.per_region {
            r.busy_ns = 7;
            r.wait_ns = 7;
        }
        b.service_ns = LogHistogram::new();
        assert_eq!(a.sim_fingerprint(), b.sim_fingerprint());
    }

    #[test]
    fn steal_decisions_accumulate_and_roundtrip() {
        let mut profiler = ShardProfiler::new(2);
        profiler.steal(1, 3, 1500);
        profiler.steal(2, 0, 1100);
        profiler.steal(3, 1, 1000);
        let mut w = ByteWriter::new();
        profiler.encode_probe(&mut w);
        let buf = w.into_inner();
        let mut restored = ShardProfiler::new(2);
        let mut r = ByteReader::new(&buf);
        restored.decode_probe(&mut r).expect("decode");
        let p = restored.finish();
        assert_eq!(p.steal_epochs, 3);
        assert_eq!(p.regions_moved, 4);
        assert!((p.regions_moved_per_epoch() - 4.0 / 3.0).abs() < 1e-9);
        assert!((p.post_steal_imbalance() - 1.2).abs() < 1e-9);
        // JSON roundtrip carries the steal fields too.
        let parsed = ShardProfile::from_json(&p.to_json()).expect("parse");
        assert_eq!(parsed.steal_epochs, 3);
        assert_eq!(parsed.regions_moved, 4);
        assert_eq!(parsed.steal_imbalance_milli_sum, 3600);
    }

    #[test]
    fn host_sample_sees_this_process() {
        let h = sample_host();
        assert!(h.host_cores >= 1);
        // procfs is present on the CI hosts; both fields should be live.
        assert!(h.peak_rss_bytes > 0);
        assert!(h.process_threads >= 1);
    }
}
