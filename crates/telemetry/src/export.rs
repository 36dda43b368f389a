//! Prometheus text-exposition export.
//!
//! Renders [`ShardProfile`] execution profiles in the Prometheus text
//! format (`# TYPE` headers, one sample per line, `{label="value"}`
//! selectors) so a scraper can read engine state. The format requires the
//! samples of one metric family to form one group under its `# TYPE` line,
//! so the export is written family by family. Pure string formatting; no
//! network code lives here.

use crate::profile::{RegionProfile, ShardProfile};

/// Prefix applied to every exported metric name.
const PREFIX: &str = "wmn_";

/// One metric family: its `# TYPE` line, then every `(labels, value)`
/// sample.
fn push_family(
    out: &mut String,
    name: &str,
    kind: &str,
    samples: impl IntoIterator<Item = (String, String)>,
) {
    out.push_str(&format!("# TYPE {PREFIX}{name} {kind}\n"));
    for (labels, value) in samples {
        out.push_str(&format!("{PREFIX}{name}{labels} {value}\n"));
    }
}

/// Render a [`ShardProfile`] as Prometheus samples: run-level gauges plus
/// per-region series labelled `{region="N"}`.
pub fn profile_to_prometheus(p: &ShardProfile) -> String {
    let mut out = String::new();
    let one = |value: String| [(String::new(), value)];
    for (name, kind, value) in [
        ("shard_events_total", "counter", p.events),
        ("shard_cross_region_events_total", "counter", p.cross_region),
        ("shard_epochs_total", "counter", p.epochs),
        ("shard_threads", "gauge", p.threads),
        ("shard_regions", "gauge", p.regions),
        ("shard_wall_ns", "gauge", p.wall_ns),
        ("shard_merge_ns", "gauge", p.merge_ns),
        ("shard_steal_epochs", "gauge", p.steal_epochs),
        ("shard_regions_moved_total", "gauge", p.regions_moved),
        ("host_cores", "gauge", p.host.host_cores),
        ("process_peak_rss_bytes", "gauge", p.host.peak_rss_bytes),
        ("process_threads", "gauge", p.host.process_threads),
    ] {
        push_family(&mut out, name, kind, one(value.to_string()));
    }
    for (name, value) in [
        ("shard_post_steal_imbalance", p.post_steal_imbalance()),
        ("shard_imbalance_factor", p.imbalance_factor()),
        ("shard_barrier_wait_share", p.barrier_wait_share()),
    ] {
        push_family(&mut out, name, "gauge", one(format!("{value:.6}")));
    }
    let label = |r: &RegionProfile| format!("{{region=\"{}\"}}", r.region);
    let rows: Vec<[u64; 6]> = (p.per_region.iter())
        .map(|r| {
            [
                r.events,
                r.busy_ns,
                r.wait_ns,
                r.outbox,
                r.stalled_windows,
                r.bound_others,
            ]
        })
        .collect();
    for (i, name) in [
        "shard_region_events_total",
        "shard_region_busy_ns_total",
        "shard_region_wait_ns_total",
        "shard_region_outbox_events_total",
        "shard_region_stalled_windows_total",
        "shard_region_bound_others_total",
    ]
    .into_iter()
    .enumerate()
    {
        let samples =
            (p.per_region.iter().zip(&rows)).map(|(r, row)| (label(r), row[i].to_string()));
        push_family(&mut out, name, "counter", samples);
    }
    let utilisation = (p.per_region.iter()).map(|r| (label(r), format!("{:.6}", r.utilisation())));
    push_family(&mut out, "shard_region_utilisation", "gauge", utilisation);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_export_has_per_region_labels_and_single_type_lines() {
        let mut p = ShardProfile {
            events: 15,
            regions: 3,
            ..ShardProfile::default()
        };
        for region in 0..3 {
            p.per_region.push(crate::profile::RegionProfile {
                region,
                events: 5,
                busy_ns: 100,
                wait_ns: 100,
                ..Default::default()
            });
        }
        let text = profile_to_prometheus(&p);
        assert!(text.contains("wmn_shard_events_total 15\n"));
        for region in 0..3 {
            let sample = format!("wmn_shard_region_events_total{{region=\"{region}\"}} 5\n");
            assert!(text.contains(&sample), "{sample}");
        }
        assert!(text.contains("wmn_shard_region_utilisation{region=\"0\"} 0.500000\n"));
        // Every family is one group: its `# TYPE` line, then all of its
        // samples and nothing else, and no family's `# TYPE` line twice.
        let lines: Vec<&str> = text.lines().collect();
        let mut families = Vec::new();
        let mut k = 0;
        while k < lines.len() {
            let header = lines[k]
                .strip_prefix("# TYPE ")
                .expect("a TYPE line opens each group");
            let name = header.split(' ').next().unwrap();
            assert!(!families.contains(&name), "{name} split into two groups");
            families.push(name);
            k += 1;
            let start = k;
            while k < lines.len() && !lines[k].starts_with('#') {
                let metric = lines[k].split(['{', ' ']).next().unwrap();
                assert_eq!(metric, name, "line {}: a sample outside its family", k + 1);
                k += 1;
            }
            let expected = if name.starts_with("wmn_shard_region_") {
                3
            } else {
                1
            };
            assert_eq!(k - start, expected, "{name}: samples in its group");
        }
        assert_eq!(families.len(), 15 + 7);
    }
}
