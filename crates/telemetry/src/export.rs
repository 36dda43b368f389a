//! Prometheus text-exposition export.
//!
//! Renders [`ShardProfile`] execution profiles in the Prometheus text
//! format (`# TYPE` headers, one sample per line, `{label="value"}`
//! selectors) so a scraper can read engine state. Pure string formatting;
//! no network code lives here.

use crate::profile::ShardProfile;

/// Prefix applied to every exported metric name.
const PREFIX: &str = "wmn_";

fn push_metric(out: &mut String, name: &str, kind: &str, labels: &str, value: &str) {
    if !out.contains(&format!("# TYPE {PREFIX}{name} ")) {
        out.push_str(&format!("# TYPE {PREFIX}{name} {kind}\n"));
    }
    out.push_str(&format!("{PREFIX}{name}{labels} {value}\n"));
}

/// Render a [`ShardProfile`] as Prometheus samples: run-level gauges plus
/// per-region series labelled `{region="N"}`.
pub fn profile_to_prometheus(p: &ShardProfile) -> String {
    let mut out = String::new();
    push_metric(
        &mut out,
        "shard_events_total",
        "counter",
        "",
        &p.events.to_string(),
    );
    push_metric(
        &mut out,
        "shard_cross_region_events_total",
        "counter",
        "",
        &p.cross_region.to_string(),
    );
    push_metric(
        &mut out,
        "shard_epochs_total",
        "counter",
        "",
        &p.epochs.to_string(),
    );
    for (name, value) in [
        ("shard_threads", p.threads),
        ("shard_regions", p.regions),
        ("shard_wall_ns", p.wall_ns),
        ("shard_merge_ns", p.merge_ns),
        ("shard_steal_epochs", p.steal_epochs),
        ("shard_regions_moved_total", p.regions_moved),
        ("host_cores", p.host.host_cores),
        ("process_peak_rss_bytes", p.host.peak_rss_bytes),
        ("process_threads", p.host.process_threads),
    ] {
        push_metric(&mut out, name, "gauge", "", &value.to_string());
    }
    push_metric(
        &mut out,
        "shard_post_steal_imbalance",
        "gauge",
        "",
        &format!("{:.6}", p.post_steal_imbalance()),
    );
    push_metric(
        &mut out,
        "shard_imbalance_factor",
        "gauge",
        "",
        &format!("{:.6}", p.imbalance_factor()),
    );
    push_metric(
        &mut out,
        "shard_barrier_wait_share",
        "gauge",
        "",
        &format!("{:.6}", p.barrier_wait_share()),
    );
    for r in &p.per_region {
        let labels = format!("{{region=\"{}\"}}", r.region);
        for (name, value) in [
            ("shard_region_events_total", r.events),
            ("shard_region_busy_ns_total", r.busy_ns),
            ("shard_region_wait_ns_total", r.wait_ns),
            ("shard_region_outbox_events_total", r.outbox),
            ("shard_region_stalled_windows_total", r.stalled_windows),
            ("shard_region_bound_others_total", r.bound_others),
        ] {
            push_metric(&mut out, name, "counter", &labels, &value.to_string());
        }
        push_metric(
            &mut out,
            "shard_region_utilisation",
            "gauge",
            &labels,
            &format!("{:.6}", r.utilisation()),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_export_has_per_region_labels_and_single_type_lines() {
        let mut p = ShardProfile {
            events: 10,
            regions: 2,
            ..ShardProfile::default()
        };
        for region in 0..2 {
            p.per_region.push(crate::profile::RegionProfile {
                region,
                events: 5,
                busy_ns: 100,
                wait_ns: 100,
                ..Default::default()
            });
        }
        let text = profile_to_prometheus(&p);
        assert!(text.contains("wmn_shard_events_total 10\n"));
        assert!(text.contains("wmn_shard_region_events_total{region=\"0\"} 5\n"));
        assert!(text.contains("wmn_shard_region_events_total{region=\"1\"} 5\n"));
        assert!(text.contains("wmn_shard_region_utilisation{region=\"0\"} 0.500000\n"));
        // One TYPE header per metric even with several labelled samples.
        assert_eq!(
            text.matches("# TYPE wmn_shard_region_events_total counter")
                .count(),
            1
        );
    }
}
