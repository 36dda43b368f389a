//! The artefact codec, from outside: `json::parse` is total and bounded,
//! and each artefact struct (`RunManifest`, `ShardProfile`) reads back what
//! it wrote, byte for byte, and refuses what it did not.

use proptest::prelude::*;
use wmn_telemetry::json::{self, JsonValue, MAX_DEPTH};
use wmn_telemetry::{HostSample, LogHistogram, RegionProfile, RunManifest, ShardProfile};

/// Run `f` on a thread with a 256 KiB stack (a quarter of what the
/// daemon's connection threads get by default on most hosts).
fn on_a_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let thread = std::thread::Builder::new().stack_size(256 * 1024);
    let handle = thread.spawn(f).expect("spawn");
    handle.join().expect("the parser overflowed or panicked")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Whatever the bytes (brackets and quotes over-represented), `parse`
    /// returns; what it accepts is no deeper than the bound.
    #[test]
    fn parse_returns_on_any_bytes(
        picks in prop::collection::vec((any::<u8>(), any::<u8>()), 0..4000),
    ) {
        let bytes: Vec<u8> = picks
            .into_iter()
            .map(|(pick, raw)| match pick % 4 {
                0 => b"[{\":,]}"[raw as usize % 7],
                1 => b'[',
                _ => raw,
            })
            .collect();
        let text = String::from_utf8_lossy(&bytes).into_owned();
        on_a_small_stack(move || {
            let _ = json::parse(&text);
        });
    }
}

fn nested(open: &str, close: &str, depth: usize) -> String {
    open.repeat(depth) + &close.repeat(depth)
}

#[test]
fn the_depth_bound_is_exact() {
    assert!(json::parse(&nested("[", "]", MAX_DEPTH)).is_some());
    assert!(json::parse(&nested("[", "]", MAX_DEPTH + 1)).is_none());
    assert!(json::parse(&nested("{\"k\":", "}", MAX_DEPTH).replace(":}", ":0}")).is_some());
    assert!(json::parse(&nested("{\"k\":", "}", MAX_DEPTH + 1).replace(":}", ":0}")).is_none());
    // The flat-object entry point shares the bound: its own braces count.
    let line = |depth| format!("{{\"a\":{}}}", nested("[", "]", depth));
    assert!(json::parse_object(&line(MAX_DEPTH - 1)).is_some());
    assert!(json::parse_object(&line(MAX_DEPTH)).is_none());
    // What took the daemon down: 60 000 unclosed brackets, on a small stack.
    let bomb = format!("{{\"v\":1,\"op\":\"ping\",\"a\":{}", "[".repeat(60_000));
    assert_eq!(on_a_small_stack(move || json::parse_object(&bomb)), None);
}

#[test]
fn a_document_is_one_value_and_nothing_after_it() {
    assert_eq!(
        json::parse(" [1, {\"a\": null}] \n"),
        json::parse("[1,{\"a\":null}]")
    );
    for bad in [
        "",
        "[1] 2",
        "{\"a\":1}}",
        "{\"a\":1}x",
        "[1,]",
        "{\"a\"}",
        "[1 2]",
    ] {
        assert_eq!(json::parse(bad), None, "{bad}");
    }
    let nested = json::parse("{\"outer\":{\"inner\":[1,\"two\"]}}").expect("parses");
    let inner = nested.get("outer").and_then(|o| o.get("inner"));
    assert_eq!(
        inner,
        Some(&JsonValue::Arr(vec![
            JsonValue::Int(1),
            JsonValue::Str("two".into())
        ]))
    );
}

fn committed(name: &str) -> String {
    let path = format!(
        "{}/../../results/{name}_manifest.json",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn every_committed_manifest_parses_and_the_current_ones_round_trip() {
    // Written since `host_cores` / `peak_rss_bytes` exist: byte-identical.
    for name in [
        "fig11",
        "fig11_served",
        "fig12",
        "fig13",
        "fig14",
        "fig3_served",
    ] {
        let text = committed(name);
        let manifest = RunManifest::from_json(&text).unwrap_or_else(|| panic!("{name} refused"));
        assert_eq!(manifest.to_json(), text, "{name} does not round-trip");
        assert!(
            manifest.host_cores > 0 && manifest.peak_rss_bytes > 0,
            "{name}"
        );
    }
    // Written before: the two members read as their documented 0 = unknown.
    for name in ["fig1", "fig3", "fig7"] {
        let manifest = RunManifest::from_json(&committed(name)).expect(name);
        assert_eq!(
            (manifest.host_cores, manifest.peak_rss_bytes),
            (0, 0),
            "{name}"
        );
        assert!(
            !manifest.counters.is_empty() && manifest.events_processed > 0,
            "{name}"
        );
    }
}

#[test]
fn a_manifest_missing_a_member_or_cut_short_is_refused() {
    let text = committed("fig13");
    assert!(RunManifest::from_json(&text[..text.len() / 2]).is_none());
    assert!(RunManifest::from_json(&text.replace("\"seeds\"", "\"sedes\"")).is_none());
    assert!(
        RunManifest::from_json(&text.replace("\"wall_s\": ", "\"wall_s\": \"x\", \"w\": "))
            .is_none()
    );
}

fn small_profile() -> ShardProfile {
    let mut service_ns = LogHistogram::new();
    service_ns.record(700);
    ShardProfile {
        schema: "wmn-shard-profile/1".into(),
        threads: 2,
        regions: 2,
        epochs: 3,
        events: 60,
        cross_region: 9,
        end_time_ns: 4000,
        wall_ns: 123_456,
        merge_ns: 300,
        steal_epochs: 1,
        regions_moved: 2,
        steal_imbalance_milli_sum: 1100,
        host: HostSample {
            host_cores: 2,
            peak_rss_bytes: 4096,
            process_threads: 3,
        },
        per_region: (0..2)
            .map(|region| RegionProfile {
                region,
                events: 30,
                busy_ns: 1000 + region as u64,
                max_queue: 7,
                ..RegionProfile::default()
            })
            .collect(),
        service_ns,
        queue_depth: LogHistogram::new(),
        epoch_width_ns: LogHistogram::new(),
    }
}

/// The profile artefact's bytes, as `--profile-out` has always written
/// them (`{zeros}` stands for a histogram's 65 buckets).
const PROFILE_GOLDEN: &str = r#"{
  "schema": "wmn-shard-profile/1",
  "threads": 2,
  "regions": 2,
  "epochs": 3,
  "events": 60,
  "cross_region": 9,
  "end_time_ns": 4000,
  "wall_ns": 123456,
  "merge_ns": 300,
  "steal_epochs": 1,
  "regions_moved": 2,
  "steal_imbalance_milli_sum": 1100,
  "host_cores": 2,
  "peak_rss_bytes": 4096,
  "process_threads": 3,
  "per_region": [
    {"region":0,"events":30,"busy_ns":1000,"wait_ns":0,"outbox":0,"active_windows":0,"stalled_windows":0,"bound_others":0,"max_queue":7},
    {"region":1,"events":30,"busy_ns":1001,"wait_ns":0,"outbox":0,"active_windows":0,"stalled_windows":0,"bound_others":0,"max_queue":7}
  ],
  "service_ns": {"count":1,"sum":700,"min":700,"max":700,"buckets":[0,0,0,0,0,0,0,0,0,0,1,{zeros54}]},
  "queue_depth": {"count":0,"sum":0,"min":0,"max":0,"buckets":[{zeros65}]},
  "epoch_width_ns": {"count":0,"sum":0,"min":0,"max":0,"buckets":[{zeros65}]}
}
"#;

#[test]
fn a_profile_round_trips_byte_for_byte() {
    let zeros = |n: usize| vec!["0"; n].join(",");
    let golden = PROFILE_GOLDEN
        .replace("{zeros54}", &zeros(54))
        .replace("{zeros65}", &zeros(65));
    let profile = small_profile();
    assert_eq!(profile.to_json(), golden);
    let back = ShardProfile::from_json(&golden).expect("own output parses");
    assert_eq!(back, profile);
    assert_eq!(back.to_json(), golden);
}

#[test]
fn a_damaged_profile_is_refused_not_read_as_zeros() {
    let text = small_profile().to_json();
    // Cut anywhere: the parent read the scalars above the cut and zeros
    // for the rest, and `wmn-trace profile` reported on that.
    for cut in [text.len() / 4, text.len() / 2, text.len() - 3] {
        assert_eq!(ShardProfile::from_json(&text[..cut]), None, "cut at {cut}");
    }
    let other_schema = text.replace("wmn-shard-profile/1", "wmn-shard-profile/2");
    assert_eq!(ShardProfile::from_json(&other_schema), None);
    for member in [
        "schema",
        "merge_ns",
        "process_threads",
        "per_region",
        "queue_depth",
        "max_queue",
    ] {
        let renamed = text.replace(&format!("\"{member}\""), "\"renamed\"");
        assert_eq!(ShardProfile::from_json(&renamed), None, "without {member}");
    }
}
