//! Output digests: FNV-1a over a run's simulated statistics.
//!
//! Every repetition of a workload must produce the same digests — a
//! difference is a failed run — and a reviewer compares them across two
//! commits to see that a "pure speed-up" left the simulation untouched.

use cnlr::{ParMeshReport, RunResults};
use wmn_served::JobResult;
use wmn_sim::checkpoint::{fnv1a, ByteWriter};

/// Digest `(events, scalars, counter registry)`.
fn digest<'a>(
    events: u64,
    scalars: impl IntoIterator<Item = u64>,
    counters: impl IntoIterator<Item = (&'a str, u64)>,
) -> u64 {
    let mut w = ByteWriter::new();
    w.u64(events);
    for v in scalars {
        w.u64(v);
    }
    for (name, v) in counters {
        w.bytes(name.as_bytes());
        w.u64(v);
    }
    fnv1a(&w.into_inner())
}

/// A full-stack run: events, sent, delivered and the counter registry.
pub fn of_run(r: &RunResults) -> u64 {
    digest(
        r.events,
        [r.summary.sent, r.summary.delivered],
        r.counters().iter(),
    )
}

/// A daemon job: events, the wire metrics bit for bit, and the counters.
pub fn of_job(r: &JobResult) -> u64 {
    digest(
        r.events,
        r.metrics.iter().map(|(_, v)| v.to_bits()),
        r.counters.iter().map(|(k, v)| (k.as_str(), *v)),
    )
}

/// A ParMesh run: every field of the report.
pub fn of_parmesh(r: &ParMeshReport) -> u64 {
    digest(
        r.events,
        [
            r.nodes as u64,
            r.regions as u64,
            r.originated,
            r.delivered,
            r.dropped_no_route,
            r.dropped_expired,
            r.dropped_node_down,
            r.forwards,
            r.mean_delay_s.to_bits(),
            r.mean_hops.to_bits(),
            r.epochs,
            r.cross_region,
            r.end_time.as_nanos(),
        ],
        [],
    )
}

/// Fold per-job digests, in job order, into one digest of a pass.
pub fn fold(digests: impl IntoIterator<Item = u64>) -> u64 {
    digest(0, digests, [])
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmn_telemetry::TelemetryConfig;

    fn small_run(seed: u64) -> RunResults {
        cnlr::presets::small(seed)
            .telemetry(TelemetryConfig::disabled())
            .build()
            .expect("preset builds")
            .run()
    }

    #[test]
    fn digest_repeats_for_the_same_run_and_moves_with_the_seed() {
        let (a, b, c) = (small_run(11), small_run(11), small_run(12));
        assert_eq!(of_run(&a), of_run(&b));
        assert_ne!(of_run(&a), of_run(&c));
    }

    #[test]
    fn digest_sees_every_part() {
        let base = digest(5, [1, 2], [("x", 3)]);
        assert_ne!(base, digest(6, [1, 2], [("x", 3)]));
        assert_ne!(base, digest(5, [1, 3], [("x", 3)]));
        assert_ne!(base, digest(5, [1, 2], [("x", 4)]));
        assert_ne!(base, digest(5, [1, 2], [("y", 3)]));
        assert_eq!(base, digest(5, [1, 2], [("x", 3)]));
    }

    #[test]
    fn fold_is_order_sensitive() {
        assert_ne!(fold([1, 2]), fold([2, 1]));
        assert_eq!(fold([1, 2]), fold([1, 2]));
    }

    #[test]
    fn parmesh_digest_repeats_across_thread_counts() {
        let run = |threads| {
            cnlr::ParMesh::new(2_000)
                .seed(9)
                .duration(wmn_sim::SimDuration::from_millis(1_500))
                .threads(threads)
                .run()
                .report
        };
        assert_eq!(of_parmesh(&run(1)), of_parmesh(&run(2)));
    }
}
