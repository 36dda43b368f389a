//! Fig. 14 — million-node ParMesh: wall-clock, peak RSS, and event volume
//! at {100k, 300k, 1M} routers.
//!
//! The scale story of the memory-lean ParMesh layout (flat SoA statics,
//! CSR adjacency, dense per-region loads, pre-sized queues) plus the
//! work-stealing window scheduler. A merged telemetry trace cannot fit at
//! this size, so every run streams events into per-region `HashSink`
//! fingerprints instead; the figure *asserts* that the fingerprint — and
//! the full report — is bit-identical across worker counts (one worker
//! runs no scheduler, two pack windows by it) at every scale, which is the
//! engine's determinism guarantee measured at a million nodes, not just
//! claimed.
//!
//! Peak RSS is read from `VmHWM` (a process-wide high-water mark, so it is
//! monotonic): scales run in ascending node order, and the value is
//! sampled right after each scale's first (one-thread) run, making it that
//! scale's true peak. The cells after it rerun the scale only to check
//! determinism; what they add to `VmHWM` is the allocator's retention
//! (freed memory kept in the main arena while worker threads allocate in
//! their own), not memory the scale needs. The manifest records per-scale
//! RSS budgets the CI smoke job holds future revisions to.
//!
//! `QUICK=1` shrinks to 20k nodes × {1, 2} threads for the CI smoke job.

use cnlr::parmesh::ParMesh;
use wmn_bench::{emit, quick_mode, save_manifest, FigureSpec};
use wmn_metrics::ResultTable;
use wmn_sim::SimDuration;
use wmn_telemetry::RunManifest;

fn main() {
    wmn_bench::parse_fig_args(env!("CARGO_BIN_NAME"), false);
    let spec = FigureSpec {
        id: "fig14",
        title: "Million-node ParMesh: wall-clock, peak RSS, events",
        x_label: "threads",
    };
    let (node_counts, threads, duration): (Vec<usize>, Vec<usize>, SimDuration) = if quick_mode() {
        (vec![20_000], vec![1, 2], SimDuration::from_secs(2))
    } else {
        (
            vec![100_000, 300_000, 1_000_000],
            vec![1, 2],
            SimDuration::from_secs(3),
        )
    };
    let seed = 1u64;
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut headers: Vec<String> = vec![spec.x_label.to_string()];
    headers.extend(node_counts.iter().map(|n| format!("n={n}")));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut wall_table = ResultTable::new(
        format!("{} — {} (wall-clock s, steal on)", spec.id, spec.title),
        &header_refs,
    );
    let mut rate_table = ResultTable::new(
        format!("{} — {} (events per second)", spec.id, spec.title),
        &header_refs,
    );
    let mut rss_table = ResultTable::new(
        format!("{} — {} (peak RSS MiB after scale)", spec.id, spec.title),
        &["nodes", "peak_rss_mib", "events", "regions"],
    );
    let mut steal_table = ResultTable::new(
        format!("{} — {} (scheduler decisions)", spec.id, spec.title),
        &["nodes", "moved_per_epoch", "post_steal_imbalance"],
    );

    let t0 = std::time::Instant::now();
    let mut params: Vec<(String, String)> = vec![
        ("host_cores".to_string(), host_cores.to_string()),
        (
            "duration_s".to_string(),
            format!("{}", duration.as_secs_f64()),
        ),
        ("quick".to_string(), quick_mode().to_string()),
    ];
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); node_counts.len()];
    let mut events_at: Vec<u64> = vec![0; node_counts.len()];
    let mut total_events = 0u64;
    for (ni, &n) in node_counts.iter().enumerate() {
        let flows = (n / 20).max(1);
        // Baseline: 1 thread; every other cell must match it.
        let mut baseline: Option<(cnlr::ParMeshOutcome, String)> = None;
        let mut rss_mib = 0.0;
        for &t in &threads {
            let run_t0 = std::time::Instant::now();
            let out = ParMesh::new(n)
                .seed(seed)
                .flows(flows)
                .duration(duration)
                .threads(t)
                .trace_hash(true)
                .profile(true)
                .run();
            let wall = run_t0.elapsed().as_secs_f64();
            let r = &out.report;
            let events = r.events;
            let profile = out.profile.as_ref().expect("profiling enabled");
            let (fp_count, fp) = out.trace_fp.expect("trace_hash enabled");
            eprintln!(
                "[fig14] n={n} threads={t}: {:.2}s wall, {:.0} ev/s, \
                 pdr {:.3}, {} regions, {} epochs, fp {fp_count}/{fp:016x}, \
                 {:.1} moved/epoch, post-steal imbalance {:.2}",
                wall,
                r.events as f64 / wall.max(1e-9),
                r.pdr(),
                r.regions,
                r.epochs,
                profile.regions_moved_per_epoch(),
                profile.post_steal_imbalance(),
            );
            match &baseline {
                None => {
                    rss_mib =
                        wmn_telemetry::sample_host().peak_rss_bytes as f64 / (1024.0 * 1024.0);
                    let sim_fp = profile.sim_fingerprint();
                    baseline = Some((out, sim_fp));
                }
                Some((base, base_sim_fp)) => {
                    let b = &base.report;
                    assert_eq!(
                        (b.originated, b.delivered, b.forwards, b.events, b.epochs),
                        (r.originated, r.delivered, r.forwards, r.events, r.epochs),
                        "results changed at n={n} threads={t}"
                    );
                    assert_eq!(
                        base.trace_fp,
                        Some((fp_count, fp)),
                        "trace fingerprint changed at n={n} threads={t}"
                    );
                    assert_eq!(
                        base_sim_fp.as_str(),
                        profile.sim_fingerprint(),
                        "profile sim fields changed at n={n} threads={t}"
                    );
                    if t == 2 {
                        steal_table.add_row(vec![
                            format!("{n}"),
                            format!("{:.2}", profile.regions_moved_per_epoch()),
                            format!("{:.3}", profile.post_steal_imbalance()),
                        ]);
                    }
                }
            }
            walls[ni].push(wall);
            total_events += events;
        }
        let (base, _) = baseline.as_ref().expect("at least one run per scale");
        let r = &base.report;
        events_at[ni] = r.events;
        let (fp_count, fp) = base.trace_fp.expect("trace_hash enabled");
        rss_table.add_row(vec![
            format!("{n}"),
            format!("{rss_mib:.1}"),
            format!("{}", r.events),
            format!("{}", r.regions),
        ]);
        params.push((format!("pdr_n{n}"), format!("{:.4}", r.pdr())));
        params.push((format!("events_n{n}"), r.events.to_string()));
        params.push((format!("regions_n{n}"), r.regions.to_string()));
        params.push((format!("peak_rss_mib_n{n}"), format!("{rss_mib:.1}")));
        params.push((format!("trace_fp_n{n}"), format!("{fp_count}/{fp:016x}")));
    }

    for (ti, &t) in threads.iter().enumerate() {
        let mut wall_row = vec![format!("{t}")];
        let mut rate_row = vec![format!("{t}")];
        for (ni, _) in node_counts.iter().enumerate() {
            let wall = walls[ni][ti];
            wall_row.push(format!("{wall:.3}"));
            rate_row.push(format!("{:.0}", events_at[ni] as f64 / wall.max(1e-9)));
        }
        wall_table.add_row(wall_row);
        rate_table.add_row(rate_row);
    }

    let wall_s = t0.elapsed().as_secs_f64();
    let manifest = RunManifest {
        schemes: vec!["parmesh".to_string()],
        seeds: vec![seed],
        xs: threads.iter().map(|&t| t as f64).collect(),
        params,
        wall_s,
        events_processed: total_events,
        ..RunManifest::stamped(spec.id, spec.title)
    };
    save_manifest(&manifest);
    emit(&spec, "", &wall_table);
    emit(&spec, "events", &rate_table);
    emit(&spec, "rss", &rss_table);
    emit(&spec, "steal", &steal_table);
}
