//! Fig. 13 — shard-parallel engine: wall-clock vs worker threads.
//!
//! Runs the ParMesh scale model (the region-partitioned world the sharded
//! conservative engine executes) at 10k and 100k routers, sweeping the
//! worker-thread count over {1, 2, 4, 8}. For every cell the binary
//! records the honest wall-clock of that single run and asserts that the
//! results (delivered/forwarded/event counts) are bit-identical to the
//! 1-thread run — the engine's core guarantee.
//!
//! Speedup is a property of the *host*: the manifest records
//! `host_cores`, and on a single-core machine the expected curve is flat
//! (threads only add barrier overhead). The figure is honest either way —
//! it never extrapolates.
//!
//! `QUICK=1` shrinks to 1k nodes × {1, 2} threads for the CI smoke job.

use cnlr::parmesh::{ParMesh, ParMeshReport};
use wmn_bench::{emit, quick_mode, FigureSpec};
use wmn_metrics::ResultTable;
use wmn_sim::SimDuration;
use wmn_telemetry::RunManifest;

fn main() {
    wmn_bench::parse_fig_args(env!("CARGO_BIN_NAME"), false);
    let spec = FigureSpec {
        id: "fig13",
        title: "Shard-parallel engine: wall-clock vs worker threads",
        x_label: "threads",
    };
    let (node_counts, threads, duration): (Vec<usize>, Vec<usize>, SimDuration) = if quick_mode() {
        (vec![1_000], vec![1, 2], SimDuration::from_secs(2))
    } else {
        (
            vec![10_000, 100_000],
            vec![1, 2, 4, 8],
            SimDuration::from_secs(10),
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
        format!("{} — {} (wall-clock s)", spec.id, spec.title),
        &header_refs,
    );
    let mut speedup_table = ResultTable::new(
        format!("{} — {} (speedup vs 1 thread)", spec.id, spec.title),
        &header_refs,
    );
    let mut rate_table = ResultTable::new(
        format!("{} — {} (events per second)", spec.id, spec.title),
        &header_refs,
    );
    let mut waitshare_table = ResultTable::new(
        format!("{} — {} (barrier-wait share)", spec.id, spec.title),
        &header_refs,
    );

    let t0 = std::time::Instant::now();
    // walls[ni][ti], baselines[ni] = 1-thread report for identity checks.
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); node_counts.len()];
    let mut wait_shares: Vec<Vec<f64>> = vec![Vec::new(); node_counts.len()];
    let mut baselines: Vec<Option<ParMeshReport>> = vec![None; node_counts.len()];
    let mut fingerprints: Vec<Option<String>> = vec![None; node_counts.len()];
    let mut imbalances: Vec<f64> = vec![0.0; node_counts.len()];
    let mut total_events = 0u64;
    let mut params: Vec<(String, String)> = vec![
        ("host_cores".to_string(), host_cores.to_string()),
        (
            "duration_s".to_string(),
            format!("{}", duration.as_secs_f64()),
        ),
        ("quick".to_string(), quick_mode().to_string()),
    ];
    for (ni, &n) in node_counts.iter().enumerate() {
        for &t in &threads {
            let run_t0 = std::time::Instant::now();
            let out = ParMesh::new(n)
                .seed(seed)
                .duration(duration)
                .threads(t)
                .profile(true)
                .run();
            let wall = run_t0.elapsed().as_secs_f64();
            let r = &out.report;
            let profile = out.profile.as_ref().expect("profiling enabled");
            eprintln!(
                "[fig13] n={n} threads={t}: {:.2}s wall, {:.0} ev/s, pdr {:.3}, \
                 {} regions, {} epochs, {} cross-region, imbalance {:.2}, wait share {:.3}",
                wall,
                r.events as f64 / wall.max(1e-9),
                r.pdr(),
                r.regions,
                r.epochs,
                r.cross_region,
                profile.imbalance_factor(),
                profile.barrier_wait_share(),
            );
            match &baselines[ni] {
                None => {
                    baselines[ni] = Some(r.clone());
                    fingerprints[ni] = Some(profile.sim_fingerprint());
                    imbalances[ni] = profile.imbalance_factor();
                }
                Some(base) => {
                    // The engine's guarantee, enforced in the figure itself.
                    assert_eq!(
                        (base.originated, base.delivered, base.forwards, base.events),
                        (r.originated, r.delivered, r.forwards, r.events),
                        "results changed with thread count at n={n} threads={t}"
                    );
                    // Same for the profile's simulation-derived fields.
                    assert_eq!(
                        fingerprints[ni].as_deref(),
                        Some(profile.sim_fingerprint().as_str()),
                        "profile sim fields changed with thread count at n={n} threads={t}"
                    );
                }
            }
            total_events += r.events;
            walls[ni].push(wall);
            wait_shares[ni].push(profile.barrier_wait_share());
        }
        let r = baselines[ni].as_ref().expect("at least one run");
        params.push((format!("pdr_n{n}"), format!("{:.4}", r.pdr())));
        params.push((format!("events_n{n}"), r.events.to_string()));
        params.push((format!("regions_n{n}"), r.regions.to_string()));
        params.push((format!("imbalance_n{n}"), format!("{:.4}", imbalances[ni])));
        let mean_wait = wait_shares[ni].iter().sum::<f64>() / wait_shares[ni].len().max(1) as f64;
        params.push((format!("mean_wait_share_n{n}"), format!("{mean_wait:.4}")));
    }

    for (ti, &t) in threads.iter().enumerate() {
        let mut wall_row = vec![format!("{t}")];
        let mut speedup_row = vec![format!("{t}")];
        let mut rate_row = vec![format!("{t}")];
        let mut waitshare_row = vec![format!("{t}")];
        for (ni, _) in node_counts.iter().enumerate() {
            let wall = walls[ni][ti];
            let events = baselines[ni].as_ref().expect("baseline").events;
            wall_row.push(format!("{wall:.3}"));
            speedup_row.push(format!("{:.3}", walls[ni][0] / wall.max(1e-9)));
            rate_row.push(format!("{:.0}", events as f64 / wall.max(1e-9)));
            waitshare_row.push(format!("{:.3}", wait_shares[ni][ti]));
        }
        wall_table.add_row(wall_row);
        speedup_table.add_row(speedup_row);
        rate_table.add_row(rate_row);
        waitshare_table.add_row(waitshare_row);
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
    match manifest.write(std::path::Path::new("results")) {
        Ok(path) => eprintln!("[{}] wrote {}", spec.id, path.display()),
        Err(e) => eprintln!("warning: could not write {} manifest: {e}", spec.id),
    }
    emit(&spec, "", &wall_table);
    emit(&spec, "speedup", &speedup_table);
    emit(&spec, "events", &rate_table);
    emit(&spec, "waitshare", &waitshare_table);
}
