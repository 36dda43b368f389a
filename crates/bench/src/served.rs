//! `--served` figure sweeps: drive a sweep's `(x, scheme, seed)` job
//! cross-product through a running `wmn-served` daemon instead of
//! in-process runs.
//!
//! Aggregation reuses the exact same `MeanCi`/`ResultTable` path as the
//! in-process sweeps, and metric values cross the socket as shortest-
//! roundtrip decimals, so the emitted CSVs are byte-identical to the
//! one-shot binaries — the service smoke job diffs them to prove it. The
//! sweep manifest additionally records the batch's dedup economics:
//! prefix reuse and warm link-budget cache hits across replications.

use crate::{
    fold_tables, job_coords, record_bench, replication_seeds, standard_params, FigureSpec,
};
use cnlr::Scheme;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use std::time::Duration;
use wmn_metrics::{run_jobs, ResultTable};
use wmn_served::{Client, JobResult, ScenarioSpec};
use wmn_telemetry::{git_rev, Counters, RunManifest};

/// One served metric: `(table name, wire key)` — the daemon computes the
/// value under the wire key with the same definition the one-shot binary
/// uses for the table name.
pub type ServedMetric<'a> = (&'a str, &'a str);

/// Counter names arrive from the wire as owned strings, but the
/// [`Counters`] registry interns `&'static str` names; a tiny leak-based
/// pool bridges the two (bounded by the counter-name vocabulary).
fn intern(name: &str) -> &'static str {
    static POOL: OnceLock<Mutex<HashMap<String, &'static str>>> = OnceLock::new();
    let mut pool = POOL
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap();
    if let Some(s) = pool.get(name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    pool.insert(name.to_string(), leaked);
    leaked
}

/// Served counterpart of `sweep_figure_multi`: same flattened job queue,
/// same aggregation, but each job is submitted to the daemon at `socket`
/// (with bounded retry on `busy` backpressure).
pub fn sweep_figure_multi_served<F>(
    spec: &FigureSpec,
    metrics: &[ServedMetric<'_>],
    xs: &[f64],
    schemes: &[Scheme],
    socket: &str,
    build: F,
) -> Vec<ResultTable>
where
    F: Fn(f64, &Scheme, u64) -> ScenarioSpec + Sync,
{
    let t0 = std::time::Instant::now();
    let seeds = replication_seeds();
    let threads = wmn_metrics::default_threads();
    let n_jobs = xs.len() * schemes.len() * seeds.len();
    eprintln!(
        "[{}] {n_jobs} jobs via daemon at {socket} ({threads} submit threads)",
        spec.id
    );
    let runs: Vec<JobResult> = run_jobs(n_jobs, threads, |i| {
        let (xi, schi, si) = job_coords(i, schemes.len(), seeds.len());
        let job_spec = build(xs[xi], &schemes[schi], seeds[si]);
        let mut client = Client::connect(socket)
            .unwrap_or_else(|e| panic!("cannot connect to daemon at {socket}: {e}"));
        let result = client
            .run_retrying(&job_spec, 0, Duration::from_secs(3600))
            .unwrap_or_else(|e| panic!("served job failed at x={}: {e}", xs[xi]));
        if !result.ok {
            panic!(
                "served job at x={} reported failure: {}",
                xs[xi],
                result.error.as_deref().unwrap_or("unknown")
            );
        }
        result
    });
    let names: Vec<&str> = metrics.iter().map(|(name, _)| *name).collect();
    let tables = fold_tables(spec, &names, xs, schemes, seeds.len(), |job, mi| {
        runs[job].metric(metrics[mi].1)
    });
    let wall_s = t0.elapsed().as_secs_f64();
    record_bench("sweep_served", spec.id, wall_s, n_jobs, threads);
    write_manifest_served(spec, schemes, &seeds, xs, wall_s, &runs);
    tables
}

/// Aggregate the per-job wire counters into a `<id>_served_manifest.json`
/// that records, next to the usual provenance, the batch's dedup facts:
/// how many jobs reused a cached prefix, how many imported a warm
/// link-budget cache, and the medium's cache hit economics summed across
/// replications.
fn write_manifest_served(
    spec: &FigureSpec,
    schemes: &[Scheme],
    seeds: &[u64],
    xs: &[f64],
    wall_s: f64,
    runs: &[JobResult],
) {
    let mut counters = Counters::new();
    let mut events = 0u64;
    let (mut prefix_reused, mut warm_imports) = (0u64, 0u64);
    let (mut pathloss, mut cache_hits, mut budgets) = (0u64, 0u64, 0u64);
    for r in runs {
        for (name, v) in &r.counters {
            counters.add(intern(name), *v);
        }
        events += r.events;
        prefix_reused += r.prefix_reused as u64;
        warm_imports += r.warm_import as u64;
        pathloss += r.pathloss_evals;
        cache_hits += r.link_cache_hits;
        budgets += r.link_budgets;
    }
    let mut params = standard_params(spec, seeds.len(), runs.len());
    params.extend([
        ("served".to_string(), "true".to_string()),
        (
            "prefix_reused_jobs".to_string(),
            format!("{prefix_reused}/{}", runs.len()),
        ),
        (
            "warm_cache_import_jobs".to_string(),
            format!("{warm_imports}/{}", runs.len()),
        ),
        ("link_cache_hits".to_string(), cache_hits.to_string()),
        ("pathloss_evals".to_string(), pathloss.to_string()),
        ("link_budgets".to_string(), budgets.to_string()),
    ]);
    let host = wmn_telemetry::sample_host();
    let manifest = RunManifest {
        id: format!("{}_served", spec.id),
        title: spec.title.to_string(),
        git_rev: git_rev(),
        schemes: schemes.iter().map(Scheme::label).collect(),
        seeds: seeds.to_vec(),
        xs: xs.to_vec(),
        params,
        wall_s,
        events_processed: events,
        host_cores: host.host_cores,
        peak_rss_bytes: host.peak_rss_bytes,
        counters,
        lineage: vec![],
    };
    match manifest.write(std::path::Path::new("results")) {
        Ok(path) => eprintln!("[{}] wrote {}", spec.id, path.display()),
        Err(e) => eprintln!("warning: could not write {} served manifest: {e}", spec.id),
    }
}
