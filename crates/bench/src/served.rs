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
    run_sweep, sweep_figure_multi, write_manifest_totals, FigureSpec, ManifestTotals, Metric,
};
use cnlr::{RunResults, Scheme};
use std::time::Duration;
use wmn_metrics::ResultTable;
use wmn_served::{standard_metrics, Client, JobResult, ScenarioSpec};
use wmn_telemetry::Counters;

/// One served metric: `(table name, wire key)` — the daemon computes the
/// value under the wire key with the same definition the one-shot binary
/// uses for the table name.
pub type ServedMetric<'a> = (&'a str, &'a str);

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
    let run = |x: f64, scheme: &Scheme, seed: u64| {
        let mut client = Client::connect(socket)
            .unwrap_or_else(|e| panic!("cannot connect to daemon at {socket}: {e}"));
        let result = client
            .run_retrying(&build(x, scheme, seed), 0, Duration::from_secs(3600))
            .unwrap_or_else(|e| panic!("served job failed at x={x}: {e}"));
        if !result.ok {
            panic!(
                "served job at x={x} reported failure: {}",
                result.error.as_deref().unwrap_or("unknown")
            );
        }
        result
    };
    let how = |threads| format!("via daemon at {socket} ({threads} submit threads)");
    let (tables, runs, seeds, wall_s) =
        run_sweep(spec, how, metrics, xs, schemes, run, |run, key| {
            run.metric(key)
        });
    let totals = served_totals(spec, &runs);
    write_manifest_totals(spec, schemes, &seeds, xs, wall_s, totals);
    tables
}

/// In-process twin of [`sweep_figure_multi_served`] for a figure that is
/// described once, as `ScenarioSpec` + wire keys: each job runs
/// `spec.to_builder()?.build()?.run()` here and its metrics are read from
/// the daemon's own [`standard_metrics`], so the two branches of such a
/// figure cannot drift apart.
pub fn sweep_figure_multi_spec<F>(
    spec: &FigureSpec,
    metrics: &[ServedMetric<'_>],
    xs: &[f64],
    schemes: &[Scheme],
    build: F,
) -> Vec<ResultTable>
where
    F: Fn(f64, &Scheme, u64) -> ScenarioSpec + Sync,
{
    // One reader per wire key, over the daemon's own metric definitions.
    let read = |key| {
        move |run: &RunResults| {
            let found = standard_metrics(run).into_iter().find(|(k, _)| *k == key);
            found.map_or(f64::NAN, |(_, v)| v)
        }
    };
    let readers: Vec<_> = metrics.iter().map(|&(_, key)| read(key)).collect();
    let metrics: Vec<Metric<'_>> = (metrics.iter().zip(&readers))
        .map(|(&(name, _), reader)| -> Metric<'_> { (name, reader) })
        .collect();
    sweep_figure_multi(spec, &metrics, xs, schemes, |x, scheme, seed| {
        build(x, scheme, seed)
            .to_builder()
            .unwrap_or_else(|e| panic!("invalid scenario spec at x={x}: {e}"))
    })
}

/// The served manifest's share (`<id>_served_manifest.json`): the per-job
/// wire counters, and next to the usual provenance the batch's dedup
/// facts — how many jobs reused a cached prefix, how many imported a warm
/// link-budget cache, and the medium's cache hit economics summed across
/// replications.
fn served_totals(spec: &FigureSpec, runs: &[JobResult]) -> ManifestTotals<'static> {
    let mut counters = Counters::new();
    let mut events = 0u64;
    let (mut prefix_reused, mut warm_imports) = (0u64, 0u64);
    let (mut pathloss, mut cache_hits, mut budgets) = (0u64, 0u64, 0u64);
    for r in runs {
        for (name, v) in &r.counters {
            counters.add_named(name, *v);
        }
        events += r.events;
        prefix_reused += r.prefix_reused as u64;
        warm_imports += r.warm_import as u64;
        pathloss += r.pathloss_evals;
        cache_hits += r.link_cache_hits;
        budgets += r.link_budgets;
    }
    let extra_params = vec![
        ("served", "true".to_string()),
        (
            "prefix_reused_jobs",
            format!("{prefix_reused}/{}", runs.len()),
        ),
        (
            "warm_cache_import_jobs",
            format!("{warm_imports}/{}", runs.len()),
        ),
        ("link_cache_hits", cache_hits.to_string()),
        ("pathloss_evals", pathloss.to_string()),
        ("link_budgets", budgets.to_string()),
    ];
    ManifestTotals {
        id: format!("{}_served", spec.id),
        runs: runs.len(),
        events,
        counters,
        extra_params,
    }
}
