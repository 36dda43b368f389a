//! Spec-driven figure sweeps: a figure described once, as a
//! `ScenarioSpec` per `(x, scheme, seed)` plus the panels it reports, run
//! in-process or through a `wmn-served` daemon (`--served SOCKET`). Both
//! transports share the one executor (`run_sweep`), its aggregation and
//! its record: every job is a [`JobResult`] — built by
//! [`JobResult::from_run`] in-process, read off the socket when served —
//! and every panel reads its value from that record alone (wire metrics
//! cross the socket as shortest-roundtrip decimals), so every CSV is
//! byte-identical either way. The served manifest also records the batch's
//! dedup economics: prefix reuse and warm link-budget cache hits.

use crate::{
    run_sweep, sweep_durations, sweep_figure_multi, write_manifest_totals, FigureSpec,
    ManifestTotals,
};
use cnlr::Scheme;
use std::time::Duration;
use wmn_metrics::ResultTable;
use wmn_served::{Client, JobResult, ScenarioSpec, METRICS};

/// One table of a figure sweep: the figure it belongs to (its id, title
/// and x label), its CSV suffix, its metric label and how a job's value
/// is read from its record.
pub struct Panel {
    /// The figure whose title, x label and CSV name the table carries.
    pub figure: FigureSpec<'static>,
    /// CSV suffix (`results/<id>[_suffix].csv`, see [`crate::emit`]).
    pub suffix: &'static str,
    pub(crate) label: &'static str,
    pub(crate) read: fn(&JobResult) -> f64,
}

impl Panel {
    /// A panel whose per-job value is `read` of the job's record (most
    /// panels read one wire metric: `|r| r.metric("pdr")`).
    pub fn new(
        figure: FigureSpec<'static>,
        suffix: &'static str,
        label: &'static str,
        read: fn(&JobResult) -> f64,
    ) -> Panel {
        Panel {
            figure,
            suffix,
            label,
            read,
        }
    }
}

/// A figure job's common part: `seed`, `scheme` and [`sweep_durations`]
/// over the [`ScenarioSpec`] defaults (8×8 grid, 180 m pitch, 512 B).
pub fn base_spec(scheme: &Scheme, seed: u64) -> ScenarioSpec {
    let (dur, warm) = sweep_durations();
    ScenarioSpec {
        seed,
        scheme: scheme.spec_string(),
        duration_s: dur.as_secs_f64(),
        warmup_s: warm.as_secs_f64(),
        ..ScenarioSpec::default()
    }
}

/// Run a spec-described sweep once and return each panel's table, in
/// panel order. In-process (`served = None`) the manifest is
/// `results/<first panel's id>_manifest.json`; through the daemon at
/// `served` it is `<id>_served_manifest.json`.
pub fn sweep_spec<'p, F>(
    panels: &'p [Panel],
    xs: &[f64],
    schemes: &[Scheme],
    served: Option<&str>,
    build: F,
) -> Vec<(&'p Panel, ResultTable)>
where
    F: Fn(f64, &Scheme, u64) -> ScenarioSpec + Sync,
{
    let first = &panels[0].figure;
    let Some(socket) = served else {
        let build = |x: f64, scheme: &Scheme, seed: u64| {
            let builder = build(x, scheme, seed).to_builder();
            builder.unwrap_or_else(|e| panic!("invalid scenario spec at x={x}: {e}"))
        };
        return sweep_figure_multi(panels, xs, schemes, build);
    };
    let run = |x: f64, scheme: &Scheme, seed: u64| {
        let mut client = Client::connect(socket)
            .unwrap_or_else(|e| panic!("cannot connect to daemon at {socket}: {e}"));
        let hour = Duration::from_secs(3600);
        let result = client
            .run_retrying(&build(x, scheme, seed), 0, false, hour, |_| {})
            .unwrap_or_else(|e| panic!("served job failed at x={x}: {e}"));
        checked(socket, x, result)
    };
    let how = |threads| format!("via daemon at {socket} ({threads} submit threads)");
    let (tables, runs, seeds, wall_s) = run_sweep(panels, how, xs, schemes, run);
    let totals = served_totals(first, &runs);
    write_manifest_totals(first, schemes, &seeds, xs, wall_s, totals);
    panels.iter().zip(tables).collect()
}

/// A served job's record as the sweep folds it. A failed job, or one
/// whose metric names are not this build's [`METRICS`] keys (a daemon
/// built with another metric set, whose absent values would print as
/// `NaN`), panics: the figure exits non-zero instead of writing it.
fn checked(socket: &str, x: f64, result: JobResult) -> JobResult {
    if !result.ok {
        panic!(
            "served job at x={x} reported failure: {}",
            result.error.as_deref().unwrap_or("unknown")
        );
    }
    let names: Vec<&str> = result.metrics.iter().map(|(k, _)| k.as_str()).collect();
    let keys = METRICS.map(|(key, _)| key);
    if names != keys {
        let missing: Vec<&str> = keys.into_iter().filter(|k| !names.contains(k)).collect();
        panic!("daemon at {socket} speaks another metric set: missing {missing:?}, sent {names:?}");
    }
    result
}

/// The served manifest's share (`<id>_served_manifest.json`): the per-job
/// wire counters, and next to the usual provenance the batch's dedup
/// facts — how many jobs reused a cached prefix, how many imported a warm
/// link-budget cache, and the medium's cache hit economics summed across
/// replications.
fn served_totals<'a>(spec: &FigureSpec, runs: &'a [JobResult]) -> ManifestTotals<'a> {
    let sum = |field: fn(&JobResult) -> u64| runs.iter().map(field).sum::<u64>();
    let of_runs = |n: u64| format!("{n}/{}", runs.len());
    let extra_params = vec![
        ("served", "true".to_string()),
        (
            "prefix_reused_jobs",
            of_runs(sum(|r| r.prefix_reused as u64)),
        ),
        (
            "warm_cache_import_jobs",
            of_runs(sum(|r| r.warm_import as u64)),
        ),
        ("link_cache_hits", sum(|r| r.link_cache_hits).to_string()),
        ("pathloss_evals", sum(|r| r.pathloss_evals).to_string()),
        ("link_budgets", sum(|r| r.link_budgets).to_string()),
    ];
    ManifestTotals {
        id: format!("{}_served", spec.id),
        runs,
        extra_params,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "daemon at d.sock speaks another metric set: missing [\"hotspot\"]")]
    fn a_result_missing_a_metric_of_this_build_is_refused() {
        let metrics = (METRICS.iter())
            .filter(|(key, _)| *key != "hotspot")
            .map(|(key, _)| (key.to_string(), 1.0));
        let result = JobResult {
            ok: true,
            metrics: metrics.collect(),
            ..JobResult::default()
        };
        checked("d.sock", 1.0, result);
    }
}
