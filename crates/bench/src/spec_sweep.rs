//! Spec-driven figure sweeps: a figure described once, as a
//! `ScenarioSpec` per `(x, scheme, seed)` plus the panels it reports, run
//! in-process or through a `wmn-served` daemon (`--served SOCKET`). Both
//! transports share the one executor (`run_sweep`) and its aggregation,
//! and a wire-keyed panel reads the daemon's own [`standard_metrics`]
//! either way (values cross the socket as shortest-roundtrip decimals), so
//! its CSV is byte-identical. The served manifest also records the batch's
//! dedup economics: prefix reuse and warm link-budget cache hits.

use crate::{
    csv_name, run_sweep, sweep_durations, sweep_figure_multi, write_manifest_totals, FigureSpec,
    ManifestTotals,
};
use cnlr::{RunResults, Scheme};
use std::time::Duration;
use wmn_metrics::ResultTable;
use wmn_served::{standard_metrics, Client, JobResult, ScenarioSpec};
use wmn_telemetry::Counters;

/// Where a panel's per-run value comes from.
enum Reading {
    /// A [`standard_metrics`] wire key: computed from the run in-process,
    /// read from the daemon's job result when served.
    Wire(&'static str),
    /// A value only an in-process [`RunResults`] holds; not written when
    /// served.
    Local(fn(&RunResults) -> f64),
}

/// One table of a spec-driven sweep: the figure it belongs to (its id,
/// title and x label), its CSV suffix, its metric label and how a run's
/// value is read.
pub struct Panel {
    /// The figure whose title, x label and CSV name the table carries.
    pub figure: FigureSpec<'static>,
    /// CSV suffix (`results/<id>[_suffix].csv`, see [`crate::emit`]).
    pub suffix: &'static str,
    label: &'static str,
    reading: Reading,
}

impl Panel {
    /// A panel read through the wire metric `key`: available in both
    /// transports.
    pub fn wire(
        figure: FigureSpec<'static>,
        suffix: &'static str,
        label: &'static str,
        key: &'static str,
    ) -> Panel {
        let reading = Reading::Wire(key);
        Panel {
            figure,
            suffix,
            label,
            reading,
        }
    }

    /// A panel only an in-process run can fill.
    pub fn local(
        figure: FigureSpec<'static>,
        suffix: &'static str,
        label: &'static str,
        read: fn(&RunResults) -> f64,
    ) -> Panel {
        let reading = Reading::Local(read);
        Panel {
            figure,
            suffix,
            label,
            reading,
        }
    }

    pub(crate) fn heading(&self) -> (&FigureSpec<'static>, &str) {
        (&self.figure, self.label)
    }

    /// This panel's value of an in-process run.
    pub(crate) fn read(&self, run: &RunResults) -> f64 {
        match &self.reading {
            Reading::Wire(key) => (standard_metrics(run).into_iter())
                .find(|(k, _)| k == key)
                .map_or(f64::NAN, |(_, v)| v),
            Reading::Local(read) => read(run),
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
/// panel order. In-process (`served = None`) every panel is filled and the
/// manifest is `results/<first panel's id>_manifest.json`. Through the
/// daemon at `served`, the `Local` panels are skipped (and named on
/// stderr) and the manifest is `<id>_served_manifest.json`.
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
    let keyed: Vec<(&Panel, &str)> = (panels.iter())
        .filter_map(|p| match p.reading {
            Reading::Wire(key) => Some((p, key)),
            Reading::Local(_) => None,
        })
        .collect();
    let skipped: Vec<String> = (panels.iter())
        .filter(|p| matches!(p.reading, Reading::Local(_)))
        .map(|p| csv_name(&p.figure, p.suffix))
        .collect();
    if !skipped.is_empty() {
        let names = skipped.join(", ");
        eprintln!("[{}] in-process only, not written: {names}", first.id);
    }
    let run = |x: f64, scheme: &Scheme, seed: u64| {
        let mut client = Client::connect(socket)
            .unwrap_or_else(|e| panic!("cannot connect to daemon at {socket}: {e}"));
        let hour = Duration::from_secs(3600);
        let result = client
            .run_retrying(&build(x, scheme, seed), 0, false, hour, |_| {})
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
    let headings: Vec<_> = keyed.iter().map(|(p, _)| p.heading()).collect();
    let (tables, runs, seeds, wall_s) =
        run_sweep(&headings, how, xs, schemes, run, |run: &JobResult, ti| {
            run.metric(keyed[ti].1)
        });
    let totals = served_totals(first, &runs);
    write_manifest_totals(first, schemes, &seeds, xs, wall_s, totals);
    keyed.into_iter().map(|(p, _)| p).zip(tables).collect()
}

/// The served manifest's share (`<id>_served_manifest.json`): the per-job
/// wire counters, and next to the usual provenance the batch's dedup
/// facts — how many jobs reused a cached prefix, how many imported a warm
/// link-budget cache, and the medium's cache hit economics summed across
/// replications.
fn served_totals(spec: &FigureSpec, runs: &[JobResult]) -> ManifestTotals<'static> {
    let mut counters = Counters::new();
    for (name, v) in runs.iter().flat_map(|r| &r.counters) {
        counters.add_named(name, *v);
    }
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
        runs: runs.len(),
        events: sum(|r| r.events),
        counters,
        extra_params,
    }
}
