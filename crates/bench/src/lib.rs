//! `wmn-bench` — the experiment harness.
//!
//! One binary per reconstructed table/figure (see DESIGN.md §3). Each binary
//! sweeps its x-axis over every scheme, replicates over seeds, prints the
//! figure as a markdown table (mean ±95 % CI) and writes a CSV under
//! `results/`. `QUICK=1` in the environment shrinks seeds/durations for CI.

use cnlr::cli::{self, Argv};
use cnlr::{RunResults, ScenarioBuilder, Scheme};
use wmn_metrics::{run_jobs, seeds_from, MeanCi, ResultTable};
use wmn_telemetry::{Counters, RunManifest};

pub mod served;

/// Metadata of one reconstructed figure.
#[derive(Clone, Copy, Debug)]
pub struct FigureSpec {
    /// Identifier (`fig1`, `tab2`, …).
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// x-axis label.
    pub x_label: &'static str,
}

/// Whether quick mode (fewer seeds, shorter runs) is requested.
pub fn quick_mode() -> bool {
    std::env::var("QUICK")
        .map(|v| v != "0" && !v.is_empty())
        .unwrap_or(false)
}

/// Replication seeds for the current mode.
pub fn replication_seeds() -> Vec<u64> {
    seeds_from(0xC41B, if quick_mode() { 2 } else { 5 })
}

/// A named metric extractor.
pub type Metric<'a> = (&'a str, &'a (dyn Fn(&RunResults) -> f64 + Sync));

/// Decompose a flattened sweep job index into `(x, scheme, seed)` indices.
/// Seed is the fastest-varying axis so one cell's replications stay
/// contiguous in the result vector.
pub(crate) fn job_coords(i: usize, n_schemes: usize, n_seeds: usize) -> (usize, usize, usize) {
    let (cell, si) = (i / n_seeds, i % n_seeds);
    (cell / n_schemes, cell % n_schemes, si)
}

/// Fold a finished sweep into one [`ResultTable`] per metric: rows = x
/// values, one column per scheme, each cell the mean ±95 % CI over the
/// cell's seeds. `value(job, metric)` reads one metric of one flattened job
/// (indexed as [`job_coords`] lays them out).
pub(crate) fn fold_tables(
    spec: &FigureSpec,
    metric_names: &[&str],
    xs: &[f64],
    schemes: &[Scheme],
    n_seeds: usize,
    value: impl Fn(usize, usize) -> f64,
) -> Vec<ResultTable> {
    let mut headers: Vec<String> = vec![spec.x_label.to_string()];
    headers.extend(schemes.iter().map(Scheme::label));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut tables: Vec<ResultTable> = metric_names
        .iter()
        .map(|name| {
            ResultTable::new(
                format!("{} — {} ({name})", spec.id, spec.title),
                &header_refs,
            )
        })
        .collect();
    for (xi, &x) in xs.iter().enumerate() {
        for (mi, table) in tables.iter_mut().enumerate() {
            let mut row = vec![format!("{x}")];
            for schi in 0..schemes.len() {
                let base = (xi * schemes.len() + schi) * n_seeds;
                let values: Vec<f64> = (base..base + n_seeds).map(|job| value(job, mi)).collect();
                row.push(MeanCi::from_samples(&values).display(3));
            }
            table.add_row(row);
        }
    }
    tables
}

/// The provenance parameters every sweep manifest carries.
pub(crate) fn standard_params(
    spec: &FigureSpec,
    replications: usize,
    runs: usize,
) -> Vec<(String, String)> {
    let (dur, warm) = sweep_durations();
    vec![
        ("x_label".to_string(), spec.x_label.to_string()),
        ("duration_s".to_string(), format!("{}", dur.as_secs_f64())),
        ("warmup_s".to_string(), format!("{}", warm.as_secs_f64())),
        ("quick".to_string(), quick_mode().to_string()),
        (
            "threads".to_string(),
            wmn_metrics::default_threads().to_string(),
        ),
        ("replications".to_string(), replications.to_string()),
        ("runs".to_string(), runs.to_string()),
    ]
}

/// The one sweep executor behind [`sweep_figure_multi`] and the
/// [`served`] sweeps: one [`ResultTable`] per metric, rows = x values, one
/// column per scheme. `run` performs one job and `value` reads one metric
/// from its result; `how` finishes the banner line given the worker
/// count. Returns `(tables, runs, seeds, wall_s)` — the tables, and what
/// the sweep's manifest is written from.
///
/// The whole sweep is flattened into a single `(x, scheme, seed)` job queue
/// so the thread pool stays saturated across cell boundaries (replication
/// counts are small relative to core counts, so a per-cell pool spends most
/// of its time waiting on the slowest seed). Results come back in job-index
/// order, which keeps the aggregation — and therefore every table — exactly
/// as deterministic as the nested-loop version.
pub(crate) fn run_sweep<R: Send, M>(
    spec: &FigureSpec,
    how: impl Fn(usize) -> String,
    metrics: &[(&str, M)],
    xs: &[f64],
    schemes: &[Scheme],
    run: impl Fn(f64, &Scheme, u64) -> R + Sync,
    value: impl Fn(&R, &M) -> f64,
) -> (Vec<ResultTable>, Vec<R>, Vec<u64>, f64) {
    let t0 = std::time::Instant::now();
    let seeds = replication_seeds();
    let threads = wmn_metrics::default_threads();
    let n_jobs = xs.len() * schemes.len() * seeds.len();
    eprintln!("[{}] {n_jobs} jobs {}", spec.id, how(threads));
    let runs = run_jobs(n_jobs, threads, |i| {
        let (xi, schi, si) = job_coords(i, schemes.len(), seeds.len());
        run(xs[xi], &schemes[schi], seeds[si])
    });
    let names: Vec<&str> = metrics.iter().map(|(name, _)| *name).collect();
    let tables = fold_tables(spec, &names, xs, schemes, seeds.len(), |job, mi| {
        value(&runs[job], &metrics[mi].1)
    });
    let wall_s = t0.elapsed().as_secs_f64();
    (tables, runs, seeds, wall_s)
}

/// Sweep a full figure once, extracting several metrics from the same runs
/// (see [`run_sweep`] for the table layout and job order).
pub fn sweep_figure_multi<F>(
    spec: &FigureSpec,
    metrics: &[Metric<'_>],
    xs: &[f64],
    schemes: &[Scheme],
    build: F,
) -> Vec<ResultTable>
where
    F: Fn(f64, &Scheme, u64) -> ScenarioBuilder + Sync,
{
    let run = |x: f64, scheme: &Scheme, seed: u64| {
        build(x, scheme, seed)
            .build()
            .unwrap_or_else(|e| panic!("scenario build failed at x={x}: {e}"))
            .run()
    };
    let how = |threads| format!("on {threads} threads");
    let (tables, runs, seeds, wall_s) =
        run_sweep(spec, how, metrics, xs, schemes, run, |run, metric| {
            metric(run)
        });
    write_manifest(spec, schemes, &seeds, xs, wall_s, &runs, &[]);
    tables
}

/// What the runs of a sweep add to its manifest beyond the axes.
pub(crate) struct ManifestTotals<'a> {
    pub id: String,
    pub runs: usize,
    pub events: u64,
    pub counters: Counters,
    pub extra_params: Vec<(&'a str, String)>,
}

/// Aggregate the per-run counter registries and attach a provenance
/// manifest to the figure's `results/` output (`<id>_manifest.json`).
/// `extra_params` lets a binary record figure-specific knobs on top of the
/// standard duration/quick/thread set.
pub fn write_manifest(
    spec: &FigureSpec,
    schemes: &[Scheme],
    seeds: &[u64],
    xs: &[f64],
    wall_s: f64,
    runs: &[RunResults],
    extra_params: &[(&str, String)],
) {
    let mut totals = ManifestTotals {
        id: spec.id.to_string(),
        runs: runs.len(),
        events: 0,
        counters: Counters::new(),
        extra_params: extra_params.to_vec(),
    };
    for r in runs {
        for (name, v) in r.counters().iter() {
            totals.counters.add(name, v);
        }
        totals.events += r.events;
    }
    write_manifest_totals(spec, schemes, seeds, xs, wall_s, totals);
}

/// The one manifest writer: `results/<totals.id>_manifest.json`.
pub(crate) fn write_manifest_totals(
    spec: &FigureSpec,
    schemes: &[Scheme],
    seeds: &[u64],
    xs: &[f64],
    wall_s: f64,
    totals: ManifestTotals<'_>,
) {
    let mut params = standard_params(spec, seeds.len(), totals.runs);
    let extra = totals.extra_params.into_iter();
    params.extend(extra.map(|(k, v)| (k.to_string(), v)));
    let manifest = RunManifest {
        schemes: schemes.iter().map(Scheme::label).collect(),
        seeds: seeds.to_vec(),
        xs: xs.to_vec(),
        params,
        wall_s,
        events_processed: totals.events,
        counters: totals.counters,
        ..RunManifest::stamped(totals.id, spec.title)
    };
    match manifest.write(std::path::Path::new("results")) {
        Ok(path) => eprintln!("[{}] wrote {}", spec.id, path.display()),
        Err(e) => eprintln!("warning: could not write {} manifest: {e}", manifest.id),
    }
}

/// Single-metric convenience wrapper over [`sweep_figure_multi`].
pub fn sweep_figure<F, M>(
    spec: &FigureSpec,
    metric_name: &str,
    xs: &[f64],
    schemes: &[Scheme],
    build: F,
    metric: M,
) -> ResultTable
where
    F: Fn(f64, &Scheme, u64) -> ScenarioBuilder + Sync,
    M: Fn(&RunResults) -> f64 + Sync,
{
    sweep_figure_multi(spec, &[(metric_name, &metric)], xs, schemes, build)
        .pop()
        .expect("one table")
}

/// Print a table and persist it under `results/<id>[_suffix].csv`.
pub fn emit(spec: &FigureSpec, suffix: &str, table: &ResultTable) {
    println!("{}", table.to_markdown());
    let dir = std::path::Path::new("results");
    let _ = std::fs::create_dir_all(dir);
    let name = if suffix.is_empty() {
        format!("{}.csv", spec.id)
    } else {
        format!("{}_{}.csv", spec.id, suffix)
    };
    let path = dir.join(name);
    if let Err(e) = std::fs::write(&path, table.to_csv()) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        eprintln!("[{}] wrote {}", spec.id, path.display());
    }
}

/// The standard scheme set.
pub fn standard_schemes() -> Vec<Scheme> {
    Scheme::evaluation_set()
}

/// Strict argv parsing for the figure binaries: `--help`, plus — where
/// the figure can run through a `wmn-served` daemon (`takes_served`) —
/// `--served SOCKET`, whose socket is returned. Anything else exits 2: a
/// silently ignored flag would run the wrong experiment and report
/// success.
pub fn parse_fig_args(bin: &str, takes_served: bool) -> Option<String> {
    let served_usage = match takes_served {
        true => {
            " [--served SOCKET]\n\n\
             \x20 --served SOCKET   submit the sweep to a wmn-served daemon instead of\n\
             \x20                   running in-process (CSV output is byte-identical)"
        }
        false => "",
    };
    let mut served = None;
    let mut argv = Argv::from_env();
    while let Some(flag) = argv.next_arg() {
        match flag.as_str() {
            "--served" if takes_served => match argv.value("--served") {
                Ok(socket) => served = Some(socket),
                Err(e) => cli::usage_error(bin, &e),
            },
            "--help" | "-h" => cli::help(&format!(
                "usage: {bin}{served_usage}\n\n\
                 env: QUICK=1 shrinks seeds/durations; WMN_THREADS caps parallelism"
            )),
            other => cli::usage_error(bin, &format!("unknown argument '{other}'")),
        }
    }
    served
}

/// Run duration knobs shared by the figure binaries:
/// `(duration, warmup)`.
pub fn sweep_durations() -> (wmn_sim::SimDuration, wmn_sim::SimDuration) {
    if quick_mode() {
        (
            wmn_sim::SimDuration::from_secs(20),
            wmn_sim::SimDuration::from_secs(5),
        )
    } else {
        (
            wmn_sim::SimDuration::from_secs(60),
            wmn_sim::SimDuration::from_secs(10),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_stable_and_distinct() {
        let a = replication_seeds();
        let b = replication_seeds();
        assert_eq!(a, b);
        let mut c = a.clone();
        c.sort_unstable();
        c.dedup();
        assert_eq!(a.len(), c.len());
    }

    #[test]
    fn durations_ordered() {
        let (d, w) = sweep_durations();
        assert!(d > w);
    }

    #[test]
    fn job_coords_cover_the_sweep_in_order() {
        // 3 x-values × 2 schemes × 5 seeds: the flattened index must walk
        // seeds fastest, then schemes, then x — exactly the nested-loop
        // order the aggregation slices assume.
        let (nx, nsch, nseed) = (3, 2, 5);
        let mut expect = Vec::new();
        for xi in 0..nx {
            for schi in 0..nsch {
                for si in 0..nseed {
                    expect.push((xi, schi, si));
                }
            }
        }
        let got: Vec<_> = (0..nx * nsch * nseed)
            .map(|i| job_coords(i, nsch, nseed))
            .collect();
        assert_eq!(got, expect);
    }
}
