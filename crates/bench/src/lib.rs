//! `wmn-bench` — the experiment harness.
//!
//! One binary per reconstructed table/figure (see DESIGN.md §3), except
//! Figs. 3, 4, 5, 6 and 9: they are five views of one offered-load sweep,
//! which `load_sweep` runs once. Each binary sweeps its x-axis over every
//! scheme, replicates over seeds, prints the figure as a markdown table
//! (mean ±95 % CI) and writes a CSV under `results/`. `QUICK=1` in the
//! environment shrinks seeds/durations for CI.

use cnlr::cli::{self, Argv};
use cnlr::{outln, ScenarioBuilder, Scheme};
use spec_sweep::Panel;
use wmn_metrics::{run_jobs, seeds_from, MeanCi, ResultTable};
use wmn_served::JobResult;
use wmn_sim::SimDuration;
use wmn_telemetry::{Counters, RunManifest};

pub mod spec_sweep;

/// Metadata of one reconstructed figure.
#[derive(Clone, Copy, Debug)]
pub struct FigureSpec<'a> {
    /// Identifier (`fig1`, `tab2`, …).
    pub id: &'static str,
    /// Human title.
    pub title: &'a str,
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

/// Decompose a flattened sweep job index into `(x, scheme, seed)` indices.
/// Seed is the fastest-varying axis so one cell's replications stay
/// contiguous in the result vector.
pub(crate) fn job_coords(i: usize, n_schemes: usize, n_seeds: usize) -> (usize, usize, usize) {
    let (cell, si) = (i / n_seeds, i % n_seeds);
    (cell / n_schemes, cell % n_schemes, si)
}

/// Fold a finished sweep into one [`ResultTable`] per panel: rows = x
/// values, one column per scheme, each cell the mean ±95 % CI of the
/// panel's reading over the cell's seeds. `runs` holds one record per
/// flattened job, laid out as [`job_coords`] orders them.
fn fold_tables(
    panels: &[Panel],
    xs: &[f64],
    schemes: &[Scheme],
    n_seeds: usize,
    runs: &[JobResult],
) -> Vec<ResultTable> {
    let mut out: Vec<ResultTable> = panels
        .iter()
        .map(|Panel { figure, label, .. }| {
            let mut headers = vec![figure.x_label.to_string()];
            headers.extend(schemes.iter().map(Scheme::label));
            let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
            ResultTable::new(
                format!("{} — {} ({label})", figure.id, figure.title),
                &header_refs,
            )
        })
        .collect();
    for (xi, &x) in xs.iter().enumerate() {
        for (panel, table) in panels.iter().zip(&mut out) {
            let mut row = vec![format!("{x}")];
            for schi in 0..schemes.len() {
                let base = (xi * schemes.len() + schi) * n_seeds;
                let values: Vec<f64> = runs[base..base + n_seeds].iter().map(panel.read).collect();
                row.push(MeanCi::from_samples(&values).display(3));
            }
            table.add_row(row);
        }
    }
    out
}

/// The one sweep executor behind [`sweep_figure_multi`] and
/// [`spec_sweep::sweep_spec`]: one [`ResultTable`] per panel (see
/// [`fold_tables`]). `run` performs one job and returns its record, built
/// in-process by [`JobResult::from_run`] or read from a daemon; `how`
/// finishes the banner line given the worker count. Returns `(tables,
/// runs, seeds, wall_s)` — the tables, and what the sweep's manifest is
/// written from.
///
/// The whole sweep is flattened into a single `(x, scheme, seed)` job queue
/// so the thread pool stays saturated across cell boundaries (replication
/// counts are small relative to core counts, so a per-cell pool spends most
/// of its time waiting on the slowest seed). Results come back in job-index
/// order, which keeps the aggregation — and therefore every table — exactly
/// as deterministic as the nested-loop version.
pub(crate) fn run_sweep(
    panels: &[Panel],
    how: impl Fn(usize) -> String,
    xs: &[f64],
    schemes: &[Scheme],
    run: impl Fn(f64, &Scheme, u64) -> JobResult + Sync,
) -> (Vec<ResultTable>, Vec<JobResult>, Vec<u64>, f64) {
    let t0 = std::time::Instant::now();
    let seeds = replication_seeds();
    let threads = wmn_metrics::default_threads();
    let n_jobs = xs.len() * schemes.len() * seeds.len();
    eprintln!("[{}] {n_jobs} jobs {}", panels[0].figure.id, how(threads));
    let runs = run_jobs(n_jobs, threads, |i| {
        let (xi, schi, si) = job_coords(i, schemes.len(), seeds.len());
        run(xs[xi], &schemes[schi], seeds[si])
    });
    let tables = fold_tables(panels, xs, schemes, seeds.len(), &runs);
    let wall_s = t0.elapsed().as_secs_f64();
    (tables, runs, seeds, wall_s)
}

/// Sweep a figure once in-process and return each panel's table, in
/// panel order (see `run_sweep` for the table layout and job order); every
/// job is built by `build`, run here and recorded by
/// [`JobResult::from_run`], and the manifest is written under the first
/// panel's figure id. For figures a [`wmn_served::ScenarioSpec`]
/// describes, [`spec_sweep::sweep_spec`] is the path that can also run
/// through a daemon.
pub fn sweep_figure_multi<'p>(
    panels: &'p [Panel],
    xs: &[f64],
    schemes: &[Scheme],
    build: impl Fn(f64, &Scheme, u64) -> ScenarioBuilder + Sync,
) -> Vec<(&'p Panel, ResultTable)> {
    let run = |x: f64, scheme: &Scheme, seed: u64| {
        let sim = (build(x, scheme, seed).build())
            .unwrap_or_else(|e| panic!("scenario build failed at x={x}: {e}"));
        JobResult::from_run(&sim.run())
    };
    let how = |threads| format!("on {threads} threads");
    let (tables, runs, seeds, wall_s) = run_sweep(panels, how, xs, schemes, run);
    write_manifest(&panels[0].figure, schemes, &seeds, xs, wall_s, &runs, &[]);
    panels.iter().zip(tables).collect()
}

/// What the runs of a sweep add to its manifest beyond the axes: their
/// job count, summed events and summed counter registries, under
/// `results/<id>_manifest.json`.
pub(crate) struct ManifestTotals<'a> {
    pub id: String,
    pub runs: &'a [JobResult],
    pub extra_params: Vec<(&'a str, String)>,
}

/// The counter registries of `runs`, summed name by name in first-seen
/// order.
pub fn counter_totals(runs: &[JobResult]) -> Counters {
    let mut totals = Counters::new();
    for (name, v) in runs.iter().flat_map(|r| &r.counters) {
        totals.add_named(name, *v);
    }
    totals
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
    runs: &[JobResult],
    extra_params: &[(&str, String)],
) {
    let totals = ManifestTotals {
        id: spec.id.to_string(),
        runs,
        extra_params: extra_params.to_vec(),
    };
    write_manifest_totals(spec, schemes, seeds, xs, wall_s, totals);
}

/// The one sweep manifest writer: `results/<totals.id>_manifest.json`,
/// with the standard duration/quick/thread provenance ahead of
/// `totals.extra_params`.
pub(crate) fn write_manifest_totals(
    spec: &FigureSpec,
    schemes: &[Scheme],
    seeds: &[u64],
    xs: &[f64],
    wall_s: f64,
    totals: ManifestTotals<'_>,
) {
    let (dur, warm) = sweep_durations();
    let standard = [
        ("x_label", spec.x_label.to_string()),
        ("duration_s", format!("{}", dur.as_secs_f64())),
        ("warmup_s", format!("{}", warm.as_secs_f64())),
        ("quick", quick_mode().to_string()),
        ("threads", wmn_metrics::default_threads().to_string()),
        ("replications", seeds.len().to_string()),
        ("runs", totals.runs.len().to_string()),
    ];
    let params = (standard.into_iter().chain(totals.extra_params))
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    save_manifest(&RunManifest {
        schemes: schemes.iter().map(Scheme::label).collect(),
        seeds: seeds.to_vec(),
        xs: xs.to_vec(),
        params,
        wall_s,
        events_processed: totals.runs.iter().map(|r| r.events).sum(),
        counters: counter_totals(totals.runs),
        ..RunManifest::stamped(totals.id, spec.title)
    });
}

/// Write `manifest` under `results/`. A failed write exits 1: the figure
/// did not produce what it reports, and `run_all_experiments.sh` must not
/// stamp it as done.
pub fn save_manifest(manifest: &RunManifest) {
    match manifest.write(std::path::Path::new("results")) {
        Ok(path) => eprintln!("[{}] wrote {}", manifest.id, path.display()),
        Err(e) => fail(&format!("could not write {} manifest: {e}", manifest.id)),
    }
}

/// Print a table and persist it under `results/<id>[_suffix].csv`. A
/// failed write exits 1, as [`save_manifest`]'s does.
pub fn emit(spec: &FigureSpec, suffix: &str, table: &ResultTable) {
    outln!("{}", table.to_markdown());
    let name = match suffix {
        "" => format!("{}.csv", spec.id),
        _ => format!("{}_{suffix}.csv", spec.id),
    };
    let path = std::path::Path::new("results").join(name);
    let written =
        std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, table.to_csv()));
    match written {
        Ok(()) => eprintln!("[{}] wrote {}", spec.id, path.display()),
        Err(e) => fail(&format!("could not write {}: {e}", path.display())),
    }
}

fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(1)
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
             \x20                   running in-process (every CSV it writes is byte-identical)"
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
pub fn sweep_durations() -> (SimDuration, SimDuration) {
    let (dur, warm) = if quick_mode() { (20, 5) } else { (60, 10) };
    (SimDuration::from_secs(dur), SimDuration::from_secs(warm))
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
