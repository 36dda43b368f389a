//! Fig. 12 — the scale path: wall-clock and medium-cache behaviour as the
//! network grows from 100 to 10 000 routers at constant density.
//!
//! Sweeps N over the scale presets (grid placement for flooding/CNLR, plus
//! a uniform-random CNLR column) and reports, per scheme:
//! wall-clock seconds, engine events per second, pathloss evaluations per
//! transmission, the transmission-level link-cache hit rate, and the
//! budget-level reuse rate. Sweep cells run in parallel (bounded by
//! `WMN_THREADS`), but each cell's wall-clock is measured around its own
//! `sim.run()` inside the job, so the per-run numbers stay honest; results
//! are aggregated in job order, so tables and CSVs are identical to the
//! sequential version at `WMN_THREADS=1`.
//!
//! `QUICK=1` shrinks the sweep to {100, 1000} nodes and short runs (the CI
//! smoke job); the full sweep covers {100, 400, 1000, 4000, 10000}.

use cnlr::{presets, CnlrConfig, RunResults, Scheme};
use wmn_bench::{emit, quick_mode, replication_seeds, write_manifest, FigureSpec};
use wmn_metrics::{run_jobs, ResultTable};
use wmn_sim::SimDuration;

struct Column {
    label: &'static str,
    scheme: Scheme,
    random_placement: bool,
}

fn main() {
    wmn_bench::parse_fig_args(env!("CARGO_BIN_NAME"), false);
    let spec = FigureSpec {
        id: "fig12",
        title: "Scale sweep: wall-clock and cache behaviour vs network size",
        x_label: "nodes",
    };
    let xs: Vec<f64> = if quick_mode() {
        vec![100.0, 1000.0]
    } else {
        vec![100.0, 400.0, 1000.0, 4000.0, 10000.0]
    };
    // Short horizons: the figure measures throughput of the simulator, not
    // steady-state protocol behaviour, and 10k nodes at 60 s would dominate
    // the whole bench suite.
    let (dur, warm) = if quick_mode() {
        (SimDuration::from_secs(10), SimDuration::from_secs(2))
    } else {
        (SimDuration::from_secs(20), SimDuration::from_secs(5))
    };
    let columns = [
        Column {
            label: "flooding",
            scheme: Scheme::Flooding,
            random_placement: false,
        },
        Column {
            label: "cnlr",
            scheme: Scheme::Cnlr(CnlrConfig::default()),
            random_placement: false,
        },
        Column {
            label: "cnlr-random",
            scheme: Scheme::Cnlr(CnlrConfig::default()),
            random_placement: true,
        },
    ];
    let seed = replication_seeds()[0];

    type Metric = (&'static str, &'static str, fn(&RunResults, f64) -> f64);
    let metrics: [Metric; 6] = [
        ("wall-clock s", "", |_, wall| wall),
        ("events per second", "events", |r, wall| {
            r.events as f64 / wall.max(1e-9)
        }),
        ("pathloss evals per tx", "evals", |r, _| {
            r.medium.pathloss_evals as f64 / r.medium.tx_started.max(1) as f64
        }),
        ("link cache hit rate", "cache", |r, _| {
            r.medium.link_cache_hits as f64 / r.medium.tx_started.max(1) as f64
        }),
        ("link budget reuse rate", "reuse", |r, _| {
            1.0 - r.medium.pathloss_evals as f64 / r.medium.link_budgets.max(1) as f64
        }),
        ("PDR", "pdr", |r, _| r.pdr()),
    ];

    let mut headers: Vec<&str> = vec![spec.x_label];
    headers.extend(columns.iter().map(|c| c.label));
    let mut tables: Vec<ResultTable> = metrics
        .iter()
        .map(|(name, _, _)| {
            ResultTable::new(format!("{} — {} ({name})", spec.id, spec.title), &headers)
        })
        .collect();

    let t0 = std::time::Instant::now();
    // One job per (n, column) cell, executed by the shared pool. The
    // closure measures wall-clock around its own run, so per-run numbers
    // are honest even when cells co-run; `run_jobs` returns results in job
    // order, so the aggregation below is byte-identical to a serial sweep.
    let n_cells = xs.len() * columns.len();
    let threads = wmn_metrics::default_threads().min(n_cells);
    eprintln!("[fig12] {n_cells} cells on {threads} threads");
    let cell_results: Vec<(RunResults, f64)> = run_jobs(n_cells, threads, |i| {
        let (xi, ci) = (i / columns.len(), i % columns.len());
        let n = xs[xi] as usize;
        // Offered load scales with the network: one flow per ~40 routers.
        let flows = (n / 40).max(5);
        let col = &columns[ci];
        let builder = if col.random_placement {
            presets::scale_random(n, flows, seed)
        } else {
            presets::scale_grid(n, flows, seed)
        };
        let sim = builder
            .scheme(col.scheme.clone())
            .duration(dur)
            .warmup(warm)
            .build()
            .unwrap_or_else(|e| panic!("scale scenario build failed at n={n}: {e}"));
        let run_t0 = std::time::Instant::now();
        let r = sim.run();
        let wall = run_t0.elapsed().as_secs_f64();
        eprintln!(
            "[fig12] n={n} {}: {:.2}s wall, {:.0} ev/s, {:.2} evals/tx, hit {:.3}, reuse {:.3}",
            col.label,
            wall,
            r.events as f64 / wall.max(1e-9),
            r.medium.pathloss_evals as f64 / r.medium.tx_started.max(1) as f64,
            r.medium.link_cache_hits as f64 / r.medium.tx_started.max(1) as f64,
            1.0 - r.medium.pathloss_evals as f64 / r.medium.link_budgets.max(1) as f64,
        );
        (r, wall)
    });
    // Load-imbalance across the cell pool: the honest per-cell walls are
    // the profiling signal here (cell-parallelism has no epoch barriers,
    // so barrier-wait share is not applicable to this figure).
    let cell_walls: Vec<f64> = cell_results.iter().map(|(_, w)| *w).collect();
    let wall_max = cell_walls.iter().cloned().fold(0.0f64, f64::max);
    let wall_mean = cell_walls.iter().sum::<f64>() / cell_walls.len().max(1) as f64;
    let mut runs: Vec<RunResults> = Vec::new();
    let mut cells = cell_results.into_iter();
    for &x in &xs {
        let n = x as usize;
        let mut rows: Vec<Vec<String>> = metrics.iter().map(|_| vec![format!("{n}")]).collect();
        for _ in &columns {
            let (r, wall) = cells.next().expect("one result per cell");
            for (mi, (_, _, f)) in metrics.iter().enumerate() {
                rows[mi].push(format!("{:.4}", f(&r, wall)));
            }
            runs.push(r);
        }
        for (table, row) in tables.iter_mut().zip(rows) {
            table.add_row(row);
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();

    let schemes = vec![Scheme::Flooding, Scheme::Cnlr(CnlrConfig::default())];
    write_manifest(
        &spec,
        &schemes,
        &[seed],
        &xs,
        wall_s,
        &runs,
        &[
            ("placements", "grid, grid, uniform-random".to_string()),
            ("fig12_duration_s", format!("{}", dur.as_secs_f64())),
            ("fig12_warmup_s", format!("{}", warm.as_secs_f64())),
            ("cell_threads", threads.to_string()),
            (
                "cell_wall_imbalance",
                format!("{:.3}", wall_max / wall_mean.max(1e-9)),
            ),
            ("barrier_wait_share", "n/a (cell-parallel)".to_string()),
        ],
    );
    for ((_, suffix, _), table) in metrics.iter().zip(&tables) {
        emit(&spec, suffix, table);
    }
}
