//! Fig. 6 — forwarding-load balance vs offered load.
//!
//! Jain's fairness index (higher = more even) and the hotspot factor
//! (max/mean, lower = better) of per-node forwarded-packet counts.
//! Expected shape: CNLR's load-aware route costs spread traffic, so its
//! Jain index dominates and its hotspot factor is lowest as load grows.

use wmn_bench::{emit, standard_schemes, sweep_durations, sweep_figure_multi, FigureSpec};

fn main() {
    wmn_bench::parse_fig_args(env!("CARGO_BIN_NAME"), false);
    let spec = FigureSpec {
        id: "fig6",
        title: "Forwarding-load balance vs offered load",
        x_label: "flows",
    };
    let (dur, warm) = sweep_durations();
    let xs: Vec<f64> = if wmn_bench::quick_mode() {
        vec![10.0, 40.0]
    } else {
        vec![5.0, 10.0, 20.0, 30.0, 40.0, 50.0]
    };
    let schemes = standard_schemes();
    let build = move |flows: f64, scheme: &cnlr::Scheme, seed: u64| {
        cnlr::presets::backbone(8, 0, seed)
            .scheme(scheme.clone())
            .flows(flows as usize, 8.0, 512)
            .duration(dur)
            .warmup(warm)
    };
    let tables = sweep_figure_multi(
        &spec,
        &[
            ("Jain index", &|r: &cnlr::RunResults| r.jain_forwarding),
            ("hotspot factor (max/mean)", &|r: &cnlr::RunResults| {
                r.hotspot
            }),
        ],
        &xs,
        &schemes,
        build,
    );
    emit(&spec, "", &tables[0]);
    emit(&spec, "hotspot", &tables[1]);
}
