//! Fig. 4 — end-to-end delay vs offered load.
//!
//! Same sweep as Fig. 3; mean and p95 delay. Expected shape: near-zero load
//! all schemes sit at a few ms (flooding marginally lowest — its redundant
//! RREQs are harmless and find shortest paths); under load the ordering
//! inverts and CNLR's queues stay shortest.

use wmn_bench::{emit, standard_schemes, sweep_durations, sweep_figure_multi, FigureSpec};

fn main() {
    wmn_bench::parse_fig_args(env!("CARGO_BIN_NAME"), false);
    let spec = FigureSpec {
        id: "fig4",
        title: "End-to-end delay vs offered load",
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
            ("mean delay (ms)", &|r: &cnlr::RunResults| r.mean_delay_ms()),
            ("p95 delay (ms)", &|r: &cnlr::RunResults| {
                r.summary.p95_delay_s * 1000.0
            }),
        ],
        &xs,
        &schemes,
        build,
    );
    emit(&spec, "", &tables[0]);
    emit(&spec, "p95", &tables[1]);
}
