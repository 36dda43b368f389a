//! Fig. 5 — aggregate goodput vs offered load.
//!
//! Same sweep as Fig. 3. Expected shape: goodput tracks offered load until
//! the contention knee, then CNLR sustains the highest plateau.

use wmn_bench::{emit, standard_schemes, sweep_durations, sweep_figure, FigureSpec};

fn main() {
    wmn_bench::parse_fig_args(env!("CARGO_BIN_NAME"), false);
    let spec = FigureSpec {
        id: "fig5",
        title: "Aggregate goodput vs offered load",
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
    let t = sweep_figure(&spec, "goodput (kb/s)", &xs, &schemes, build, |r| {
        r.goodput_kbps
    });
    emit(&spec, "", &t);
}
