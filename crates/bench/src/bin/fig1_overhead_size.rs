//! Fig. 1 — routing overhead vs network size.
//!
//! RREQ transmissions per discovery for 25–196-router grids at constant
//! density (180 m pitch). Expected shape: flooding grows ≈ N; gossip ≈ p·N;
//! CNLR between p_min·N and p_max·N depending on load, always below
//! flooding.

use wmn_bench::{emit, standard_schemes, sweep_durations, sweep_figure_multi, FigureSpec};

fn main() {
    wmn_bench::parse_fig_args(env!("CARGO_BIN_NAME"), false);
    let spec = FigureSpec {
        id: "fig1",
        title: "Routing overhead vs network size",
        x_label: "nodes",
    };
    let (dur, warm) = sweep_durations();
    let sides: Vec<f64> = if wmn_bench::quick_mode() {
        vec![5.0, 8.0]
    } else {
        vec![5.0, 7.0, 8.0, 10.0, 12.0, 14.0]
    };
    let xs: Vec<f64> = sides.iter().map(|s| s * s).collect();
    let schemes = standard_schemes();

    let build = |x: f64, scheme: &cnlr::Scheme, seed: u64| {
        let side = (x as usize).isqrt();
        cnlr::presets::backbone(side, 15, seed)
            .scheme(scheme.clone())
            .duration(dur)
            .warmup(warm)
    };
    let tables = sweep_figure_multi(
        &spec,
        &[
            ("RREQ tx per discovery", &|r: &cnlr::RunResults| {
                r.rreq_tx_per_discovery
            }),
            ("saved-rebroadcast ratio", &|r: &cnlr::RunResults| {
                r.saved_rebroadcast
            }),
        ],
        &xs,
        &schemes,
        build,
    );
    emit(&spec, "", &tables[0]);
    emit(&spec, "srb", &tables[1]);
}
