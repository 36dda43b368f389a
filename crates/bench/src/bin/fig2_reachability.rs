//! Fig. 2 — discovery success vs network density.
//!
//! 8×8 grid with the pitch swept from dense (150 m) to marginal (240 m).
//! Expected shape: all schemes succeed when dense; fixed-p gossip decays
//! first as the network thins; CNLR's probability floor keeps it near
//! flooding.

use wmn_bench::{emit, standard_schemes, sweep_durations, sweep_figure_multi, FigureSpec};

fn main() {
    wmn_bench::parse_fig_args(env!("CARGO_BIN_NAME"), false);
    let spec = FigureSpec {
        id: "fig2",
        title: "Discovery success vs density (grid pitch)",
        x_label: "pitch_m",
    };
    let (dur, warm) = sweep_durations();
    let xs: Vec<f64> = if wmn_bench::quick_mode() {
        vec![180.0, 230.0]
    } else {
        vec![150.0, 180.0, 200.0, 215.0, 230.0]
    };
    let schemes = standard_schemes();
    let build = |pitch: f64, scheme: &cnlr::Scheme, seed: u64| {
        cnlr::ScenarioBuilder::new()
            .seed(seed)
            .grid(8, 8, pitch)
            .scheme(scheme.clone())
            .flows(10, 2.0, 512)
            .duration(dur)
            .warmup(warm)
    };
    let tables = sweep_figure_multi(
        &spec,
        &[
            ("discovery success ratio", &|r: &cnlr::RunResults| {
                r.discovery_success
            }),
            ("packet delivery ratio", &|r: &cnlr::RunResults| r.pdr()),
        ],
        &xs,
        &schemes,
        build,
    );
    emit(&spec, "", &tables[0]);
    emit(&spec, "pdr", &tables[1]);
}
