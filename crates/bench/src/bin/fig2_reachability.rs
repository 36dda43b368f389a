//! Fig. 2 — discovery success vs network density.
//!
//! 8×8 grid with the pitch swept from dense (150 m) to marginal (240 m).
//! Expected shape: all schemes succeed when dense; fixed-p gossip decays
//! first as the network thins; CNLR's probability floor keeps it near
//! flooding.
//!
//! `--served SOCKET` submits the sweep to a running `wmn-served` daemon
//! instead; both CSVs are byte-identical to the in-process path.

use wmn_bench::spec_sweep::{base_spec, sweep_spec, Panel};
use wmn_bench::{emit, parse_fig_args, FigureSpec};
use wmn_served::ScenarioSpec;

fn main() {
    let served = parse_fig_args(env!("CARGO_BIN_NAME"), true);
    let spec = FigureSpec {
        id: "fig2",
        title: "Discovery success vs density (grid pitch)",
        x_label: "pitch_m",
    };
    let xs: Vec<f64> = if wmn_bench::quick_mode() {
        vec![180.0, 230.0]
    } else {
        vec![150.0, 180.0, 200.0, 215.0, 230.0]
    };
    let schemes = cnlr::Scheme::evaluation_set();
    let build = |pitch: f64, scheme: &cnlr::Scheme, seed: u64| ScenarioSpec {
        pitch_m: pitch,
        flows: 10,
        pps: 2.0,
        ..base_spec(scheme, seed)
    };
    let panels = [
        Panel::new(spec, "", "discovery success ratio", |r| {
            r.metric("discovery_success")
        }),
        Panel::new(spec, "pdr", "packet delivery ratio", |r| r.metric("pdr")),
    ];
    for (panel, table) in sweep_spec(&panels, &xs, &schemes, served.as_deref(), build) {
        emit(&panel.figure, panel.suffix, &table);
    }
}
