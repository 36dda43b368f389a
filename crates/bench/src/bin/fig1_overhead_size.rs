//! Fig. 1 — routing overhead vs network size.
//!
//! RREQ transmissions per discovery for 25–196-router grids at constant
//! density (180 m pitch). Expected shape: flooding grows ≈ N; gossip ≈ p·N;
//! CNLR between p_min·N and p_max·N depending on load, always below
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
        id: "fig1",
        title: "Routing overhead vs network size",
        x_label: "nodes",
    };
    let sides: Vec<f64> = if wmn_bench::quick_mode() {
        vec![5.0, 8.0]
    } else {
        vec![5.0, 7.0, 8.0, 10.0, 12.0, 14.0]
    };
    let xs: Vec<f64> = sides.iter().map(|s| s * s).collect();
    let schemes = cnlr::Scheme::evaluation_set();

    let build = |x: f64, scheme: &cnlr::Scheme, seed: u64| {
        let side = (x as usize).isqrt();
        ScenarioSpec {
            grid_rows: side,
            grid_cols: side,
            flows: 15,
            pps: 4.0,
            ..base_spec(scheme, seed)
        }
    };
    let panels = [
        Panel::new(spec, "", "RREQ tx per discovery", |r| {
            r.metric("rreq_per_discovery")
        }),
        Panel::new(spec, "srb", "saved-rebroadcast ratio", |r| {
            r.metric("saved_rebroadcast")
        }),
    ];
    for (panel, table) in sweep_spec(&panels, &xs, &schemes, served.as_deref(), build) {
        emit(&panel.figure, panel.suffix, &table);
    }
}
