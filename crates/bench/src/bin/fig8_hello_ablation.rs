//! Fig. 8 — HELLO-interval sensitivity (ablation).
//!
//! CNLR's cross-layer digests ride on HELLO beacons; this sweep shows the
//! staleness/overhead trade-off. Expected shape: PDR is flat-ish with a
//! mild optimum around 1–2 s; very frequent beacons burn airtime, very
//! sparse ones leave the load view stale and link breaks undetected.
//!
//! `--served SOCKET` submits the sweep to a running `wmn-served` daemon
//! instead; both CSVs are byte-identical to the in-process path.

use cnlr::{CnlrConfig, Scheme};
use wmn_bench::spec_sweep::{base_spec, sweep_spec, Panel};
use wmn_bench::{emit, parse_fig_args, FigureSpec};
use wmn_served::ScenarioSpec;

fn main() {
    let served = parse_fig_args(env!("CARGO_BIN_NAME"), true);
    let spec = FigureSpec {
        id: "fig8",
        title: "CNLR HELLO-interval sensitivity",
        x_label: "hello_s",
    };
    let xs: Vec<f64> = if wmn_bench::quick_mode() {
        vec![1.0, 4.0]
    } else {
        vec![0.5, 1.0, 2.0, 4.0, 8.0]
    };
    let schemes = vec![Scheme::Cnlr(CnlrConfig::default())];
    let build = |hello_s: f64, scheme: &Scheme, seed: u64| ScenarioSpec {
        flows: 30,
        pps: 8.0,
        hello_s,
        ..base_spec(scheme, seed)
    };
    let panels = [
        Panel::new(spec, "", "PDR", |r| r.metric("pdr")),
        Panel::new(spec, "control", "control tx (total)", |r| {
            r.metric("control_tx")
        }),
    ];
    for (panel, table) in sweep_spec(&panels, &xs, &schemes, served.as_deref(), build) {
        emit(&panel.figure, panel.suffix, &table);
    }
}
