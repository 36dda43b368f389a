//! Figs. 3, 4, 5, 6 and 9 — one offered-load sweep, five views.
//!
//! 8×8 backbone, 8 pkt/s × 512 B CBR flows, flow count swept 5–50; each
//! figure reads its own metrics from the same runs. Expected shapes: all
//! schemes deliver ≈ 1 at light load, and past the contention knee CNLR
//! degrades latest (Fig. 3, PDR), keeps the shortest queues (Fig. 4, mean
//! and p95 delay), sustains the highest goodput plateau (Fig. 5), spreads
//! forwarding most evenly (Fig. 6, Jain index and hotspot factor) and
//! spends the least radio energy per delivered packet under the
//! Feeney–Nilsson model (Fig. 9), because it damps discovery storms where
//! the channel is busy and routes around hot regions.
//!
//! `--served SOCKET` submits the sweep to a running `wmn-served` daemon
//! instead; all eight CSVs are byte-identical to the in-process path (the
//! CI smoke job diffs them).

use wmn_bench::spec_sweep::{base_spec, sweep_spec, Panel};
use wmn_bench::{emit, parse_fig_args, FigureSpec};
use wmn_served::ScenarioSpec;

fn main() {
    let served = parse_fig_args(env!("CARGO_BIN_NAME"), true);
    let figure = |id, title| FigureSpec {
        id,
        title,
        x_label: "flows",
    };
    let fig3 = figure("fig3", "Packet delivery ratio vs offered load");
    let fig4 = figure("fig4", "End-to-end delay vs offered load");
    let fig5 = figure("fig5", "Aggregate goodput vs offered load");
    let fig6 = figure("fig6", "Forwarding-load balance vs offered load");
    let fig9 = figure("fig9", "Energy per delivered packet vs offered load");
    let panels = [
        Panel::new(fig3, "", "PDR", |r| r.metric("pdr")),
        Panel::new(fig4, "", "mean delay (ms)", |r| r.metric("mean_delay_ms")),
        Panel::new(fig4, "p95", "p95 delay (ms)", |r| r.metric("p95_delay_ms")),
        Panel::new(fig5, "", "goodput (kb/s)", |r| r.metric("goodput_kbps")),
        Panel::new(fig6, "", "Jain index", |r| r.metric("jain_forwarding")),
        Panel::new(fig6, "hotspot", "hotspot factor (max/mean)", |r| {
            r.metric("hotspot")
        }),
        Panel::new(fig9, "", "comm energy per delivered pkt (mJ)", |r| {
            r.metric("comm_energy_mj_per_pkt")
        }),
        Panel::new(fig9, "max_node", "max single-node energy (J)", |r| {
            r.metric("energy_max_node_j")
        }),
    ];
    let xs: Vec<f64> = if wmn_bench::quick_mode() {
        vec![10.0, 40.0]
    } else {
        vec![5.0, 10.0, 20.0, 30.0, 40.0, 50.0]
    };
    let build = |flows: f64, scheme: &cnlr::Scheme, seed: u64| ScenarioSpec {
        flows: flows as usize,
        pps: 8.0,
        ..base_spec(scheme, seed)
    };
    let schemes = cnlr::Scheme::evaluation_set();
    for (panel, table) in sweep_spec(&panels, &xs, &schemes, served.as_deref(), build) {
        emit(&panel.figure, panel.suffix, &table);
    }
}
