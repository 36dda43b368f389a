//! Fig. 7 — mobile-client scenario vs maximum client speed.
//!
//! 6×6 static backbone plus 15 random-waypoint clients whose top speed is
//! swept 0–20 m/s (at 0 the clients do not move). Compares flooding, CNLR,
//! and the velocity-aware VAP-CNLR. Expected shape: all schemes degrade
//! with speed; VAP-CNLR retains the highest PDR at speed (it excludes
//! about-to-break links) at a small overhead premium over CNLR.
//!
//! `--served SOCKET` submits the sweep to a running `wmn-served` daemon
//! instead; all four CSVs are byte-identical to the in-process path.

use cnlr::{CnlrConfig, Scheme, VapConfig};
use wmn_bench::spec_sweep::{base_spec, sweep_spec, Panel};
use wmn_bench::{emit, parse_fig_args, FigureSpec};
use wmn_served::ScenarioSpec;

fn main() {
    let served = parse_fig_args(env!("CARGO_BIN_NAME"), true);
    let spec = FigureSpec {
        id: "fig7",
        title: "Mobile clients: PDR vs max speed",
        x_label: "speed_mps",
    };
    let xs: Vec<f64> = if wmn_bench::quick_mode() {
        vec![0.0, 20.0]
    } else {
        vec![0.0, 5.0, 10.0, 15.0, 20.0]
    };
    let schemes = vec![
        Scheme::Flooding,
        Scheme::Cnlr(CnlrConfig::default()),
        Scheme::VapCnlr(CnlrConfig::default(), VapConfig::default()),
    ];
    let build = |speed: f64, scheme: &Scheme, seed: u64| ScenarioSpec {
        grid_rows: 6,
        grid_cols: 6,
        flows: 15,
        pps: 4.0,
        clients: 15,
        client_speed: speed,
        ..base_spec(scheme, seed)
    };
    let panels = [
        Panel::new(spec, "", "PDR", |r| r.metric("pdr")),
        Panel::new(spec, "overhead", "RREQ tx per discovery", |r| {
            r.metric("rreq_per_discovery")
        }),
        // Link-cache effectiveness under mobility (the scenario per-entry
        // budget reuse targets). These read the medium's perf counters,
        // which a warm link-cache import moves; served and in-process agree
        // only because mobile clients make no fig7 job eligible for one.
        Panel::new(spec, "cache", "link cache hit rate", |r| {
            r.link_cache_hits as f64 / r.counter("phy_tx_started").max(1) as f64
        }),
        Panel::new(spec, "reuse", "link budget reuse rate", |r| {
            1.0 - r.pathloss_evals as f64 / r.link_budgets.max(1) as f64
        }),
    ];
    for (panel, table) in sweep_spec(&panels, &xs, &schemes, served.as_deref(), build) {
        emit(&panel.figure, panel.suffix, &table);
    }
}
