//! Fig. 7 — mobile-client scenario vs maximum client speed.
//!
//! 6×6 static backbone plus 15 random-waypoint clients whose top speed is
//! swept 0–20 m/s. Compares flooding, CNLR, and the velocity-aware
//! VAP-CNLR. Expected shape: all schemes degrade with speed; VAP-CNLR
//! retains the highest PDR at speed (it excludes about-to-break links) at a
//! small overhead premium over CNLR.

use cnlr::{CnlrConfig, Scheme, VapConfig};
use wmn_bench::spec_sweep::Panel;
use wmn_bench::{emit, sweep_durations, sweep_figure_multi, FigureSpec};
use wmn_mobility::MobilityConfig;

fn main() {
    wmn_bench::parse_fig_args(env!("CARGO_BIN_NAME"), false);
    let spec = FigureSpec {
        id: "fig7",
        title: "Mobile clients: PDR vs max speed",
        x_label: "speed_mps",
    };
    let (dur, warm) = sweep_durations();
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
    let build = move |speed: f64, scheme: &Scheme, seed: u64| {
        let clients = 15;
        let mobility = if speed <= 0.0 {
            MobilityConfig::Static
        } else {
            MobilityConfig::RandomWaypoint {
                v_min: 1.0,
                v_max: speed,
                pause_s: 2.0,
            }
        };
        cnlr::ScenarioBuilder::new()
            .seed(seed)
            .grid(6, 6, 180.0)
            .scheme(scheme.clone())
            .mobile_clients(clients, mobility)
            .flows(15, 4.0, 512)
            .duration(dur)
            .warmup(warm)
    };
    let panels = [
        Panel::local(spec, "", "PDR", |r| r.pdr()),
        Panel::local(spec, "overhead", "RREQ tx per discovery", |r| {
            r.rreq_tx_per_discovery
        }),
        // Link-cache effectiveness under mobility (the scenario per-entry
        // budget reuse targets).
        Panel::local(spec, "cache", "link cache hit rate", |r| {
            r.medium.link_cache_hits as f64 / r.medium.tx_started.max(1) as f64
        }),
        Panel::local(spec, "reuse", "link budget reuse rate", |r| {
            1.0 - r.medium.pathloss_evals as f64 / r.medium.link_budgets.max(1) as f64
        }),
    ];
    for (panel, table) in sweep_figure_multi(&panels, &xs, &schemes, build) {
        emit(&panel.figure, panel.suffix, &table);
    }
}
