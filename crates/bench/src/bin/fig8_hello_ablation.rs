//! Fig. 8 — HELLO-interval sensitivity (ablation).
//!
//! CNLR's cross-layer digests ride on HELLO beacons; this sweep shows the
//! staleness/overhead trade-off. Expected shape: PDR is flat-ish with a
//! mild optimum around 1–2 s; very frequent beacons burn airtime, very
//! sparse ones leave the load view stale and link breaks undetected.

use cnlr::{CnlrConfig, Scheme};
use wmn_bench::spec_sweep::Panel;
use wmn_bench::{emit, sweep_durations, sweep_figure_multi, FigureSpec};
use wmn_routing::RoutingConfig;
use wmn_sim::SimDuration;

fn main() {
    wmn_bench::parse_fig_args(env!("CARGO_BIN_NAME"), false);
    let spec = FigureSpec {
        id: "fig8",
        title: "CNLR HELLO-interval sensitivity",
        x_label: "hello_s",
    };
    let (dur, warm) = sweep_durations();
    let xs: Vec<f64> = if wmn_bench::quick_mode() {
        vec![1.0, 4.0]
    } else {
        vec![0.5, 1.0, 2.0, 4.0, 8.0]
    };
    let schemes = vec![Scheme::Cnlr(CnlrConfig::default())];
    let build = move |hello_s: f64, scheme: &Scheme, seed: u64| {
        let hello = SimDuration::from_secs_f64(hello_s);
        let routing = RoutingConfig {
            hello_interval: hello,
            neighbor_timeout: hello * 3,
            ..RoutingConfig::default()
        };
        cnlr::presets::backbone(8, 0, seed)
            .scheme(scheme.clone())
            .routing(routing)
            .flows(30, 8.0, 512)
            .duration(dur)
            .warmup(warm)
    };
    let panels = [
        Panel::local(spec, "", "PDR", |r| r.pdr()),
        Panel::local(spec, "control", "control tx (total)", |r| {
            r.control_tx as f64
        }),
    ];
    for (panel, table) in sweep_figure_multi(&panels, &xs, &schemes, build) {
        emit(&panel.figure, panel.suffix, &table);
    }
}
