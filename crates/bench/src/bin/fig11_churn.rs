//! Fig. 11 — resilience under node churn.
//!
//! 6×6 backbone where every node crashes and reboots as a Poisson process
//! (exponential MTBF, 10 s mean repair), swept over the per-node churn
//! rate. Compares the full evaluation set on delivery (overall and during
//! outages) and on the recovery metrics the fault subsystem measures:
//! route-repair latency and time-to-reconverge. Expected shape: all
//! schemes lose PDR as churn grows; CNLR's load-adaptive forwarding keeps
//! discovery cheap enough to re-route faster than blind flooding.
//!
//! x = 0 runs fault-free (the byte-identical baseline); its recovery
//! metrics are reported as 0 (there is nothing to recover from).
//!
//! `--served SOCKET` submits the sweep to a running `wmn-served` daemon
//! instead; all four emitted CSVs are byte-identical to the in-process
//! path.

use cnlr::Scheme;
use wmn_bench::spec_sweep::{base_spec, sweep_spec, Panel};
use wmn_bench::{emit, parse_fig_args, FigureSpec};
use wmn_served::ScenarioSpec;

fn main() {
    let served = parse_fig_args("fig11_churn", true);
    let spec = FigureSpec {
        id: "fig11",
        title: "Node churn: delivery and recovery vs crash rate",
        x_label: "crashes_per_node_min",
    };
    let xs: Vec<f64> = if wmn_bench::quick_mode() {
        vec![0.0, 1.0, 2.0, 4.0]
    } else {
        vec![0.0, 0.5, 1.0, 2.0, 4.0]
    };
    let schemes = Scheme::evaluation_set();
    let panels = [
        Panel::new(spec, "", "PDR", |r| r.metric("pdr")),
        Panel::new(spec, "outage_pdr", "PDR during outages", |r| {
            r.metric("pdr_outage")
        }),
        Panel::new(spec, "repair", "route-repair latency s", |r| {
            r.metric("repair_latency_s")
        }),
        Panel::new(spec, "reconverge", "time-to-reconverge s", |r| {
            r.metric("reconverge_s")
        }),
    ];
    let build = |rate: f64, scheme: &Scheme, seed: u64| ScenarioSpec {
        grid_rows: 6,
        grid_cols: 6,
        flows: 12,
        pps: 4.0,
        // `rate` crashes per node-minute of uptime ⇒ MTBF = 60/rate.
        churn: (rate > 0.0).then(|| (60.0 / rate, 10.0)),
        ..base_spec(scheme, seed)
    };
    for (panel, table) in sweep_spec(&panels, &xs, &schemes, served.as_deref(), build) {
        emit(&panel.figure, panel.suffix, &table);
    }
}
