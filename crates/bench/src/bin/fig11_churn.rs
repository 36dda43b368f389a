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
use wmn_bench::served::{sweep_figure_multi_served, sweep_figure_multi_spec};
use wmn_bench::{emit, parse_fig_args, sweep_durations, FigureSpec};
use wmn_served::ScenarioSpec;

fn main() {
    let served = parse_fig_args("fig11_churn", true);
    let spec = FigureSpec {
        id: "fig11",
        title: "Node churn: delivery and recovery vs crash rate",
        x_label: "crashes_per_node_min",
    };
    let (dur, warm) = sweep_durations();
    let xs: Vec<f64> = if wmn_bench::quick_mode() {
        vec![0.0, 1.0, 2.0, 4.0]
    } else {
        vec![0.0, 0.5, 1.0, 2.0, 4.0]
    };
    let schemes = Scheme::evaluation_set();
    // The figure, described once for both branches: scenario and wire keys.
    let metrics = [
        ("PDR", "pdr"),
        ("PDR during outages", "pdr_outage"),
        ("route-repair latency s", "repair_latency_s"),
        ("time-to-reconverge s", "reconverge_s"),
    ];
    let build = move |rate: f64, scheme: &Scheme, seed: u64| ScenarioSpec {
        seed,
        scheme: scheme.spec_string(),
        grid_rows: 6,
        grid_cols: 6,
        pitch_m: 180.0,
        flows: 12,
        pps: 4.0,
        payload: 512,
        duration_s: dur.as_secs_f64(),
        warmup_s: warm.as_secs_f64(),
        // `rate` crashes per node-minute of uptime ⇒ MTBF = 60/rate.
        churn: (rate > 0.0).then(|| (60.0 / rate, 10.0)),
        ..ScenarioSpec::default()
    };
    let tables = match served {
        Some(socket) => sweep_figure_multi_served(&spec, &metrics, &xs, &schemes, &socket, build),
        None => sweep_figure_multi_spec(&spec, &metrics, &xs, &schemes, build),
    };
    emit(&spec, "", &tables[0]);
    emit(&spec, "outage_pdr", &tables[1]);
    emit(&spec, "repair", &tables[2]);
    emit(&spec, "reconverge", &tables[3]);
}
