//! Fig. 3 — packet delivery ratio vs offered load.
//!
//! 8×8 backbone, 8 pkt/s × 512 B CBR flows, flow count swept 5–40.
//! Expected shape: all schemes ≈ 1 at light load; CNLR degrades latest and
//! leads at saturation (it discovers through, and routes around, quiet
//! regions); flooding and counter collapse together (both storm-limited).
//!
//! `--served SOCKET` submits the sweep to a running `wmn-served` daemon
//! instead; the emitted CSV is byte-identical (the CI smoke job diffs it).

use wmn_bench::served::{sweep_figure_multi_served, sweep_figure_multi_spec};
use wmn_bench::{emit, parse_fig_args, standard_schemes, sweep_durations, FigureSpec};
use wmn_served::ScenarioSpec;

fn main() {
    let served = parse_fig_args("fig3_pdr_load", true);
    let spec = FigureSpec {
        id: "fig3",
        title: "Packet delivery ratio vs offered load",
        x_label: "flows",
    };
    let (dur, warm) = sweep_durations();
    let xs: Vec<f64> = if wmn_bench::quick_mode() {
        vec![10.0, 40.0]
    } else {
        vec![5.0, 10.0, 20.0, 30.0, 40.0, 50.0]
    };
    let schemes = standard_schemes();
    // The figure, described once for both branches: scenario and wire key.
    let metrics = [("PDR", "pdr")];
    let build = move |flows: f64, scheme: &cnlr::Scheme, seed: u64| ScenarioSpec {
        seed,
        scheme: scheme.spec_string(),
        grid_rows: 8,
        grid_cols: 8,
        pitch_m: 180.0,
        flows: flows as usize,
        pps: 8.0,
        payload: 512,
        duration_s: dur.as_secs_f64(),
        warmup_s: warm.as_secs_f64(),
        ..ScenarioSpec::default()
    };
    let mut tables = match served {
        Some(socket) => sweep_figure_multi_served(&spec, &metrics, &xs, &schemes, &socket, build),
        None => sweep_figure_multi_spec(&spec, &metrics, &xs, &schemes, build),
    };
    emit(&spec, "", &tables.pop().expect("one table"));
}
