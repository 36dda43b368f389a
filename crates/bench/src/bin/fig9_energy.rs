//! Fig. 9 — energy per delivered packet vs offered load (extension).
//!
//! Radio energy under the Feeney–Nilsson WaveLAN model. Broadcast storms
//! burn energy in redundant receptions network-wide; expected shape: CNLR's
//! energy per delivered packet undercuts flooding increasingly with load.

use wmn_bench::{emit, standard_schemes, sweep_durations, sweep_figure_multi, FigureSpec};

fn main() {
    wmn_bench::parse_fig_args(env!("CARGO_BIN_NAME"), false);
    let spec = FigureSpec {
        id: "fig9",
        title: "Energy per delivered packet vs offered load",
        x_label: "flows",
    };
    let (dur, warm) = sweep_durations();
    let xs: Vec<f64> = if wmn_bench::quick_mode() {
        vec![10.0, 40.0]
    } else {
        vec![5.0, 10.0, 20.0, 30.0, 40.0, 50.0]
    };
    let schemes = standard_schemes();
    let build = move |flows: f64, scheme: &cnlr::Scheme, seed: u64| {
        cnlr::presets::backbone(8, 0, seed)
            .scheme(scheme.clone())
            .flows(flows as usize, 8.0, 512)
            .duration(dur)
            .warmup(warm)
    };
    let tables = sweep_figure_multi(
        &spec,
        &[
            (
                "comm energy per delivered pkt (mJ)",
                &|r: &cnlr::RunResults| r.comm_energy_per_delivered_mj,
            ),
            ("max single-node energy (J)", &|r: &cnlr::RunResults| {
                r.energy_max_node_j
            }),
        ],
        &xs,
        &schemes,
        build,
    );
    emit(&spec, "", &tables[0]);
    emit(&spec, "max_node", &tables[1]);
}
