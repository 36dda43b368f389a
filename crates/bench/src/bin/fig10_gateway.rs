//! Fig. 10 — gateway backhaul (extension): structurally concentrated load.
//!
//! All flows converge on the centre gateway of a 7×7 mesh — the canonical
//! WMN deployment. Expected shape: CNLR's load-aware route costs spread the
//! approach paths, giving the lowest hotspot factor and the highest PDR as
//! the gateway region saturates.

use cnlr::routing::{FlowId, NodeId, RoutingConfig};
use cnlr::traffic::{FlowSpec, TrafficPattern};
use wmn_bench::{emit, standard_schemes, sweep_durations, sweep_figure_multi, FigureSpec};
use wmn_sim::SimTime;

fn main() {
    wmn_bench::parse_fig_args(env!("CARGO_BIN_NAME"), false);
    let spec = FigureSpec {
        id: "fig10",
        title: "Gateway backhaul: convergecast to the centre",
        x_label: "sources",
    };
    let (dur, warm) = sweep_durations();
    let xs: Vec<f64> = if wmn_bench::quick_mode() {
        vec![8.0, 16.0]
    } else {
        vec![4.0, 8.0, 12.0, 16.0, 20.0]
    };
    let schemes = standard_schemes();
    let build = move |sources: f64, scheme: &cnlr::Scheme, seed: u64| {
        let gateway = NodeId(24); // centre of the 7×7 grid
                                  // Sources: the outermost ring, deterministic per count.
        let ring = [
            0u32, 6, 42, 48, 3, 21, 27, 45, 1, 5, 7, 13, 35, 41, 43, 47, 2, 4, 14, 20,
        ];
        let flows: Vec<FlowSpec> = ring
            .iter()
            .take(sources as usize)
            .enumerate()
            .map(|(i, &src)| FlowSpec {
                id: FlowId(i as u32),
                src: NodeId(src),
                dst: gateway,
                payload: 512,
                start: SimTime::from_millis(1000 + 137 * i as u64),
                stop: SimTime::ZERO + dur,
                pattern: TrafficPattern::cbr_pps(10.0),
            })
            .collect();
        cnlr::ScenarioBuilder::new()
            .seed(seed)
            .grid(7, 7, 180.0)
            .scheme(scheme.clone())
            .routing(RoutingConfig::default())
            .explicit_flows(flows)
            .duration(dur)
            .warmup(warm)
    };
    let tables = sweep_figure_multi(
        &spec,
        &[
            ("PDR", &|r: &cnlr::RunResults| r.pdr()),
            ("hotspot factor (max/mean)", &|r: &cnlr::RunResults| {
                r.hotspot
            }),
            ("mean delay (ms)", &|r: &cnlr::RunResults| r.mean_delay_ms()),
        ],
        &xs,
        &schemes,
        build,
    );
    emit(&spec, "", &tables[0]);
    emit(&spec, "hotspot", &tables[1]);
    emit(&spec, "delay", &tables[2]);
}
