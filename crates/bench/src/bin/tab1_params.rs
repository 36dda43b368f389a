//! Tab. 1 — simulation parameters (the reconstructed parameter table).

use wmn_bench::{emit, FigureSpec};
use wmn_metrics::ResultTable;

fn main() {
    wmn_bench::parse_fig_args(env!("CARGO_BIN_NAME"), false);
    let mut table = ResultTable::new("tab1 — Simulation parameters", &["parameter", "value"]);
    for (k, v) in cnlr::presets::parameter_table() {
        table.add_row(vec![k.to_string(), v]);
    }
    let spec = FigureSpec {
        id: "tab1",
        title: "Simulation parameters",
        x_label: "parameter",
    };
    emit(&spec, "", &table);
}
