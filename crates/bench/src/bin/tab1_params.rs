//! Tab. 1 — simulation parameters (the reconstructed parameter table).

use wmn_metrics::ResultTable;

fn main() {
    wmn_bench::parse_fig_args(env!("CARGO_BIN_NAME"), false);
    let mut table = ResultTable::new("tab1 — Simulation parameters", &["parameter", "value"]);
    for (k, v) in cnlr::presets::parameter_table() {
        table.add_row(vec![k.to_string(), v]);
    }
    println!("{}", table.to_markdown());
    let _ = std::fs::create_dir_all("results");
    let _ = std::fs::write("results/tab1.csv", table.to_csv());
}
