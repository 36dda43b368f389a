//! Tab. 2 — full-metric summary at the reference operating point
//! (8×8 backbone, 30 flows @ 8 pkt/s — just past the contention knee;
//! `QUICK=1` runs 15 flows, and the titles say so).

use cnlr::Scheme;
use wmn_bench::{
    counter_totals, emit, quick_mode, replication_seeds, sweep_durations, write_manifest,
    FigureSpec,
};
use wmn_metrics::{run_replications, MeanCi, ResultTable};
use wmn_served::JobResult;

/// The summary's columns: `(header, wire metric key)`.
const COLUMNS: [(&str, &str); 8] = [
    ("PDR", "pdr"),
    ("delay_ms", "mean_delay_ms"),
    ("goodput_kbps", "goodput_kbps"),
    ("rreq/disc", "rreq_per_discovery"),
    ("SRB", "saved_rebroadcast"),
    ("NRL", "nrl"),
    ("Jain", "jain_forwarding"),
    ("disc_success", "discovery_success"),
];

/// The counter table's registry columns, ahead of `drops_total`.
const COUNTERS: [&str; 7] = [
    "rreq_originated",
    "rreq_forwarded",
    "rrep_generated",
    "hello_sent",
    "data_delivered",
    "mac_retries",
    "phy_collisions",
];

fn main() {
    wmn_bench::parse_fig_args(env!("CARGO_BIN_NAME"), false);
    let t0 = std::time::Instant::now();
    let (dur, warm) = sweep_durations();
    let flows = if quick_mode() { 15 } else { 30 };
    let schemes = Scheme::evaluation_set();
    let mut all_runs = Vec::new();
    let mut headers = vec!["scheme"];
    headers.extend(COLUMNS.map(|(header, _)| header));
    let mut table = ResultTable::new(
        format!("tab2 — Summary at the reference point (8×8, {flows} flows @ 8 pkt/s)"),
        &headers,
    );
    // One source of truth for the per-scheme totals below: the unified
    // counter registry each run exports (same names the manifest uses).
    let mut counter_headers = vec!["scheme"];
    counter_headers.extend(COUNTERS);
    counter_headers.push("drops_total");
    let mut counter_table = ResultTable::new(
        "tab2_counters — Counter totals over all replications (registry names)",
        &counter_headers,
    );
    for scheme in schemes.clone() {
        let seeds = replication_seeds();
        let runs = run_replications(&seeds, wmn_metrics::default_threads(), |seed| {
            let sim = cnlr::presets::backbone(8, 0, seed)
                .scheme(scheme.clone())
                .flows(flows, 8.0, 512)
                .duration(dur)
                .warmup(warm)
                .build()
                .expect("build");
            JobResult::from_run(&sim.run())
        });
        let mut row = vec![scheme.label()];
        row.extend(COLUMNS.map(|(_, key)| {
            let values: Vec<f64> = runs.iter().map(|r| r.metric(key)).collect();
            MeanCi::from_samples(&values).display(3)
        }));
        table.add_row(row);
        let totals = counter_totals(&runs);
        let mut row = vec![scheme.label()];
        row.extend(COUNTERS.map(|name| totals.get(name).to_string()));
        row.push(totals.sum_prefix("drop_").to_string());
        counter_table.add_row(row);
        all_runs.extend(runs);
        eprintln!("[tab2] {} done", scheme.label());
    }
    let title = format!("Summary at the reference point (8x8, {flows} flows @ 8 pkt/s)");
    let spec = FigureSpec {
        id: "tab2",
        title: &title,
        x_label: "scheme",
    };
    emit(&spec, "", &table);
    emit(&spec, "counters", &counter_table);
    write_manifest(
        &spec,
        &schemes,
        &replication_seeds(),
        &[],
        t0.elapsed().as_secs_f64(),
        &all_runs,
        &[("flows", flows.to_string()), ("grid", "8x8".to_string())],
    );
}
