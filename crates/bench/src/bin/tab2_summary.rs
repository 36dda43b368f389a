//! Tab. 2 — full-metric summary at the reference operating point
//! (8×8 backbone, 30 flows @ 8 pkt/s — just past the contention knee;
//! `QUICK=1` runs 15 flows, and the titles say so).

use cnlr::Scheme;
use wmn_bench::{emit, quick_mode, replication_seeds, sweep_durations, write_manifest, FigureSpec};
use wmn_metrics::{run_replications, MeanCi, ResultTable};
use wmn_telemetry::Counters;

fn main() {
    wmn_bench::parse_fig_args(env!("CARGO_BIN_NAME"), false);
    let t0 = std::time::Instant::now();
    let (dur, warm) = sweep_durations();
    let flows = if quick_mode() { 15 } else { 30 };
    let schemes = Scheme::evaluation_set();
    let mut all_runs = Vec::new();
    let mut table = ResultTable::new(
        format!("tab2 — Summary at the reference point (8×8, {flows} flows @ 8 pkt/s)"),
        &[
            "scheme",
            "PDR",
            "delay_ms",
            "goodput_kbps",
            "rreq/disc",
            "SRB",
            "NRL",
            "Jain",
            "disc_success",
        ],
    );
    // One source of truth for the per-scheme totals below: the unified
    // counter registry each run exports (same names the manifest uses).
    let mut counter_table = ResultTable::new(
        "tab2_counters — Counter totals over all replications (registry names)",
        &[
            "scheme",
            "rreq_originated",
            "rreq_forwarded",
            "rrep_generated",
            "hello_sent",
            "data_delivered",
            "mac_retries",
            "phy_collisions",
            "drops_total",
        ],
    );
    for scheme in schemes.clone() {
        let seeds = replication_seeds();
        let runs = run_replications(&seeds, wmn_metrics::default_threads(), |seed| {
            cnlr::presets::backbone(8, 0, seed)
                .scheme(scheme.clone())
                .flows(flows, 8.0, 512)
                .duration(dur)
                .warmup(warm)
                .build()
                .expect("build")
                .run()
        });
        let col = |f: &dyn Fn(&cnlr::RunResults) -> f64| {
            MeanCi::from_samples(&runs.iter().map(f).collect::<Vec<_>>()).display(3)
        };
        table.add_row(vec![
            scheme.label(),
            col(&|r| r.pdr()),
            col(&|r| r.mean_delay_ms()),
            col(&|r| r.goodput_kbps),
            col(&|r| r.rreq_tx_per_discovery),
            col(&|r| r.saved_rebroadcast),
            col(&|r| r.normalized_routing_load),
            col(&|r| r.jain_forwarding),
            col(&|r| r.discovery_success),
        ]);
        let mut totals = Counters::new();
        for r in &runs {
            for (name, v) in r.counters().iter() {
                totals.add(name, v);
            }
        }
        counter_table.add_row(vec![
            scheme.label(),
            totals.get("rreq_originated").to_string(),
            totals.get("rreq_forwarded").to_string(),
            totals.get("rrep_generated").to_string(),
            totals.get("hello_sent").to_string(),
            totals.get("data_delivered").to_string(),
            totals.get("mac_retries").to_string(),
            totals.get("phy_collisions").to_string(),
            totals.sum_prefix("drop_").to_string(),
        ]);
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
