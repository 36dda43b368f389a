//! CNLR calibration probe (not part of the figure set): PDR/delay at the
//! congestion knee for candidate cost/probability configurations.

use cnlr::{presets, CnlrConfig, Scheme};
use wmn_metrics::{run_replications, seeds_from, MeanCi};
use wmn_sim::SimDuration;

fn main() {
    wmn_bench::parse_fig_args(env!("CARGO_BIN_NAME"), false);
    let variants: Vec<(&str, Scheme)> = vec![
        ("flooding", Scheme::Flooding),
        ("cnlr b2.0", Scheme::Cnlr(CnlrConfig::default())),
        (
            "cnlr b1.0",
            Scheme::Cnlr(CnlrConfig {
                beta_load: 1.0,
                ..CnlrConfig::default()
            }),
        ),
        (
            "cnlr b0.5",
            Scheme::Cnlr(CnlrConfig {
                beta_load: 0.5,
                ..CnlrConfig::default()
            }),
        ),
        (
            "cnlr b1 pmin.45",
            Scheme::Cnlr(CnlrConfig {
                beta_load: 1.0,
                p_min: 0.45,
                ..CnlrConfig::default()
            }),
        ),
    ];
    for flows in [30usize, 40] {
        println!("--- {flows} flows @ 8 pkt/s, 60 s, 5 seeds ---");
        for (name, scheme) in &variants {
            let seeds = seeds_from(0xCA11, 5);
            let runs = run_replications(&seeds, 1, |seed| {
                presets::backbone(8, 0, seed)
                    .scheme(scheme.clone())
                    .flows(flows, 8.0, 512)
                    .duration(SimDuration::from_secs(60))
                    .warmup(SimDuration::from_secs(10))
                    .build()
                    .expect("build")
                    .run()
            });
            let pdr = MeanCi::from_samples(&runs.iter().map(|r| r.pdr()).collect::<Vec<_>>());
            let delay =
                MeanCi::from_samples(&runs.iter().map(|r| r.mean_delay_ms()).collect::<Vec<_>>());
            let rreq = MeanCi::from_samples(
                &runs
                    .iter()
                    .map(|r| r.rreq_tx_per_discovery)
                    .collect::<Vec<_>>(),
            );
            println!(
                "{:<16} pdr={} delay={} rreq/disc={}",
                name,
                pdr.display(3),
                delay.display(0),
                rreq.display(1)
            );
        }
    }
}
