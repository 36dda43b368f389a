//! Link-budget cache effectiveness report.
//!
//! Runs three scenarios — a static backbone, a fig7-style mobile-client
//! scenario, and a churn scenario — and prints the medium's cache counters
//! (hit rate, pathloss evaluations per transmission). This is the
//! measurement behind the cache numbers in EXPERIMENTS.md (Fig. 7 and
//! "One staleness rule"): any movement or fault anywhere makes every cached
//! list stale, and per-entry reuse keeps the rebuild down to the receivers
//! whose position or gain actually changed.
//!
//! ```sh
//! cargo run --release --example cache_stats
//! ```

use cnlr::{FaultPlan, RunResults, ScenarioBuilder, Scheme};
use wmn::mobility::MobilityConfig;
use wmn_sim::{SimDuration, SimTime};

fn report(label: &str, r: &RunResults) {
    let m = &r.medium;
    let tx = m.tx_started.max(1);
    println!(
        "{label:<22} tx={:<7} hits={:<7} hit_rate={:.3} pathloss_evals={:<9} evals/tx={:.2} budget_reuse={:.3}",
        m.tx_started,
        m.link_cache_hits,
        m.link_cache_hits as f64 / tx as f64,
        m.pathloss_evals,
        m.pathloss_evals as f64 / tx as f64,
        1.0 - m.pathloss_evals as f64 / m.link_budgets.max(1) as f64,
    );
}

fn base(seed: u64) -> ScenarioBuilder {
    ScenarioBuilder::new()
        .seed(seed)
        .grid(6, 6, 180.0)
        .scheme(Scheme::Flooding)
        .flows(15, 4.0, 512)
        .duration(SimDuration::from_secs(30))
        .warmup(SimDuration::from_secs(5))
}

fn main() {
    let seed = 1;
    let static_run = base(seed).build().expect("static scenario").run();
    report("static 6x6", &static_run);

    // Fig. 7 shape: static 6×6 backbone plus 15 RWP clients at 10 m/s.
    // Only the clients move, so per-entry reuse keeps most of the static
    // backbone's entries alive between client position samples.
    let mobile = base(seed)
        .mobile_clients(
            15,
            MobilityConfig::RandomWaypoint {
                v_min: 1.0,
                v_max: 10.0,
                pause_s: 2.0,
            },
        )
        .build()
        .expect("mobile scenario")
        .run();
    report("fig7 mobile clients", &mobile);

    // Fault churn: crashes/reboots bump gain state. Each event makes every
    // cached list stale; per-node gain versions limit the re-evaluation to
    // budgets the affected node terminates.
    let churn = base(seed)
        .faults(
            FaultPlan::new()
                .churn(SimDuration::from_secs(40), SimDuration::from_secs(5))
                .fail_node_for(7, SimTime::from_secs(8), SimDuration::from_secs(6)),
        )
        .build()
        .expect("churn scenario")
        .run();
    report("churn 6x6", &churn);
}
