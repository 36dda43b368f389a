//! The link-budget cache is a pure memoization: with it on or off, a run
//! from the same seed must be *bit-identical* — same delivery counts, same
//! delays, same per-second delivery trace, same physics counters. These
//! property tests drive full scenarios both ways and compare everything
//! except the cache's own bookkeeping counters.

use cnlr::{FaultPlan, LinkFlapModel, NoiseStormModel, RunResults, ScenarioBuilder, Scheme};
use proptest::prelude::*;
use wmn_mobility::MobilityConfig;
use wmn_sim::{SimDuration, SimTime};

/// Everything observable about a run except the cache's perf counters
/// (`pathloss_evals` / `link_cache_hits` differ by design). Floats are
/// compared as raw bits: "close" is not good enough for a memoization.
fn signature(r: &RunResults) -> (String, Vec<u64>, u64, u64, Vec<u64>, String, String) {
    let mut physics = Vec::new();
    r.medium.visit(&mut |_, v| physics.push(v));
    (
        format!("{:?}", r.summary),
        physics,
        r.events,
        r.goodput_kbps.to_bits(),
        r.delivery_rate_pps.iter().map(|v| v.to_bits()).collect(),
        format!("{:?} {:?}", r.routing, r.mac),
        format!("{:?}", r.drops),
    )
}

fn base(seed: u64, scheme: Scheme, flows: usize) -> ScenarioBuilder {
    ScenarioBuilder::new()
        .seed(seed)
        .grid(4, 4, 180.0)
        .scheme(scheme)
        .flows(flows, 2.0, 256)
        .duration(SimDuration::from_secs(8))
        .warmup(SimDuration::from_secs(2))
}

fn run(b: ScenarioBuilder, cache: bool) -> RunResults {
    b.link_cache(cache).build().expect("scenario builds").run()
}

fn scheme_from(pick: u8) -> Scheme {
    let set = Scheme::evaluation_set();
    set[pick as usize % set.len()].clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn static_grid_cached_equals_uncached(seed in 0u64..1_000, pick in 0u8..8, flows in 2usize..5) {
        let scheme = scheme_from(pick);
        let cached = run(base(seed, scheme.clone(), flows), true);
        let uncached = run(base(seed, scheme, flows), false);
        prop_assert_eq!(signature(&cached), signature(&uncached));

        // On a static grid the epoch never changes, so each transmitter
        // misses at most once: everything after warm-up is a cache hit and
        // does zero pathloss (log10) evaluations.
        let misses = cached.medium.tx_started - cached.medium.link_cache_hits;
        prop_assert!(
            misses <= cached.nodes as u64,
            "static grid recomputed links {} times for {} nodes",
            misses, cached.nodes
        );
        prop_assert!(cached.medium.link_cache_hits > 0, "cache never used");
        prop_assert!(
            cached.medium.pathloss_evals < uncached.medium.pathloss_evals,
            "cache did not reduce pathloss work: {} vs {}",
            cached.medium.pathloss_evals, uncached.medium.pathloss_evals
        );
    }

    #[test]
    fn mobility_invalidation_cached_equals_uncached(seed in 0u64..1_000, pick in 0u8..8) {
        // Mobile clients force mid-run epoch bumps: the cache must
        // invalidate and still reproduce the uncached run bit-for-bit.
        let scheme = scheme_from(pick);
        let mobile = MobilityConfig::RandomWaypoint { v_min: 1.0, v_max: 8.0, pause_s: 0.5 };
        let b = || base(seed, scheme.clone(), 3).mobile_clients(3, mobile);
        let cached = run(b(), true);
        let uncached = run(b(), false);
        prop_assert_eq!(signature(&cached), signature(&uncached));
        // Movement means recomputes: strictly more misses than the static
        // once-per-transmitter bound would allow on any busy run.
        prop_assert!(
            cached.medium.tx_started >= cached.medium.link_cache_hits,
            "hit counter outran transmissions"
        );
    }

    /// The hardest invalidation workload: RWP mobility *and* a stochastic
    /// fault schedule (crash/reboot churn, noise storms, link flapping) in
    /// the same run. Every staleness path of the cache fires — the global
    /// position epoch and gain-event count, per-entry receiver positions
    /// and gain versions, noise-burst re-sensing — and the run must still
    /// be bit-identical to uncached.
    #[test]
    fn mobility_plus_faults_cached_equals_uncached(
        seed in 0u64..1_000,
        pick in 0u8..8,
        mtbf_s in 4u64..12,
        storm in any::<bool>(),
    ) {
        let scheme = scheme_from(pick);
        let mobile = MobilityConfig::RandomWaypoint { v_min: 1.0, v_max: 10.0, pause_s: 0.25 };
        let mut plan = FaultPlan::new()
            .churn(SimDuration::from_secs(mtbf_s), SimDuration::from_secs(1))
            .link_flap(LinkFlapModel {
                interarrival: SimDuration::from_secs(6),
                hold: SimDuration::from_secs(2),
                delta_db: 12.0,
            })
            // One scripted crash/reboot so at least one down-node window is
            // guaranteed regardless of how the stochastic draws land.
            .fail_node_for(5, SimTime::from_secs(3), SimDuration::from_secs(2));
        if storm {
            plan = plan.noise_storm(NoiseStormModel {
                interarrival: SimDuration::from_secs(5),
                duration: SimDuration::from_secs(2),
                radius_m: 300.0,
                delta_db: 15.0,
            });
        }
        let b = || base(seed, scheme.clone(), 3).mobile_clients(3, mobile).faults(plan.clone());
        let cached = run(b(), true);
        let uncached = run(b(), false);
        prop_assert_eq!(signature(&cached), signature(&uncached));
        prop_assert!(
            cached.medium.pathloss_evals <= uncached.medium.pathloss_evals,
            "cache increased pathloss work: {} vs {}",
            cached.medium.pathloss_evals, uncached.medium.pathloss_evals
        );
    }
}
