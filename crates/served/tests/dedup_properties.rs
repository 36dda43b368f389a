//! Property tests for the dedup substrate: a batch of jobs sharing one
//! scenario prefix (and chaining a warm link-budget cache) must produce
//! results byte-identical to independent one-shot runs. This is the
//! invariant that lets the daemon hand worlds and caches between jobs at
//! all — "close" is not good enough for a memoization.

use cnlr::{LinkCacheSnapshot, RunResults, ScenarioBuilder, Scheme};
use proptest::prelude::*;
use wmn_served::standard_metrics;
use wmn_sim::SimDuration;

/// Everything observable about a run except the medium's perf counters
/// (`pathloss_evals` / `link_cache_hits` differ across cache hand-offs by
/// design), every wire metric included. Floats compare as raw bits.
type Signature = (String, Vec<u64>, u64, Vec<u64>, String, String, Vec<u64>);

fn signature(r: &RunResults) -> Signature {
    let mut physics = Vec::new();
    r.medium.visit(&mut |_, v| physics.push(v));
    (
        format!("{:?}", r.summary),
        physics,
        r.events,
        r.delivery_rate_pps.iter().map(|v| v.to_bits()).collect(),
        format!("{:?} {:?}", r.routing, r.mac),
        format!("{:?}", r.drops),
        standard_metrics(r)
            .iter()
            .map(|(_, v)| v.to_bits())
            .collect(),
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

fn scheme_from(pick: u8) -> Scheme {
    let set = Scheme::evaluation_set();
    set[pick as usize % set.len()].clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The scheduler's exact sharing pattern: one prefix built once, every
    /// job assembled over it, a warm link-budget cache exported by the
    /// first completed run and imported by the rest.
    #[test]
    fn prefix_and_warm_cache_sharing_is_invisible(
        seed in 0u64..500,
        pick in 0u8..8,
        flows in 2usize..5,
    ) {
        let schemes: Vec<Scheme> =
            (0..3).map(|i| scheme_from(pick.wrapping_add(i))).collect();
        let prefix = base(seed, schemes[0].clone(), flows)
            .build_prefix()
            .expect("prefix builds");
        let mut warm: Option<LinkCacheSnapshot> = None;
        for scheme in schemes {
            let mut sim = base(seed, scheme.clone(), flows)
                .build_with_prefix(&prefix)
                .expect("assembles over shared prefix");
            if let Some(snap) = &warm {
                prop_assert!(
                    sim.import_link_cache(snap),
                    "static fault-free import must be accepted"
                );
            }
            let (shared, network, _reason) = sim.run_full();
            if warm.is_none() {
                warm = network.medium.export_link_cache();
                prop_assert!(warm.is_some(), "static fault-free export must succeed");
            }
            let independent = base(seed, scheme, flows)
                .build()
                .expect("one-shot builds")
                .run();
            prop_assert_eq!(signature(&shared), signature(&independent));
        }
    }

    /// Fingerprints gate sharing: scheme changes never move the
    /// fingerprint (that's the dedup axis), while prefix-relevant changes
    /// always do.
    #[test]
    fn fingerprint_tracks_exactly_the_prefix_inputs(
        seed in 0u64..1_000,
        pick_a in 0u8..8,
        pick_b in 0u8..8,
        flows in 2usize..5,
    ) {
        let fp = base(seed, scheme_from(pick_a), flows).prefix_fingerprint();
        prop_assert_eq!(
            base(seed, scheme_from(pick_b), flows).prefix_fingerprint(),
            fp,
            "scheme must not affect the prefix fingerprint"
        );
        prop_assert_ne!(
            base(seed.wrapping_add(1), scheme_from(pick_a), flows).prefix_fingerprint(),
            fp,
            "seed must move the fingerprint"
        );
        prop_assert_ne!(
            base(seed, scheme_from(pick_a), flows + 1).prefix_fingerprint(),
            fp,
            "flow count must move the fingerprint"
        );
        // Assembling with a mismatched prefix is refused, not mis-built.
        let prefix = base(seed, scheme_from(pick_a), flows)
            .build_prefix()
            .expect("prefix builds");
        let err = base(seed.wrapping_add(1), scheme_from(pick_a), flows)
            .build_with_prefix(&prefix)
            .err();
        prop_assert_eq!(err, Some(cnlr::BuildError::PrefixMismatch));
    }
}
