//! Property-based containment/liveness tests for the mobile model.

use proptest::prelude::*;
use wmn_mobility::{Mobility, MobilityConfig};
use wmn_sim::{SimRng, SimTime};
use wmn_topology::{Region, Vec2};

fn check_model(config: MobilityConfig, seed: u64, steps: usize) -> Result<(), TestCaseError> {
    let region = Region::square(400.0);
    let mut rng = SimRng::new(seed);
    let start = Vec2::new(rng.range_f64(0.0, 400.0), rng.range_f64(0.0, 400.0));
    let mut m = Mobility::new(config, start, region, SimTime::ZERO, &mut rng);
    let mut t = SimTime::ZERO;
    for _ in 0..steps {
        let next = m.next_update();
        prop_assert!(next > t, "next_update must advance");
        let mid = SimTime((t.as_nanos() / 2).saturating_add(next.as_nanos() / 2));
        for probe in [mid, next] {
            let p = m.position(probe);
            prop_assert!(p.is_finite());
            prop_assert!(region.contains(p), "escaped to {p:?}");
            prop_assert!(m.velocity(probe).is_finite());
        }
        t = next;
        m.advance(t, &mut rng);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rwp_contained(seed in any::<u64>(), vmax in 1.0f64..30.0, pause in 0.0f64..5.0) {
        check_model(
            MobilityConfig::RandomWaypoint { v_min: 0.5, v_max: 0.5 + vmax, pause_s: pause },
            seed,
            100,
        )?;
    }
}
