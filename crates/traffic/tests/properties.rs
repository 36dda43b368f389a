//! Property-based tests of traffic generation and delivery tracking.

use proptest::prelude::*;
use wmn_routing::{FlowId, NodeId};
use wmn_sim::{SimDuration, SimRng, SimTime};
use wmn_traffic::{FlowSpec, FlowState, FlowTracker, TrafficPattern};

proptest! {
    /// Emission times are strictly increasing, sequence numbers contiguous,
    /// and nothing is emitted at/after the stop time — for every pattern.
    #[test]
    fn emissions_ordered_and_bounded(
        seed in any::<u64>(),
        pps in 0.5f64..50.0,
        dur_s in 1u64..30,
        poisson in any::<bool>(),
    ) {
        let pattern = if poisson {
            TrafficPattern::Poisson {
                mean_interval: SimDuration::from_secs_f64(1.0 / pps),
            }
        } else {
            TrafficPattern::cbr_pps(pps)
        };
        let spec = FlowSpec {
            id: FlowId(0),
            src: NodeId(0),
            dst: NodeId(1),
            payload: 512,
            start: SimTime::from_secs(1),
            stop: SimTime::from_secs(1 + dur_s),
            pattern,
        };
        let mut rng = SimRng::new(seed);
        let mut f = FlowState::new(spec);
        let mut now = spec.start;
        let mut expect_seq = 0u32;
        loop {
            prop_assert!(now < spec.stop);
            let (seq, next) = f.emit(now, &mut rng);
            prop_assert_eq!(seq, expect_seq);
            expect_seq += 1;
            match next {
                Some(t) => {
                    prop_assert!(t > now);
                    now = t;
                }
                None => break,
            }
            prop_assert!(expect_seq < 10_000, "runaway flow");
        }
    }

    /// Tracker PDR is always in [0, 1] and deliveries never exceed sends
    /// when driven consistently.
    #[test]
    fn tracker_consistency(
        events in prop::collection::vec((0u64..5_000, any::<bool>()), 0..200),
    ) {
        let mut tr = FlowTracker::new(SimTime::from_millis(100));
        let mut sent = 0u64;
        for (t_ms, deliver_too) in events {
            let created = SimTime::from_millis(t_ms);
            tr.on_sent(FlowId(0), created);
            if created >= SimTime::from_millis(100) {
                sent += 1;
            }
            if deliver_too {
                tr.on_delivered(FlowId(0), created, created + SimDuration::from_millis(7), 512);
            }
        }
        let s = tr.summary();
        prop_assert_eq!(s.sent, sent);
        prop_assert!(s.delivered <= s.sent);
        prop_assert!((0.0..=1.0).contains(&s.delivery_ratio));
        prop_assert!(s.mean_delay_s >= 0.0);
        prop_assert!(s.p95_delay_s <= s.max_delay_s + 1e-12);
    }
}
