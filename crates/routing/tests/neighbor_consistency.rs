//! Randomised consistency between NeighborTable operations.

use wmn_mac::LoadDigest;
use wmn_routing::{NeighborTable, NodeId};
use wmn_sim::{SimDuration, SimRng, SimTime};

#[test]
fn live_count_matches_iter_and_sweep_under_random_traffic() {
    let mut rng = SimRng::new(99);
    let timeout = SimDuration::from_secs(3);
    let mut nt = NeighborTable::new(timeout);
    let mut last_heard: std::collections::HashMap<u32, u64> = Default::default();
    let mut now_ms = 0u64;
    for _ in 0..2_000 {
        now_ms += rng.below(800);
        let now = SimTime::from_millis(now_ms);
        let id = rng.below(12) as u32;
        match rng.below(3) {
            0 => {
                nt.heard_hello(
                    NodeId(id),
                    LoadDigest {
                        queue_util: rng.f64(),
                        busy_ratio: rng.f64(),
                        mac_service_s: 0.0,
                    },
                    (0.0, 0.0),
                    now,
                );
                last_heard.insert(id, now_ms);
            }
            1 => {
                nt.heard_any(NodeId(id), now);
                last_heard.insert(id, now_ms);
            }
            _ => {
                let gone = nt.sweep(now);
                for g in &gone {
                    let heard = last_heard.remove(&g.0).expect("swept unknown neighbour");
                    assert!(now_ms - heard >= 3_000, "swept live neighbour");
                }
            }
        }
        // Model check: live_count equals the reference count.
        let expect = last_heard.values().filter(|&&h| now_ms - h < 3_000).count();
        assert_eq!(nt.live_count(now), expect, "at t={now_ms}ms");
        assert_eq!(nt.iter_live(now).count(), expect);
        // Mean load defined iff someone is live.
        assert_eq!(
            nt.mean_neighbor_load(now, |d| d.queue_util).is_some(),
            expect > 0
        );
    }
}

/// The table is an id-sorted vector, so its aggregates are a function of
/// its contents: `iter_live` ascends strictly, and each load mean is
/// bit-equal to the sum a `BTreeMap` model takes in key order. (Over the
/// `HashMap` this table used to be, the sum ran in per-table `RandomState`
/// order and some draws missed the model by an ulp.)
#[test]
fn aggregates_run_in_ascending_id_order() {
    let mut rng = SimRng::new(7);
    let mut nt = NeighborTable::new(SimDuration::from_secs(3));
    // id → (last heard ms, queue_util, busy_ratio)
    let mut model: std::collections::BTreeMap<u32, (u64, f64, f64)> = Default::default();
    let mut now_ms = 0u64;
    for _ in 0..2_000 {
        now_ms += rng.below(500);
        let now = SimTime::from_millis(now_ms);
        let id = rng.below(40) as u32;
        match rng.below(4) {
            0 | 1 => {
                let load = LoadDigest {
                    queue_util: rng.f64(),
                    busy_ratio: rng.f64(),
                    mac_service_s: 0.0,
                };
                nt.heard_hello(NodeId(id), load, (0.0, 0.0), now);
                model.insert(id, (now_ms, load.queue_util, load.busy_ratio));
            }
            2 => {
                nt.heard_any(NodeId(id), now);
                model
                    .entry(id)
                    .and_modify(|e| e.0 = now_ms)
                    .or_insert((now_ms, 0.0, 0.0));
            }
            _ => {
                let gone = nt.sweep(now);
                assert!(gone.windows(2).all(|w| w[0] < w[1]), "sweep order");
                for g in gone {
                    model.remove(&g.0);
                }
            }
        }
        let live: Vec<_> = model.iter().filter(|(_, e)| now_ms - e.0 < 3_000).collect();
        let ids: Vec<u32> = nt.iter_live(now).map(|(id, _)| id.0).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "iter_live order");
        assert_eq!(ids, live.iter().map(|(&id, _)| id).collect::<Vec<_>>());

        let mean = |f: fn(&(u64, f64, f64)) -> f64| {
            let sum: f64 = live.iter().fold(0.0, |acc, (_, e)| acc + f(e));
            (!live.is_empty()).then(|| sum / live.len() as f64)
        };
        let bits = |m: Option<f64>| m.map(f64::to_bits);
        let queue = nt.mean_neighbor_load(now, |d| d.queue_util);
        let busy = nt.mean_neighbor_load(now, |d| d.busy_ratio);
        assert_eq!(bits(queue), bits(mean(|e| e.1)), "at t={now_ms}ms");
        assert_eq!(bits(busy), bits(mean(|e| e.2)), "at t={now_ms}ms");
    }
}
