//! Property-based tests of routing-table and duplicate-cache invariants.

use proptest::prelude::*;
use std::collections::BTreeMap;
use wmn_routing::table::seq_newer;
use wmn_routing::{NodeId, RouteTable, RreqKey, SeenCache};
use wmn_sim::{SimDuration, SimTime};

proptest! {
    /// After any sequence of offers/breaks/sweeps, a valid route is never
    /// expired and never points through a broken link that was not
    /// re-offered.
    #[test]
    fn route_table_invariants(
        ops in prop::collection::vec(
            (0u8..4, 0u32..6, 0u32..6, 0u32..40, 0u64..30), 0..120),
    ) {
        let mut rt = RouteTable::new();
        let life = SimDuration::from_secs(3);
        let mut now = SimTime::ZERO;
        for (op, dst, via, seq, dt) in ops {
            now += SimDuration::from_millis(dt * 100);
            let dst = NodeId(dst);
            let via = NodeId(via);
            match op {
                0 => { rt.offer(dst, via, 2, seq, 2.0, life, now); }
                1 => { rt.break_link(via); }
                2 => { rt.sweep(now); }
                _ => { rt.refresh(dst, life, now); }
            }
            // Invariant: valid_route() results are valid and unexpired.
            for probe in 0..6u32 {
                if let Some(e) = rt.valid_route(NodeId(probe), now) {
                    prop_assert!(e.valid);
                    prop_assert!(e.expires > now);
                }
            }
        }
    }

    /// Sequence-number ordering is a strict total order on distinct values
    /// within half the wrap range.
    #[test]
    fn seq_newer_antisymmetric(a in any::<u32>(), delta in 1u32..(u32::MAX / 2)) {
        let b = a.wrapping_add(delta);
        prop_assert!(seq_newer(b, a));
        prop_assert!(!seq_newer(a, b));
        prop_assert!(!seq_newer(a, a));
    }

    /// The seen cache counts copies exactly and sweeps strictly by first
    /// reception time.
    #[test]
    fn seen_cache_counts(
        records in prop::collection::vec((0u32..8, 0u64..100), 0..100),
    ) {
        let mut cache = SeenCache::new(SimDuration::from_secs(5));
        let mut model: std::collections::HashMap<u32, u32> = Default::default();
        for (id, t_ms) in records {
            let key = RreqKey { origin: NodeId(1), id };
            let prior = cache.record(key, SimTime::from_millis(t_ms));
            let m = model.entry(id).or_insert(0);
            prop_assert_eq!(prior, *m);
            *m += 1;
            prop_assert_eq!(cache.copies(key), *m);
        }
    }

    /// The packed duplicate cache behaves exactly like a map of plain
    /// `(first_seen, copies, resolved)` records: every return value, every
    /// probe and every sweep, with sweeps landing on an entry's
    /// `first_seen + lifetime` and one nanosecond either side.
    #[test]
    fn seen_cache_matches_a_map_of_plain_records(
        start in 0u64..(1 << 50),
        ops in prop::collection::vec((0u8..6, 0u32..6, 0u64..1_000_000_000), 0..200),
    ) {
        let lifetime = SimDuration::from_secs(2);
        let key_of = |k: u32| RreqKey { origin: NodeId(k % 2), id: k / 2 };
        let mut cache = SeenCache::new(lifetime);
        let mut model: BTreeMap<RreqKey, (SimTime, u32, bool)> = BTreeMap::new();
        let mut now = SimTime(start);
        let sweep = |cache: &mut SeenCache,
                     model: &mut BTreeMap<RreqKey, (SimTime, u32, bool)>,
                     at: SimTime| {
            let before = model.len();
            model.retain(|_, e| at.since(e.0) < lifetime);
            prop_assert_eq!(cache.sweep(at), before - model.len());
            Ok(())
        };
        for (op, k, x) in ops {
            let key = key_of(k);
            match op {
                // Records outnumber the rest, so counts and resolved
                // entries build up between sweeps.
                0 | 1 => {
                    let e = model.entry(key).or_insert((now, 0, false));
                    prop_assert_eq!(cache.record(key, now), e.1);
                    e.1 += 1;
                }
                // Resolving an absent key is a no-op.
                2 => {
                    if let Some(e) = model.get_mut(&key) {
                        e.2 = true;
                    }
                    cache.resolve(key);
                }
                3 => now = SimTime(now.0 + x),
                // On an entry's lifetime boundary, or one ns either side.
                4 => {
                    let at = match model.get(&key) {
                        Some(e) => SimTime(e.0.as_nanos() + lifetime.as_nanos() + x % 3 - 1),
                        None => now,
                    };
                    sweep(&mut cache, &mut model, at)?;
                    now = now.max(at);
                }
                _ => sweep(&mut cache, &mut model, now)?,
            }
            for probe in 0..6 {
                let probe = key_of(probe);
                let (copies, resolved) = model.get(&probe).map_or((0, false), |e| (e.1, e.2));
                prop_assert_eq!(cache.copies(probe), copies);
                prop_assert_eq!(cache.is_resolved(probe), resolved);
            }
            prop_assert_eq!(cache.len(), model.len());
        }
    }
}
