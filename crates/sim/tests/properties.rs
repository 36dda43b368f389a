//! Property-based tests of the simulation substrate.

use proptest::prelude::*;
use std::collections::BTreeMap;
use wmn_sim::{EventQueue, IdMap, SimDuration, SimRng, SimTime};

proptest! {
    /// below(n) is always within range, for any seed and bound.
    #[test]
    fn rng_below_in_range(seed in any::<u64>(), n in 1u64..u64::MAX) {
        let mut rng = SimRng::new(seed);
        for _ in 0..32 {
            prop_assert!(rng.below(n) < n);
        }
    }

    /// range_f64 stays within its interval.
    #[test]
    fn rng_range_f64_in_range(seed in any::<u64>(), lo in -1e9f64..1e9, width in 1e-6f64..1e9) {
        let mut rng = SimRng::new(seed);
        let hi = lo + width;
        for _ in 0..16 {
            let v = rng.range_f64(lo, hi);
            prop_assert!(v >= lo && v < hi, "{v} outside [{lo}, {hi})");
        }
    }

    /// Derived streams are reproducible.
    #[test]
    fn rng_derive_reproducible(seed in any::<u64>(), dom in any::<u64>(), idx in any::<u64>()) {
        let mut a = SimRng::derive(seed, dom, idx);
        let mut b = SimRng::derive(seed, dom, idx);
        prop_assert_eq!(a.next_u64(), b.next_u64());
        prop_assert_eq!(a.f64().to_bits(), b.f64().to_bits());
    }

    /// Exponential draws are non-negative and finite.
    #[test]
    fn rng_exponential_valid(seed in any::<u64>(), mean in 1e-9f64..1e9) {
        let mut rng = SimRng::new(seed);
        for _ in 0..16 {
            let v = rng.exponential(mean);
            prop_assert!(v.is_finite() && v >= 0.0);
        }
    }

    /// Shuffle yields a permutation.
    #[test]
    fn rng_shuffle_is_permutation(seed in any::<u64>(), len in 0usize..64) {
        let mut rng = SimRng::new(seed);
        let mut v: Vec<usize> = (0..len).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..len).collect::<Vec<_>>());
    }

    /// The event queue pops in non-decreasing time order with FIFO ties,
    /// for any schedule.
    #[test]
    fn queue_is_stable_priority_order(times in prop::collection::vec(0u64..1_000, 0..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime(t), (t, i));
        }
        let mut last: Option<(u64, usize)> = None;
        while let Some((t, (pt, i))) = q.pop() {
            prop_assert_eq!(t.as_nanos(), pt);
            if let Some((lt, li)) = last {
                prop_assert!(pt > lt || (pt == lt && i > li), "order violated");
            }
            last = Some((pt, i));
        }
    }

    /// Differential test against a sorted `Vec`: any interleaving of every
    /// mutating call pops the same sequence, snapshots in the same order and
    /// keeps the same tie-break counters. Heap layout (arity, sift style)
    /// may change; none of this may.
    #[test]
    fn queue_matches_sorted_vec_reference(
        ops in prop::collection::vec((0u8..8, 0u64..64, any::<u64>()), 0..400),
    ) {
        let mut q: EventQueue<u64> = EventQueue::new();
        // The reference: (time, seq, payload), kept sorted by (time, seq).
        let mut reference: Vec<(SimTime, u64, u64)> = Vec::new();
        let (mut next_seq, mut scheduled_total) = (0u64, 0u64);
        // `schedule_with_seq` restores checkpointed entries, whose seqs are
        // below `next_seq` and distinct from every pending one: draw them
        // from a range of their own, far from the live counter.
        let mut restored_seq = 1u64 << 40;
        for (op, t, payload) in ops {
            let time = SimTime(t);
            match op {
                // Narrow time range: most schedules tie with a pending event.
                0..=2 => {
                    q.schedule(time, payload);
                    reference.push((time, next_seq, payload));
                    next_seq += 1;
                    scheduled_total += 1;
                }
                3 | 4 => {
                    reference.sort_unstable();
                    let expect = (!reference.is_empty()).then(|| reference.remove(0));
                    prop_assert_eq!(q.pop(), expect.map(|(time, _, payload)| (time, payload)));
                }
                5 => {
                    q.schedule_with_seq(time, restored_seq, payload);
                    reference.push((time, restored_seq, payload));
                    restored_seq += 1;
                }
                6 => {
                    // Rare, or nothing would ever get deep.
                    if payload % 8 == 0 {
                        q.clear();
                        reference.clear();
                    }
                }
                _ => {
                    q.reserve((payload % 64) as usize);
                    prop_assert!(q.capacity() >= q.len() + (payload % 64) as usize);
                }
            }
            prop_assert_eq!(q.len(), reference.len());
            prop_assert_eq!(q.seq_state(), (next_seq, scheduled_total));
            prop_assert_eq!(q.scheduled_total(), scheduled_total);
            reference.sort_unstable();
            prop_assert_eq!(q.peek_time(), reference.first().map(|e| e.0));
            let snapshot: Vec<(SimTime, u64, u64)> = q
                .snapshot_entries()
                .into_iter()
                .map(|(time, seq, payload)| (time, seq, *payload))
                .collect();
            prop_assert_eq!(&snapshot, &reference);
        }
        reference.sort_unstable();
        for (time, _, payload) in reference {
            prop_assert_eq!(q.pop(), Some((time, payload)));
        }
        prop_assert_eq!(q.pop(), None);
    }

    /// Time arithmetic: (t + d) − t == d and (t + d) − d == t.
    #[test]
    fn time_arithmetic_inverts(t in 0u64..(1u64 << 62), d in 0u64..(1u64 << 60)) {
        let t = SimTime(t);
        let d = SimDuration(d);
        prop_assert_eq!((t + d) - t, d);
        prop_assert_eq!((t + d) - d, t);
        prop_assert_eq!(t.since(t + d), SimDuration::ZERO);
        prop_assert_eq!((t + d).since(t), d);
    }

    /// mul_f64 by reciprocal factors round-trips within 1 ns per unit.
    #[test]
    fn duration_scale_bounds(d in 0u64..(1u64 << 40), k in 0.0f64..1000.0) {
        let dur = SimDuration(d);
        let scaled = dur.mul_f64(k);
        let expect = d as f64 * k;
        prop_assert!((scaled.as_nanos() as f64 - expect).abs() <= 0.5 + expect * 1e-12);
    }

    /// `IdMap` is a `HashMap` in everything but its hasher: any sequence of
    /// inserts, removes and lookups on `(origin, id)`-shaped keys leaves it
    /// equal to a `BTreeMap` taking the same sequence.
    #[test]
    fn idmap_matches_btreemap(ops in prop::collection::vec((0u8..3, 0u32..24, 0u32..6, any::<u64>()), 0..400)) {
        let mut map: IdMap<(u32, u32), u64> = IdMap::default();
        let mut model = BTreeMap::new();
        for (op, origin, id, value) in ops {
            // Keys a dense grid and a far-apart stride: both shapes occur.
            let key = (origin << (id % 2 * 20), id);
            match op {
                0 => prop_assert_eq!(map.insert(key, value), model.insert(key, value)),
                1 => prop_assert_eq!(map.remove(&key), model.remove(&key)),
                _ => prop_assert_eq!(map.get(&key), model.get(&key)),
            }
            prop_assert_eq!(map.len(), model.len());
        }
        let mut entries: Vec<_> = map.into_iter().collect();
        entries.sort_unstable();
        prop_assert_eq!(entries, model.into_iter().collect::<Vec<_>>());
    }
}
