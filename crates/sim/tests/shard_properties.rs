//! Property tests of the shard-parallel conservative engine.
//!
//! Random region graphs with random event cascades, executed at random
//! worker counts, must uphold the engine's two load-bearing contracts:
//!
//! 1. **The lookahead bound is never violated**: every cross-region event
//!    is observed by its receiver no earlier than `sent_at + δ(src → dst)`,
//!    and regions observe time monotonically.
//! 2. **The deterministic merge is a total order**: no two cross-region
//!    events share a `(timestamp, source region, emission seq)` key, and
//!    the order every receiver observes is exactly the sorted order —
//!    independent of the worker count.
//! 3. **Sparse planning equals the closure formula**: the safe horizons and
//!    their stall attribution, computed from the direct bounds alone, are
//!    the ones `min_j (T_j + influence(j, i))` defines.

use proptest::prelude::*;
use wmn_sim::shard::NEVER;
use wmn_sim::{
    HorizonScratch, Lookahead, RegionCtx, RegionWorld, ShardedEngine, SimDuration, SimRng, SimTime,
};

/// Build a random all-pairs lookahead matrix with deltas in [1, 10] ms.
fn random_lookahead(n: usize, seed: u64) -> Lookahead {
    let mut rng = SimRng::derive(seed, 0x4C4F4F4B, 0);
    let deltas: Vec<SimDuration> = (0..n * n)
        .map(|_| SimDuration::from_micros(1_000 + rng.below(9_000)))
        .collect();
    Lookahead::from_fn(n, move |a, b| deltas[a as usize * n + b as usize])
}

/// A random lookahead graph of one of five shapes. Bounds come from four
/// values so that equal-length paths, and with them attribution ties, are
/// common.
fn shaped_lookahead(n: usize, shape: u8, rng: &mut SimRng) -> Lookahead {
    let mute: Vec<bool> = (0..n).map(|_| rng.chance(0.3)).collect();
    let deaf: Vec<bool> = (0..n).map(|_| rng.chance(0.3)).collect();
    Lookahead::from_fn(n, |a, b| {
        let (a, b) = (a as usize, b as usize);
        let delta = SimDuration::from_millis(1 + rng.below(4));
        let keep_fifth = rng.chance(0.2);
        let linked = match shape {
            0 => keep_fifth,                              // sparse
            1 => true,                                    // dense
            2 => (a < n / 2) == (b < n / 2),              // two islands
            3 => a < b || keep_fifth,                     // mostly one-way
            _ => !mute[a] && !deaf[b] && rng.chance(0.6), // NEVER rows and columns
        };
        if linked {
            delta
        } else {
            NEVER
        }
    })
}

/// The definition the engine used to evaluate every epoch: a dense pass
/// over the closure, lowest `j` winning ties.
fn closure_horizons(la: &Lookahead, peeks: &[Option<SimTime>]) -> (Vec<SimTime>, Vec<i64>) {
    let n = la.regions();
    let (mut safe, mut sources) = (Vec::new(), Vec::new());
    for i in 0..n {
        let (mut h, mut src) = (SimTime::MAX, -1i64);
        for (j, peek) in peeks.iter().enumerate() {
            let Some(t) = peek else { continue };
            let d = la.influence(j as u32, i as u32);
            if d != NEVER && t.saturating_add(d) < h {
                (h, src) = (t.saturating_add(d), j as i64);
            }
        }
        safe.push(h);
        sources.push(src);
    }
    (safe, sources)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Stamp {
    src: u32,
    sent_at: SimTime,
    /// The sender's global send counter (monotone per sender), which within
    /// any one epoch equals its outbox emission order.
    counter: u32,
}

enum Ev {
    Seed { budget: u32 },
    Hop { budget: u32, stamp: Stamp },
}

/// A region that cascades events across random edges, checking the
/// conservative bound on every arrival and logging the observed order.
struct Cascade {
    id: u32,
    n: u32,
    rng: SimRng,
    lookahead: Lookahead,
    sends: u32,
    log: Vec<(SimTime, Stamp)>,
}

impl Cascade {
    fn fan_out(&mut self, budget: u32, ctx: &mut RegionCtx<'_, Ev>) {
        if budget == 0 {
            return;
        }
        let now = ctx.now();
        for _ in 0..1 + self.rng.below(2) {
            let dst = self.rng.below(self.n as u64) as u32;
            if dst == self.id {
                // Local events exercise queue interleaving with arrivals.
                ctx.after(
                    SimDuration::from_micros(self.rng.below(500)),
                    Ev::Seed { budget: budget - 1 },
                );
                continue;
            }
            let bound = self.lookahead.between(self.id, dst);
            // Sometimes exactly the tightest legal time, sometimes later.
            let slack = if self.rng.chance(0.3) {
                SimDuration::ZERO
            } else {
                SimDuration::from_micros(self.rng.below(5_000))
            };
            let stamp = Stamp {
                src: self.id,
                sent_at: now,
                counter: self.sends,
            };
            self.sends += 1;
            ctx.send(
                dst,
                now + bound + slack,
                Ev::Hop {
                    budget: budget - 1,
                    stamp,
                },
            );
        }
    }
}

impl RegionWorld for Cascade {
    type Event = Ev;

    fn handle(&mut self, event: Ev, ctx: &mut RegionCtx<'_, Ev>) {
        match event {
            Ev::Seed { budget } => self.fan_out(budget, ctx),
            Ev::Hop { budget, stamp } => {
                let bound = self.lookahead.between(stamp.src, self.id);
                assert!(
                    ctx.now() >= stamp.sent_at + bound,
                    "lookahead bound violated: {} -> {} arrived at {} < {} + {}",
                    stamp.src,
                    self.id,
                    ctx.now(),
                    stamp.sent_at,
                    bound
                );
                self.log.push((ctx.now(), stamp));
                self.fan_out(budget, ctx);
            }
        }
    }
}

fn run_cascade(n: usize, seed: u64, budget: u32, threads: usize) -> Vec<Vec<(SimTime, Stamp)>> {
    let lookahead = random_lookahead(n, seed);
    let worlds: Vec<Cascade> = (0..n)
        .map(|i| Cascade {
            id: i as u32,
            n: n as u32,
            rng: SimRng::derive(seed, 0xCA5CADE, i as u64),
            lookahead: random_lookahead(n, seed),
            sends: 0,
            log: Vec::new(),
        })
        .collect();
    let mut engine =
        ShardedEngine::new(worlds, lookahead, SimTime::from_secs(60)).with_event_budget(20_000);
    for i in 0..n {
        engine.prime(
            i as u32,
            SimTime::from_micros(10 + i as u64 * 7),
            Ev::Seed { budget },
        );
    }
    let (_, worlds) = engine.run(threads);
    worlds.into_iter().map(|w| w.log).collect()
}

proptest! {
    /// The influence closure is a shortest path: never above the direct
    /// bound, positive for every finite entry, and obeying the triangle
    /// inequality through any intermediate region.
    #[test]
    fn closure_is_shortest_path(seed in any::<u64>(), n in 2usize..6) {
        let la = random_lookahead(n, seed);
        for a in 0..n as u32 {
            for b in 0..n as u32 {
                if a != b {
                    prop_assert!(la.influence(a, b) <= la.between(a, b));
                }
                let d_ab = la.influence(a, b);
                prop_assert!(d_ab == NEVER || d_ab > SimDuration::ZERO);
                for c in 0..n as u32 {
                    let (d_ac, d_cb) = (la.influence(a, c), la.influence(c, b));
                    if d_ac != NEVER && d_cb != NEVER {
                        prop_assert!(d_ab <= d_ac + d_cb,
                            "triangle violated: D({a},{b}) > D({a},{c}) + D({c},{b})");
                    }
                }
            }
        }
    }

    /// Safe horizons and their `bound_by` attribution, computed sparsely
    /// from the direct bounds, equal the dense closure formula on every
    /// graph shape, with any subset of regions idle. The scratch is reused
    /// across cases' peek sets, as the engine reuses it across epochs.
    #[test]
    fn sparse_horizons_equal_the_closure_formula(
        seed in any::<u64>(),
        n in 1usize..14,
        shape in 0u8..5,
    ) {
        let mut rng = SimRng::derive(seed, 0x484F5249, 0);
        let la = shaped_lookahead(n, shape, &mut rng);
        let mut scratch = HorizonScratch::default();
        let (mut safe, mut sources) = (Vec::new(), Vec::new());
        for idle_pct in [0u64, 30, 80, 100] {
            let peeks: Vec<Option<SimTime>> = (0..n)
                .map(|_| {
                    let t = SimTime::from_millis(rng.below(6));
                    (rng.below(100) >= idle_pct).then_some(t)
                })
                .collect();
            la.safe_horizons(&peeks, &mut scratch, &mut safe, Some(&mut sources));
            let want = closure_horizons(&la, &peeks);
            prop_assert!(
                (&safe, &sources) == (&want.0, &want.1),
                "shape {shape} peeks {peeks:?}: got {safe:?} by {sources:?}, closure says {want:?}"
            );
        }
    }

    /// Random cascades at random worker counts never violate the
    /// conservative bound (asserted inside every receiver) and every
    /// region observes time monotonically.
    #[test]
    fn lookahead_bound_never_violated(
        seed in any::<u64>(),
        n in 2usize..6,
        budget in 1u32..12,
        threads in 1usize..9,
    ) {
        let logs = run_cascade(n, seed, budget, threads);
        for log in &logs {
            prop_assert!(log.windows(2).all(|w| w[0].0 <= w[1].0),
                "receiver observed time going backwards");
        }
    }

    /// The merge key `(timestamp, source, emission seq)` is a total order:
    /// no receiver ever observes two cross-region events with the same key,
    /// and simultaneous arrivals are delivered in `(source, emission)`
    /// order.
    #[test]
    fn merge_is_a_total_order(seed in any::<u64>(), n in 2usize..6, budget in 1u32..12) {
        let logs = run_cascade(n, seed, budget, 3);
        for log in &logs {
            for w in log.windows(2) {
                let ((ta, sa), (tb, sb)) = (w[0], w[1]);
                prop_assert!(ta <= tb);
                if ta == tb {
                    // Same-instant arrivals at one receiver are merged in
                    // one epoch, ordered by (src, emission counter) — and
                    // the key is strictly increasing, never equal.
                    prop_assert!(
                        (sa.src, sa.counter) < (sb.src, sb.counter),
                        "tie or misordering at {ta}: {sa:?} then {sb:?}"
                    );
                }
            }
        }
    }

    /// Worker count is invisible: the complete per-region arrival logs are
    /// bit-identical between 1 thread and any other count.
    #[test]
    fn worker_count_never_changes_observed_order(
        seed in any::<u64>(),
        n in 2usize..6,
        budget in 1u32..12,
        threads in 2usize..9,
    ) {
        let serial = run_cascade(n, seed, budget, 1);
        let parallel = run_cascade(n, seed, budget, threads);
        prop_assert_eq!(serial, parallel);
    }
}
