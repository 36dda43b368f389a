//! The pluggable rebroadcast-policy interface and the baseline schemes.
//!
//! Every scheme the paper compares against is expressed as a
//! [`RebroadcastPolicy`]: the AODV engine asks the policy what to do with a
//! freshly received RREQ, and how to cost routes. The CNLR policy itself
//! lives in the `cnlr` crate; this module provides the literature baselines:
//! blind flooding, GOSSIP1(p), GOSSIP1(p, k) and the counter-based scheme.

use crate::packet::Rreq;
use wmn_mac::LoadDigest;
use wmn_sim::{SimDuration, SimRng};

/// Everything a policy may condition its decision on. Cross-layer fields
/// (load digests, velocities) are filled in by the node stack; the baselines
/// ignore them, CNLR aggregates them with its own weights.
#[derive(Clone, Copy, Debug)]
pub struct RreqContext {
    /// This node's own MAC load digest.
    pub own_load: LoadDigest,
    /// Mean queue utilisation over live neighbours (from HELLOs), if any.
    pub nbr_mean_queue: Option<f64>,
    /// Mean channel-busy ratio over live neighbours, if any.
    pub nbr_mean_busy: Option<f64>,
    /// This node's velocity, m/s.
    pub own_velocity: (f64, f64),
    /// Velocity advertised by the neighbour the RREQ arrived from, if known.
    pub sender_velocity: Option<(f64, f64)>,
    /// Receive power of the frame carrying this RREQ, dBm (RSSI — the
    /// distance-based scheme's cross-layer signal).
    pub rx_power_dbm: Option<f64>,
}

/// A forwarding decision for a first-copy RREQ.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Decision {
    /// Rebroadcast after `jitter` (decorrelates simultaneous rebroadcasts).
    Forward {
        /// Transmit delay.
        jitter: SimDuration,
    },
    /// Never rebroadcast this RREQ.
    Discard,
    /// Re-assess after a random assessment delay (counter-based schemes):
    /// the engine calls [`RebroadcastPolicy::assess`] at `now + delay`.
    Defer {
        /// Assessment delay.
        delay: SimDuration,
    },
}

/// A pluggable route-discovery scheme.
pub trait RebroadcastPolicy: Send {
    /// Decide what to do with the *first copy* of an RREQ. (Duplicates are
    /// counted by the engine and never re-forwarded.)
    fn on_first_copy(&mut self, rreq: &Rreq, ctx: &RreqContext, rng: &mut SimRng) -> Decision;

    /// For [`Decision::Defer`]: final verdict once the assessment delay has
    /// elapsed. `copies` is the total number of copies received by then.
    fn assess(&mut self, rreq: &Rreq, copies: u32, rng: &mut SimRng) -> bool {
        let _ = (rreq, copies, rng);
        true
    }

    /// Amend the RREQ before rebroadcast (CNLR accumulates path load here).
    /// The hop count/TTL bookkeeping is done by the engine.
    fn annotate(&mut self, rreq: &mut Rreq, ctx: &RreqContext) {
        let _ = (rreq, ctx);
    }

    /// The route cost a path with `hop_count` hops and accumulated
    /// `path_load` represents. Lower is better. Baselines use hop count.
    fn route_cost(&self, hop_count: u8, path_load: f64) -> f64 {
        let _ = path_load;
        hop_count as f64
    }

    /// The rebroadcast probability this policy would apply in `ctx` — a
    /// side-effect-free diagnostic mirror of `on_first_copy` for the
    /// telemetry probes (deterministic-forward schemes report 1.0).
    fn forward_probability(&self, ctx: &RreqContext) -> f64 {
        let _ = ctx;
        1.0
    }

    /// The neighbourhood-load estimate this policy derives from `ctx`
    /// (0 for load-blind schemes; CNLR reports its blended index).
    fn load_estimate(&self, ctx: &RreqContext) -> f64 {
        let _ = ctx;
        0.0
    }

    /// Short scheme name for reports.
    fn name(&self) -> &'static str;
}

/// Uniform forwarding jitter used by all schemes, per the broadcast-storm
/// literature (decorrelates neighbours that received the same RREQ).
pub fn draw_jitter(max: SimDuration, rng: &mut SimRng) -> SimDuration {
    SimDuration(rng.below(max.as_nanos().max(1)))
}

/// Blind flooding: every node rebroadcasts every RREQ exactly once
/// (classic AODV discovery; the paper's main baseline).
#[derive(Clone, Debug)]
pub struct Flooding {
    jitter_max: SimDuration,
}

impl Flooding {
    /// Create with the standard 10 ms jitter cap.
    pub fn new() -> Self {
        Flooding {
            jitter_max: SimDuration::from_millis(10),
        }
    }
}

impl Default for Flooding {
    fn default() -> Self {
        Self::new()
    }
}

impl RebroadcastPolicy for Flooding {
    fn on_first_copy(&mut self, _rreq: &Rreq, _ctx: &RreqContext, rng: &mut SimRng) -> Decision {
        Decision::Forward {
            jitter: draw_jitter(self.jitter_max, rng),
        }
    }

    fn name(&self) -> &'static str {
        "flooding"
    }
}

/// GOSSIP1(p): rebroadcast with fixed probability `p`
/// (Haas, Halpern & Li 2002).
#[derive(Clone, Debug)]
pub struct Gossip {
    p: f64,
    jitter_max: SimDuration,
}

impl Gossip {
    /// Fixed forwarding probability `p ∈ [0, 1]`.
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p out of range");
        Gossip {
            p,
            jitter_max: SimDuration::from_millis(10),
        }
    }
}

impl RebroadcastPolicy for Gossip {
    fn on_first_copy(&mut self, _rreq: &Rreq, _ctx: &RreqContext, rng: &mut SimRng) -> Decision {
        if rng.chance(self.p) {
            Decision::Forward {
                jitter: draw_jitter(self.jitter_max, rng),
            }
        } else {
            Decision::Discard
        }
    }

    fn forward_probability(&self, _ctx: &RreqContext) -> f64 {
        self.p
    }

    fn name(&self) -> &'static str {
        "gossip"
    }
}

/// GOSSIP1(p, k): flood with probability 1 for the first `k` hops (so the
/// gossip never dies near the origin), probability `p` beyond.
#[derive(Clone, Debug)]
pub struct GossipK {
    p: f64,
    k: u8,
    jitter_max: SimDuration,
}

impl GossipK {
    /// `p` beyond hop `k`, certainty within.
    pub fn new(p: f64, k: u8) -> Self {
        assert!((0.0..=1.0).contains(&p), "p out of range");
        GossipK {
            p,
            k,
            jitter_max: SimDuration::from_millis(10),
        }
    }
}

impl RebroadcastPolicy for GossipK {
    fn on_first_copy(&mut self, rreq: &Rreq, _ctx: &RreqContext, rng: &mut SimRng) -> Decision {
        let forward = rreq.hop_count < self.k || rng.chance(self.p);
        if forward {
            Decision::Forward {
                jitter: draw_jitter(self.jitter_max, rng),
            }
        } else {
            Decision::Discard
        }
    }

    fn forward_probability(&self, _ctx: &RreqContext) -> f64 {
        // Beyond the certainty radius (the steady-state regime).
        self.p
    }

    fn name(&self) -> &'static str {
        "gossip-k"
    }
}

/// Counter-based scheme (Ni et al.; Bani-Yassein et al. variants): defer a
/// random assessment delay; forward only if fewer than `threshold` copies
/// have been overheard by then (many copies ⇒ the neighbourhood is already
/// covered).
#[derive(Clone, Debug)]
pub struct CounterBased {
    threshold: u32,
    rad_max: SimDuration,
}

impl CounterBased {
    /// Suppress when `threshold` or more copies were heard within the RAD.
    pub fn new(threshold: u32, rad_max: SimDuration) -> Self {
        assert!(threshold >= 1);
        CounterBased { threshold, rad_max }
    }
}

impl RebroadcastPolicy for CounterBased {
    fn on_first_copy(&mut self, _rreq: &Rreq, _ctx: &RreqContext, rng: &mut SimRng) -> Decision {
        Decision::Defer {
            delay: draw_jitter(self.rad_max, rng),
        }
    }

    fn assess(&mut self, _rreq: &Rreq, copies: u32, _rng: &mut SimRng) -> bool {
        copies < self.threshold
    }

    fn name(&self) -> &'static str {
        "counter"
    }
}

/// Distance-based scheme (Ni et al.): a copy heard at high power came from
/// a nearby sender, so rebroadcasting adds little extra coverage — suppress
/// it. Distance is inferred from RSSI: rebroadcast only when the first copy
/// arrived *below* `strong_dbm`.
#[derive(Clone, Debug)]
pub struct DistanceBased {
    strong_dbm: f64,
    jitter_max: SimDuration,
}

impl DistanceBased {
    /// Suppress first copies stronger than `strong_dbm` (a value between
    /// the receive threshold and the near-field power; −75 dBm ≈ 60 %
    /// of nominal range under the classic two-ray calibration).
    pub fn new(strong_dbm: f64) -> Self {
        DistanceBased {
            strong_dbm,
            jitter_max: SimDuration::from_millis(10),
        }
    }
}

impl RebroadcastPolicy for DistanceBased {
    fn on_first_copy(&mut self, _rreq: &Rreq, ctx: &RreqContext, rng: &mut SimRng) -> Decision {
        match ctx.rx_power_dbm {
            // Strong signal ⇒ close sender ⇒ little extra coverage.
            Some(p) if p > self.strong_dbm => Decision::Discard,
            // Weak/unknown signal ⇒ border node ⇒ forward.
            _ => Decision::Forward {
                jitter: draw_jitter(self.jitter_max, rng),
            },
        }
    }

    fn name(&self) -> &'static str {
        "distance"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::NodeId;
    use crate::packet::RreqKey;

    fn rreq(hops: u8) -> Rreq {
        Rreq {
            key: RreqKey {
                origin: NodeId(0),
                id: 1,
            },
            origin_seq: 1,
            target: NodeId(9),
            target_seq: None,
            hop_count: hops,
            path_load: 0.0,
            ttl: 30,
        }
    }

    fn ctx() -> RreqContext {
        RreqContext {
            own_load: LoadDigest::default(),
            nbr_mean_queue: None,
            nbr_mean_busy: None,
            own_velocity: (0.0, 0.0),
            sender_velocity: None,
            rx_power_dbm: None,
        }
    }

    #[test]
    fn flooding_always_forwards_with_bounded_jitter() {
        let mut p = Flooding::new();
        let mut rng = SimRng::new(1);
        for _ in 0..100 {
            match p.on_first_copy(&rreq(2), &ctx(), &mut rng) {
                Decision::Forward { jitter } => {
                    assert!(jitter < SimDuration::from_millis(10));
                }
                other => panic!("flooding produced {other:?}"),
            }
        }
        assert_eq!(p.name(), "flooding");
    }

    #[test]
    fn gossip_matches_probability() {
        let mut p = Gossip::new(0.6);
        let mut rng = SimRng::new(2);
        let n = 20_000;
        let fwd = (0..n)
            .filter(|_| {
                matches!(
                    p.on_first_copy(&rreq(2), &ctx(), &mut rng),
                    Decision::Forward { .. }
                )
            })
            .count();
        let frac = fwd as f64 / n as f64;
        assert!((frac - 0.6).abs() < 0.02, "forwarded {frac}");
    }

    #[test]
    fn gossip_extremes() {
        let mut rng = SimRng::new(3);
        let mut p0 = Gossip::new(0.0);
        let mut p1 = Gossip::new(1.0);
        assert_eq!(
            p0.on_first_copy(&rreq(1), &ctx(), &mut rng),
            Decision::Discard
        );
        assert!(matches!(
            p1.on_first_copy(&rreq(1), &ctx(), &mut rng),
            Decision::Forward { .. }
        ));
    }

    #[test]
    fn gossip_k_floods_near_origin() {
        let mut p = GossipK::new(0.0, 3);
        let mut rng = SimRng::new(4);
        // Inside k hops: always forward even with p = 0.
        for h in 0..3 {
            assert!(matches!(
                p.on_first_copy(&rreq(h), &ctx(), &mut rng),
                Decision::Forward { .. }
            ));
        }
        // Beyond: never (p = 0).
        assert_eq!(
            p.on_first_copy(&rreq(3), &ctx(), &mut rng),
            Decision::Discard
        );
    }

    #[test]
    fn counter_defers_then_thresholds() {
        let mut p = CounterBased::new(3, SimDuration::from_millis(10));
        let mut rng = SimRng::new(5);
        assert!(matches!(
            p.on_first_copy(&rreq(2), &ctx(), &mut rng),
            Decision::Defer { .. }
        ));
        assert!(p.assess(&rreq(2), 1, &mut rng));
        assert!(p.assess(&rreq(2), 2, &mut rng));
        assert!(!p.assess(&rreq(2), 3, &mut rng));
        assert!(!p.assess(&rreq(2), 7, &mut rng));
    }

    #[test]
    fn default_route_cost_is_hops() {
        let p = Flooding::new();
        assert_eq!(p.route_cost(4, 0.9), 4.0);
        assert_eq!(p.route_cost(0, 0.0), 0.0);
    }

    #[test]
    fn default_annotate_is_noop() {
        let mut p = Gossip::new(0.5);
        let mut r = rreq(2);
        let before = r;
        p.annotate(&mut r, &ctx());
        assert_eq!(r, before);
    }

    #[test]
    fn distance_based_uses_rssi() {
        let mut p = DistanceBased::new(-75.0);
        let mut rng = SimRng::new(7);
        let mut near = ctx();
        near.rx_power_dbm = Some(-60.0);
        assert_eq!(
            p.on_first_copy(&rreq(1), &near, &mut rng),
            Decision::Discard
        );
        let mut far = ctx();
        far.rx_power_dbm = Some(-85.0);
        assert!(matches!(
            p.on_first_copy(&rreq(1), &far, &mut rng),
            Decision::Forward { .. }
        ));
        // Unknown RSSI: forward (safe default).
        assert!(matches!(
            p.on_first_copy(&rreq(1), &ctx(), &mut rng),
            Decision::Forward { .. }
        ));
        assert_eq!(p.name(), "distance");
    }

    #[test]
    fn jitter_draw_handles_zero_cap() {
        let mut rng = SimRng::new(6);
        let j = draw_jitter(SimDuration::ZERO, &mut rng);
        assert_eq!(j, SimDuration::ZERO);
    }
}
