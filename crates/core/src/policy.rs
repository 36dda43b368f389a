//! The paper's contribution: Cross-layer Neighbourhood Load Routing.
//!
//! CNLR replaces blind RREQ flooding with a **load-adaptive rebroadcast
//! probability** and biases route selection towards lightly-loaded paths:
//!
//! 1. Each node maintains a *neighbourhood load index* `L ∈ [0, 1]` — a
//!    weighted blend of its own MAC digest (interface-queue utilisation and
//!    channel-busy ratio, [`wmn_mac::LoadDigest`]) and the digests its
//!    neighbours piggyback on HELLO beacons.
//! 2. A first-copy RREQ is rebroadcast with probability
//!    `p = p_max − (p_max − p_min)·L`, linear in the load index.
//! 3. Forwarded RREQs accumulate `L` into their `path_load` field; routes
//!    are selected by the combined cost `hops + β·path_load`, so among the
//!    discovered paths the origin prefers the one through the quietest
//!    region.
//!
//! The VAP extension ([`VapCnlr`]) additionally damps forwarding across
//! unstable links: the probability is multiplied by
//! `exp(−|v_self − v_sender| / v_ref)`, excluding fast-diverging nodes from
//! route construction (the group's velocity-aware route discovery line of
//! work).

use wmn_routing::{Decision, RebroadcastPolicy, Rreq, RreqContext};
use wmn_sim::{SimDuration, SimRng};

/// CNLR tuning parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CnlrConfig {
    /// Rebroadcast probability in an idle neighbourhood.
    pub p_max: f64,
    /// Probability floor in a saturated neighbourhood (connectivity safety
    /// net — never let discovery die completely).
    pub p_min: f64,
    /// Weight of queue utilisation within a digest's scalar index.
    pub w_queue: f64,
    /// Weight of channel-busy ratio within a digest's scalar index.
    pub w_busy: f64,
    /// Weight of the node's own digest vs. the neighbourhood mean
    /// (1.0 = own only; 0.0 = neighbours only).
    pub w_self: f64,
    /// Route-cost weight of accumulated path load (`cost = hops + β·load`).
    pub beta_load: f64,
    /// Maximum forwarding jitter.
    pub jitter_max: SimDuration,
}

impl Default for CnlrConfig {
    fn default() -> Self {
        CnlrConfig {
            p_max: 0.95,
            p_min: 0.35,
            w_queue: 1.0,
            w_busy: 1.0,
            w_self: 0.5,
            beta_load: 2.0,
            jitter_max: SimDuration::from_millis(10),
        }
    }
}

impl CnlrConfig {
    /// The aggregated neighbourhood-load index for a context.
    pub fn neighbourhood_load(&self, ctx: &RreqContext) -> f64 {
        let own = ctx.own_load.index(self.w_queue, self.w_busy);
        let nbr = match (ctx.nbr_mean_queue, ctx.nbr_mean_busy) {
            (Some(q), Some(b)) => {
                let denom = (self.w_queue + self.w_busy).max(f64::EPSILON);
                Some(((self.w_queue * q + self.w_busy * b) / denom).clamp(0.0, 1.0))
            }
            _ => None,
        };
        match nbr {
            Some(n) => (self.w_self * own + (1.0 - self.w_self) * n).clamp(0.0, 1.0),
            None => own,
        }
    }

    /// The load-adaptive rebroadcast probability for a context.
    pub fn probability(&self, ctx: &RreqContext) -> f64 {
        let p = self.p_max - (self.p_max - self.p_min) * self.neighbourhood_load(ctx);
        p.clamp(self.p_min.min(self.p_max), self.p_max)
    }
}

/// The CNLR rebroadcast policy.
#[derive(Clone, Debug)]
pub struct CnlrPolicy {
    config: CnlrConfig,
}

impl CnlrPolicy {
    /// Create with the given tuning.
    pub fn new(config: CnlrConfig) -> Self {
        assert!(config.p_min >= 0.0 && config.p_max <= 1.0 && config.p_min <= config.p_max);
        assert!((0.0..=1.0).contains(&config.w_self));
        CnlrPolicy { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &CnlrConfig {
        &self.config
    }
}

impl RebroadcastPolicy for CnlrPolicy {
    fn on_first_copy(&mut self, _rreq: &Rreq, ctx: &RreqContext, rng: &mut SimRng) -> Decision {
        let p = self.config.probability(ctx);
        if rng.chance(p) {
            Decision::Forward {
                jitter: wmn_routing::policy::draw_jitter(self.config.jitter_max, rng),
            }
        } else {
            Decision::Discard
        }
    }

    fn annotate(&mut self, rreq: &mut Rreq, ctx: &RreqContext) {
        rreq.path_load += self.config.neighbourhood_load(ctx);
    }

    fn route_cost(&self, hop_count: u8, path_load: f64) -> f64 {
        hop_count as f64 + self.config.beta_load * path_load
    }

    fn forward_probability(&self, ctx: &RreqContext) -> f64 {
        self.config.probability(ctx)
    }

    fn load_estimate(&self, ctx: &RreqContext) -> f64 {
        self.config.neighbourhood_load(ctx)
    }

    fn name(&self) -> &'static str {
        "cnlr"
    }
}

/// Velocity-aware configuration for [`VapCnlr`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VapConfig {
    /// Relative-speed scale (m/s) of the stability damping
    /// `exp(−Δv / v_ref)`.
    pub v_ref: f64,
    /// Hard floor so discovery survives in all-mobile scenarios.
    pub p_floor: f64,
}

impl Default for VapConfig {
    fn default() -> Self {
        VapConfig {
            v_ref: 10.0,
            p_floor: 0.15,
        }
    }
}

/// CNLR with velocity-aware link-stability damping (the "velocity-aware
/// niche" extension): forwarding over links whose endpoints diverge fast is
/// suppressed, excluding unstable hops from constructed routes.
#[derive(Clone, Debug)]
pub struct VapCnlr {
    base: CnlrConfig,
    vap: VapConfig,
}

impl VapCnlr {
    /// Combine the CNLR core with velocity damping.
    pub fn new(base: CnlrConfig, vap: VapConfig) -> Self {
        assert!(vap.v_ref > 0.0 && (0.0..=1.0).contains(&vap.p_floor));
        VapCnlr { base, vap }
    }

    fn stability(&self, ctx: &RreqContext) -> f64 {
        match ctx.sender_velocity {
            Some((svx, svy)) => {
                let (ovx, ovy) = ctx.own_velocity;
                let dv = ((ovx - svx).powi(2) + (ovy - svy).powi(2)).sqrt();
                (-dv / self.vap.v_ref).exp()
            }
            // Unknown sender velocity (no HELLO yet): assume stable.
            None => 1.0,
        }
    }
}

impl RebroadcastPolicy for VapCnlr {
    fn on_first_copy(&mut self, _rreq: &Rreq, ctx: &RreqContext, rng: &mut SimRng) -> Decision {
        let p = (self.base.probability(ctx) * self.stability(ctx)).max(self.vap.p_floor);
        if rng.chance(p) {
            Decision::Forward {
                jitter: wmn_routing::policy::draw_jitter(self.base.jitter_max, rng),
            }
        } else {
            Decision::Discard
        }
    }

    fn annotate(&mut self, rreq: &mut Rreq, ctx: &RreqContext) {
        // Unstable links also contribute extra cost so stable routes win.
        let instability = 1.0 - self.stability(ctx);
        rreq.path_load += self.base.neighbourhood_load(ctx) + instability;
    }

    fn route_cost(&self, hop_count: u8, path_load: f64) -> f64 {
        hop_count as f64 + self.base.beta_load * path_load
    }

    fn forward_probability(&self, ctx: &RreqContext) -> f64 {
        (self.base.probability(ctx) * self.stability(ctx)).max(self.vap.p_floor)
    }

    fn load_estimate(&self, ctx: &RreqContext) -> f64 {
        self.base.neighbourhood_load(ctx)
    }

    fn name(&self) -> &'static str {
        "vap-cnlr"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use wmn_mac::LoadDigest;
    use wmn_routing::{NodeId, RreqKey};

    fn ctx(own: f64, nbr: Option<f64>) -> RreqContext {
        RreqContext {
            own_load: LoadDigest {
                queue_util: own,
                busy_ratio: own,
                mac_service_s: 0.0,
            },
            nbr_mean_queue: nbr,
            nbr_mean_busy: nbr,
            own_velocity: (0.0, 0.0),
            sender_velocity: None,
            rx_power_dbm: None,
        }
    }

    fn rreq() -> Rreq {
        Rreq {
            key: RreqKey {
                origin: NodeId(0),
                id: 1,
            },
            origin_seq: 1,
            target: NodeId(9),
            target_seq: None,
            hop_count: 2,
            path_load: 0.0,
            ttl: 30,
        }
    }

    #[test]
    fn probability_spans_pmin_pmax() {
        let c = CnlrConfig::default();
        assert!((c.probability(&ctx(0.0, Some(0.0))) - c.p_max).abs() < 1e-12);
        assert!((c.probability(&ctx(1.0, Some(1.0))) - c.p_min).abs() < 1e-12);
        let mid = c.probability(&ctx(0.5, Some(0.5)));
        assert!((mid - (c.p_max + c.p_min) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn probability_monotone_in_load() {
        let c = CnlrConfig::default();
        let mut last = 1.1;
        for i in 0..=10 {
            let l = i as f64 / 10.0;
            let p = c.probability(&ctx(l, Some(l)));
            assert!(p <= last);
            last = p;
        }
    }

    #[test]
    fn own_only_when_no_neighbors() {
        let c = CnlrConfig::default();
        let l = c.neighbourhood_load(&ctx(0.8, None));
        assert!((l - 0.8).abs() < 1e-12);
    }

    #[test]
    fn w_self_blends() {
        let c = CnlrConfig {
            w_self: 0.25,
            ..CnlrConfig::default()
        };
        let l = c.neighbourhood_load(&ctx(0.8, Some(0.4)));
        assert!((l - (0.25 * 0.8 + 0.75 * 0.4)).abs() < 1e-12);
    }

    proptest! {
        /// The rebroadcast probability is exactly the paper's linear law,
        /// clamped to `[p_min, p_max]`: no other term enters it.
        #[test]
        fn probability_is_linear_in_neighbourhood_load(
            bounds in (0.0f64..=1.0, 0.0f64..=1.0),
            weights in (0.0f64..=2.0, 0.0f64..=2.0, 0.0f64..=1.0),
            own in (0.0f64..=1.0, 0.0f64..=1.0),
            nbr in prop::option::of((0.0f64..=1.0, 0.0f64..=1.0)),
        ) {
            let (p_min, p_max) = (bounds.0.min(bounds.1), bounds.0.max(bounds.1));
            let (w_queue, w_busy, w_self) = weights;
            let (queue, busy) = own;
            let c = CnlrConfig { p_min, p_max, w_queue, w_busy, w_self, ..CnlrConfig::default() };
            let mut x = ctx(0.0, None);
            x.own_load = LoadDigest { queue_util: queue, busy_ratio: busy, mac_service_s: 0.0 };
            x.nbr_mean_queue = nbr.map(|(q, _)| q);
            x.nbr_mean_busy = nbr.map(|(_, b)| b);
            let l = c.neighbourhood_load(&x);
            let want = (p_max - (p_max - p_min) * l).clamp(p_min, p_max);
            prop_assert_eq!(c.probability(&x).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn decision_statistics_track_probability() {
        let mut p = CnlrPolicy::new(CnlrConfig::default());
        let mut rng = SimRng::new(1);
        let busy = ctx(1.0, Some(1.0));
        let n = 20_000;
        let fwd = (0..n)
            .filter(|_| {
                matches!(
                    p.on_first_copy(&rreq(), &busy, &mut rng),
                    Decision::Forward { .. }
                )
            })
            .count();
        let frac = fwd as f64 / n as f64;
        assert!(
            (frac - 0.35).abs() < 0.02,
            "saturated forwarding rate {frac}"
        );
    }

    #[test]
    fn annotate_accumulates_load() {
        let mut p = CnlrPolicy::new(CnlrConfig::default());
        let mut r = rreq();
        p.annotate(&mut r, &ctx(0.6, Some(0.6)));
        assert!((r.path_load - 0.6).abs() < 1e-12);
        p.annotate(&mut r, &ctx(0.2, Some(0.2)));
        assert!((r.path_load - 0.8).abs() < 1e-12);
    }

    #[test]
    fn route_cost_penalises_load() {
        let p = CnlrPolicy::new(CnlrConfig::default());
        // 3 hops quiet vs 3 hops loaded.
        assert!(p.route_cost(3, 0.0) < p.route_cost(3, 1.0));
        // A short loaded path can lose to a longer quiet one.
        assert!(p.route_cost(4, 0.0) < p.route_cost(3, 1.0));
        assert_eq!(p.name(), "cnlr");
    }

    #[test]
    fn vap_damps_by_relative_speed() {
        let v = VapCnlr::new(CnlrConfig::default(), VapConfig::default());
        let mut fast = ctx(0.0, Some(0.0));
        fast.sender_velocity = Some((20.0, 0.0));
        fast.own_velocity = (-10.0, 0.0); // Δv = 30 m/s
        let mut slow = ctx(0.0, Some(0.0));
        slow.sender_velocity = Some((1.0, 0.0));
        slow.own_velocity = (0.0, 0.0); // Δv = 1 m/s
        let s_fast = v.stability(&fast);
        let s_slow = v.stability(&slow);
        assert!(s_fast < 0.1, "fast link stability {s_fast}");
        assert!(s_slow > 0.9, "slow link stability {s_slow}");
    }

    #[test]
    fn vap_floor_preserves_discovery() {
        let mut v = VapCnlr::new(
            CnlrConfig::default(),
            VapConfig {
                v_ref: 1.0,
                p_floor: 0.2,
            },
        );
        let mut c = ctx(1.0, Some(1.0));
        c.sender_velocity = Some((100.0, 0.0));
        let mut rng = SimRng::new(2);
        let n = 20_000;
        let fwd = (0..n)
            .filter(|_| {
                matches!(
                    v.on_first_copy(&rreq(), &c, &mut rng),
                    Decision::Forward { .. }
                )
            })
            .count();
        let frac = fwd as f64 / n as f64;
        assert!((frac - 0.2).abs() < 0.02, "floored rate {frac}");
        assert_eq!(v.name(), "vap-cnlr");
    }

    #[test]
    fn vap_annotate_adds_instability_cost() {
        let mut v = VapCnlr::new(CnlrConfig::default(), VapConfig::default());
        let mut stable = ctx(0.0, Some(0.0));
        stable.sender_velocity = Some((0.0, 0.0));
        let mut unstable = stable;
        unstable.sender_velocity = Some((50.0, 0.0));
        let mut r1 = rreq();
        let mut r2 = rreq();
        v.annotate(&mut r1, &stable);
        v.annotate(&mut r2, &unstable);
        assert!(r2.path_load > r1.path_load + 0.9);
    }

    #[test]
    #[should_panic]
    fn invalid_config_rejected() {
        CnlrPolicy::new(CnlrConfig {
            p_min: 0.9,
            p_max: 0.3,
            ..CnlrConfig::default()
        });
    }
}
