//! The mobility-model interface and configuration.

use wmn_sim::{SimRng, SimTime};
use wmn_topology::{Region, Vec2};

use crate::rwp::RandomWaypoint;
use crate::static_::StaticPoint;

/// Scenario-level mobility configuration (per node group).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MobilityConfig {
    /// Node never moves (mesh routers).
    Static,
    /// Random waypoint with uniform speed in `[v_min, v_max]` m/s and a
    /// fixed pause at each waypoint.
    RandomWaypoint {
        /// Minimum leg speed, m/s (must be > 0 to avoid the RWP speed-decay
        /// pathology).
        v_min: f64,
        /// Maximum leg speed, m/s.
        v_max: f64,
        /// Pause at each waypoint, seconds.
        pause_s: f64,
    },
}

/// A node's mobility state. Both models share the same piecewise-linear
/// interface: position/velocity are exact between updates, and
/// [`Mobility::next_update`] tells the engine when the trajectory next
/// changes shape.
#[derive(Clone, Debug)]
pub enum Mobility {
    /// Stationary node.
    Static(StaticPoint),
    /// Random-waypoint walker.
    Rwp(RandomWaypoint),
}

impl Mobility {
    /// Instantiate a model at `start` inside `region`.
    pub fn new(
        config: MobilityConfig,
        start: Vec2,
        region: Region,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Self {
        match config {
            MobilityConfig::Static => Mobility::Static(StaticPoint::new(start)),
            MobilityConfig::RandomWaypoint {
                v_min,
                v_max,
                pause_s,
            } => Mobility::Rwp(RandomWaypoint::new(
                start, region, v_min, v_max, pause_s, now, rng,
            )),
        }
    }

    /// Exact position at `t`, which must lie between the last update and
    /// [`Mobility::next_update`].
    pub fn position(&self, t: SimTime) -> Vec2 {
        match self {
            Mobility::Static(m) => m.position(),
            Mobility::Rwp(m) => m.position(t),
        }
    }

    /// Instantaneous velocity at `t` (zero while paused/stationary).
    pub fn velocity(&self, t: SimTime) -> Vec2 {
        match self {
            Mobility::Static(_) => Vec2::ZERO,
            Mobility::Rwp(m) => m.velocity(t),
        }
    }

    /// When the trajectory next changes (`SimTime::MAX` for static nodes).
    pub fn next_update(&self) -> SimTime {
        match self {
            Mobility::Static(_) => SimTime::MAX,
            Mobility::Rwp(m) => m.next_update(),
        }
    }

    /// Advance past a trajectory change at `now == next_update()`.
    pub fn advance(&mut self, now: SimTime, rng: &mut SimRng) {
        match self {
            Mobility::Static(_) => {}
            Mobility::Rwp(m) => m.advance(now, rng),
        }
    }

    /// True when the node can move at all.
    pub fn is_mobile(&self) -> bool {
        !matches!(self, Mobility::Static(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_node_never_updates() {
        let region = Region::square(100.0);
        let mut rng = SimRng::new(1);
        let start = Vec2::new(10.0, 20.0);
        let mut m = Mobility::new(
            MobilityConfig::Static,
            start,
            region,
            SimTime::ZERO,
            &mut rng,
        );
        assert_eq!(m.next_update(), SimTime::MAX);
        assert_eq!(m.position(SimTime::from_secs(1000)), start);
        assert_eq!(m.velocity(SimTime::from_secs(5)), Vec2::ZERO);
        assert!(!m.is_mobile());
        m.advance(SimTime::from_secs(1), &mut rng); // no-op
        assert_eq!(m.position(SimTime::from_secs(2000)), start);
    }

    #[test]
    fn all_mobile_models_stay_in_region() {
        let region = Region::square(300.0);
        let mut rng = SimRng::new(100);
        let config = MobilityConfig::RandomWaypoint {
            v_min: 1.0,
            v_max: 10.0,
            pause_s: 2.0,
        };
        let mut m = Mobility::new(
            config,
            Vec2::new(150.0, 150.0),
            region,
            SimTime::ZERO,
            &mut rng,
        );
        assert!(m.is_mobile());
        let mut t = SimTime::ZERO;
        for _ in 0..500 {
            let next = m.next_update();
            assert!(next > t, "{config:?}: next_update did not advance");
            // Sample the trajectory midway and at the update point.
            let mid = SimTime((t.as_nanos() + next.as_nanos()) / 2);
            assert!(
                region.contains(m.position(mid)),
                "{config:?} left region at {mid}"
            );
            assert!(m.position(mid).is_finite());
            t = next;
            assert!(
                region.contains(m.position(t)),
                "{config:?} left region at {t}"
            );
            m.advance(t, &mut rng);
        }
    }

    #[test]
    fn mobile_models_actually_move() {
        let region = Region::square(300.0);
        let mut rng = SimRng::new(200);
        let config = MobilityConfig::RandomWaypoint {
            v_min: 5.0,
            v_max: 10.0,
            pause_s: 0.0,
        };
        let start = Vec2::new(150.0, 150.0);
        let mut m = Mobility::new(config, start, region, SimTime::ZERO, &mut rng);
        let mut total = 0.0;
        let mut last = start;
        for _ in 0..100 {
            let t = m.next_update();
            let p = m.position(t);
            total += last.distance(p);
            last = p;
            m.advance(t, &mut rng);
        }
        assert!(total > 50.0, "{config:?} moved only {total} m");
    }
}
