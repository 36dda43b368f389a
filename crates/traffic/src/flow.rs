//! Flow specifications and emission-time generation.

use wmn_routing::{FlowId, NodeId};
use wmn_sim::{SimDuration, SimRng, SimTime};

/// The packet-emission pattern of a flow.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TrafficPattern {
    /// Constant bit rate: one packet every `interval`.
    Cbr {
        /// Inter-packet gap.
        interval: SimDuration,
    },
    /// Poisson arrivals with the given mean inter-packet gap.
    Poisson {
        /// Mean gap.
        mean_interval: SimDuration,
    },
}

impl TrafficPattern {
    /// CBR from a packets-per-second rate.
    pub fn cbr_pps(pps: f64) -> Self {
        assert!(pps > 0.0);
        TrafficPattern::Cbr {
            interval: SimDuration::from_secs_f64(1.0 / pps),
        }
    }
}

/// A declared application flow.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlowSpec {
    /// Flow identifier.
    pub id: FlowId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Application payload per packet, bytes.
    pub payload: usize,
    /// First emission time.
    pub start: SimTime,
    /// No emissions at or after this time.
    pub stop: SimTime,
    /// Emission pattern.
    pub pattern: TrafficPattern,
}

impl FlowSpec {
    /// Offered load of this flow in bits per second (long-run average).
    pub fn offered_bps(&self) -> f64 {
        let bits = self.payload as f64 * 8.0;
        match self.pattern {
            TrafficPattern::Cbr { interval }
            | TrafficPattern::Poisson {
                mean_interval: interval,
            } => bits / interval.as_secs_f64(),
        }
    }
}

/// Emission-time iterator state for one flow.
#[derive(Clone, Debug)]
pub struct FlowState {
    spec: FlowSpec,
    next_seq: u32,
}

impl FlowState {
    /// Initialise; the first packet is due at `spec.start`.
    pub fn new(spec: FlowSpec) -> Self {
        FlowState { spec, next_seq: 0 }
    }

    /// The flow spec.
    pub fn spec(&self) -> &FlowSpec {
        &self.spec
    }

    /// Sequence number the next emission will carry.
    pub fn next_seq(&self) -> u32 {
        self.next_seq
    }

    /// Emit one packet at `now`: returns `(seq, next_emission_time)`.
    /// `next_emission_time` is `None` once the flow's stop time is reached.
    pub fn emit(&mut self, now: SimTime, rng: &mut SimRng) -> (u32, Option<SimTime>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let gap = match self.spec.pattern {
            TrafficPattern::Cbr { interval } => interval,
            TrafficPattern::Poisson { mean_interval } => {
                SimDuration::from_secs_f64(rng.exponential(mean_interval.as_secs_f64()))
            }
        };
        let next = now + gap;
        ((seq), (next < self.spec.stop).then_some(next))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(pattern: TrafficPattern) -> FlowSpec {
        FlowSpec {
            id: FlowId(1),
            src: NodeId(0),
            dst: NodeId(9),
            payload: 512,
            start: SimTime::from_secs(1),
            stop: SimTime::from_secs(11),
            pattern,
        }
    }

    #[test]
    fn cbr_emits_on_schedule() {
        let mut rng = SimRng::new(1);
        let s = spec(TrafficPattern::cbr_pps(4.0));
        let mut f = FlowState::new(s);
        let mut now = s.start;
        let mut count = 0;
        loop {
            let (seq, next) = f.emit(now, &mut rng);
            assert_eq!(seq, count);
            count += 1;
            match next {
                Some(t) => {
                    assert_eq!(t.since(now), SimDuration::from_millis(250));
                    now = t;
                }
                None => break,
            }
        }
        // 10 s at 4 pps = 40 packets.
        assert_eq!(count, 40);
    }

    #[test]
    fn poisson_mean_rate() {
        let mut rng = SimRng::new(2);
        let s = FlowSpec {
            stop: SimTime::from_secs(1001),
            ..spec(TrafficPattern::Poisson {
                mean_interval: SimDuration::from_millis(250),
            })
        };
        let mut f = FlowState::new(s);
        let mut now = s.start;
        let mut count = 0u32;
        while let (_, Some(t)) = f.emit(now, &mut rng) {
            now = t;
            count += 1;
        }
        // 1000 s at 4 pps ≈ 4000 packets.
        assert!((count as f64 - 4000.0).abs() < 200.0, "count {count}");
    }

    #[test]
    fn offered_bps() {
        let s = spec(TrafficPattern::cbr_pps(4.0));
        assert!((s.offered_bps() - 512.0 * 8.0 * 4.0).abs() < 1e-6);
    }

    #[test]
    fn stop_time_is_exclusive() {
        let mut rng = SimRng::new(4);
        let s = FlowSpec {
            start: SimTime::from_secs(1),
            stop: SimTime::from_secs(1) + SimDuration::from_millis(250),
            ..spec(TrafficPattern::cbr_pps(4.0))
        };
        let mut f = FlowState::new(s);
        let (seq, next) = f.emit(s.start, &mut rng);
        assert_eq!(seq, 0);
        assert!(next.is_none(), "emission at stop time must not occur");
    }
}
