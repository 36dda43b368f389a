//! Scheme selection: one enum covering the paper's contribution and every
//! baseline it is compared against.

use crate::policy::{CnlrConfig, CnlrPolicy, VapCnlr, VapConfig};
use wmn_routing::{CounterBased, DistanceBased, Flooding, Gossip, GossipK, RebroadcastPolicy};
use wmn_sim::SimDuration;

/// A route-discovery scheme under evaluation.
#[derive(Clone, Debug, PartialEq)]
pub enum Scheme {
    /// Blind flooding (classic AODV discovery).
    Flooding,
    /// GOSSIP1(p) fixed-probability forwarding.
    Gossip {
        /// Forwarding probability.
        p: f64,
    },
    /// GOSSIP1(p, k): flood for the first `k` hops.
    GossipK {
        /// Forwarding probability beyond hop `k`.
        p: f64,
        /// Certain-forwarding hop horizon.
        k: u8,
    },
    /// Counter-based suppression.
    Counter {
        /// Duplicate threshold.
        threshold: u32,
        /// Maximum random assessment delay.
        rad: SimDuration,
    },
    /// Distance-based suppression (RSSI-inferred): suppress first copies
    /// received above `strong_dbm`.
    Distance {
        /// Suppression power threshold, dBm.
        strong_dbm: f64,
    },
    /// Cross-layer Neighbourhood Load Routing (the paper's contribution).
    Cnlr(CnlrConfig),
    /// CNLR with velocity-aware damping (mobile-client extension).
    VapCnlr(CnlrConfig, VapConfig),
}

impl Scheme {
    /// The canonical baseline set the evaluation sweeps over.
    pub fn evaluation_set() -> Vec<Scheme> {
        vec![
            Scheme::Flooding,
            Scheme::Gossip { p: 0.65 },
            Scheme::Counter {
                threshold: 3,
                rad: SimDuration::from_millis(10),
            },
            Scheme::Cnlr(CnlrConfig::default()),
        ]
    }

    /// Instantiate the policy object.
    pub fn build(&self) -> Box<dyn RebroadcastPolicy> {
        match self {
            Scheme::Flooding => Box::new(Flooding::new()),
            Scheme::Gossip { p } => Box::new(Gossip::new(*p)),
            Scheme::GossipK { p, k } => Box::new(GossipK::new(*p, *k)),
            Scheme::Counter { threshold, rad } => Box::new(CounterBased::new(*threshold, *rad)),
            Scheme::Distance { strong_dbm } => Box::new(DistanceBased::new(*strong_dbm)),
            Scheme::Cnlr(cfg) => Box::new(CnlrPolicy::new(*cfg)),
            Scheme::VapCnlr(cfg, vap) => Box::new(VapCnlr::new(*cfg, *vap)),
        }
    }

    /// Parse a scheme spec string — the grammar shared by `wmn-sim
    /// --scheme`, scenario-service job specs and `wmn-submit`:
    ///
    /// ```text
    /// flooding | gossip:P | gossip:P:K | counter:C | counter:C:RAD_MS |
    /// distance:DBM | cnlr | vap
    /// ```
    ///
    /// Parameters are range-checked here, against what the policy
    /// constructors assert: a spec that parses builds a policy that runs.
    pub fn parse(s: &str) -> Result<Scheme, String> {
        let parts: Vec<&str> = s.split(':').collect();
        // The number at `parts[at]`, inside `range` (so never NaN).
        let number = |what: &str, at: usize, range: std::ops::RangeInclusive<f64>| {
            let text = parts.get(at).ok_or(format!("{} needs {what}", parts[0]))?;
            match text.parse::<f64>() {
                Ok(x) if range.contains(&x) => Ok(x),
                Ok(_) => Err(format!("{what} must be in {range:?}")),
                Err(e) => Err(format!("bad {what}: {e}")),
            }
        };
        match parts[0] {
            "flooding" | "flood" => Ok(Scheme::Flooding),
            "gossip" => {
                let p = number("gossip p", 1, 0.0..=1.0)?;
                if let Some(k) = parts.get(2) {
                    let k: u8 = k.parse().map_err(|e| format!("bad gossip k: {e}"))?;
                    Ok(Scheme::GossipK { p, k })
                } else {
                    Ok(Scheme::Gossip { p })
                }
            }
            "counter" => {
                let c: u32 = parts
                    .get(1)
                    .ok_or("counter needs :C")?
                    .parse()
                    .map_err(|e| format!("bad counter threshold: {e}"))?;
                if c == 0 {
                    return Err("counter threshold must be at least 1".into());
                }
                let rad = match parts.get(2) {
                    // A nanosecond to a thousand seconds.
                    Some(_) => SimDuration::from_secs_f64(number("rad ms", 2, 1e-6..=1e6)? / 1e3),
                    None => SimDuration::from_millis(10),
                };
                Ok(Scheme::Counter { threshold: c, rad })
            }
            "distance" => Ok(Scheme::Distance {
                strong_dbm: number("distance dBm", 1, -200.0..=100.0)?,
            }),
            "cnlr" => Ok(Scheme::Cnlr(CnlrConfig::default())),
            "vap" | "vap-cnlr" => Ok(Scheme::VapCnlr(CnlrConfig::default(), VapConfig::default())),
            other => Err(format!("unknown scheme '{other}'")),
        }
    }

    /// The spec string [`Scheme::parse`] round-trips. CNLR/VAP policy
    /// parameter overrides are not expressible in the grammar, so those
    /// variants serialise as their default-config spec.
    pub fn spec_string(&self) -> String {
        match self {
            Scheme::Flooding => "flooding".into(),
            Scheme::Gossip { p } => format!("gossip:{p}"),
            Scheme::GossipK { p, k } => format!("gossip:{p}:{k}"),
            Scheme::Counter { threshold, rad } => {
                if *rad == SimDuration::from_millis(10) {
                    format!("counter:{threshold}")
                } else {
                    format!("counter:{threshold}:{}", rad.as_secs_f64() * 1000.0)
                }
            }
            Scheme::Distance { strong_dbm } => format!("distance:{strong_dbm}"),
            Scheme::Cnlr(_) => "cnlr".into(),
            Scheme::VapCnlr(..) => "vap".into(),
        }
    }

    /// Short label for tables.
    pub fn label(&self) -> String {
        match self {
            Scheme::Flooding => "flooding".into(),
            Scheme::Gossip { p } => format!("gossip({p:.2})"),
            Scheme::GossipK { p, k } => format!("gossip({p:.2},k{k})"),
            Scheme::Counter { threshold, .. } => format!("counter(C{threshold})"),
            Scheme::Distance { strong_dbm } => format!("distance({strong_dbm:.0}dBm)"),
            Scheme::Cnlr(_) => "cnlr".into(),
            Scheme::VapCnlr(..) => "vap-cnlr".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_produces_correct_policies() {
        assert_eq!(Scheme::Flooding.build().name(), "flooding");
        assert_eq!(Scheme::Gossip { p: 0.5 }.build().name(), "gossip");
        assert_eq!(Scheme::GossipK { p: 0.5, k: 2 }.build().name(), "gossip-k");
        assert_eq!(
            Scheme::Counter {
                threshold: 3,
                rad: SimDuration::from_millis(10)
            }
            .build()
            .name(),
            "counter"
        );
        assert_eq!(
            Scheme::Distance { strong_dbm: -75.0 }.build().name(),
            "distance"
        );
        assert_eq!(Scheme::Cnlr(CnlrConfig::default()).build().name(), "cnlr");
        assert_eq!(
            Scheme::VapCnlr(CnlrConfig::default(), VapConfig::default())
                .build()
                .name(),
            "vap-cnlr"
        );
    }

    #[test]
    fn parse_covers_the_grammar() {
        assert_eq!(Scheme::parse("flooding").unwrap(), Scheme::Flooding);
        assert_eq!(Scheme::parse("flood").unwrap(), Scheme::Flooding);
        assert_eq!(
            Scheme::parse("gossip:0.5").unwrap(),
            Scheme::Gossip { p: 0.5 }
        );
        assert_eq!(
            Scheme::parse("gossip:0.5:2").unwrap(),
            Scheme::GossipK { p: 0.5, k: 2 }
        );
        assert_eq!(
            Scheme::parse("counter:4").unwrap(),
            Scheme::Counter {
                threshold: 4,
                rad: SimDuration::from_millis(10)
            }
        );
        assert_eq!(
            Scheme::parse("counter:3:25").unwrap(),
            Scheme::Counter {
                threshold: 3,
                rad: SimDuration::from_millis(25)
            }
        );
        assert!(matches!(
            Scheme::parse("distance:-75").unwrap(),
            Scheme::Distance { .. }
        ));
        assert!(matches!(Scheme::parse("cnlr").unwrap(), Scheme::Cnlr(_)));
        assert!(matches!(Scheme::parse("vap").unwrap(), Scheme::VapCnlr(..)));
        for bad in [
            "nope",
            "gossip",
            "gossip:x",
            "counter",
            "counter:2:0",
            "distance",
            // Each of these reached a constructor's assert, or ran on it.
            "gossip:nan",
            "gossip:1.5",
            "gossip:-1",
            "counter:0",
            "counter:3:1e30",
            "counter:3:nan",
            "distance:nan",
            "distance:inf",
        ] {
            assert!(Scheme::parse(bad).is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn spec_strings_roundtrip() {
        let mut set = Scheme::evaluation_set();
        set.push(Scheme::GossipK { p: 0.7, k: 2 });
        set.push(Scheme::Distance { strong_dbm: -75.5 });
        set.push(Scheme::Counter {
            threshold: 5,
            rad: SimDuration::from_millis(25),
        });
        set.push(Scheme::VapCnlr(CnlrConfig::default(), VapConfig::default()));
        for s in set {
            let spec = s.spec_string();
            assert_eq!(Scheme::parse(&spec).unwrap(), s, "roundtrip of {spec}");
        }
    }

    #[test]
    fn labels_are_distinct() {
        let set = Scheme::evaluation_set();
        let mut labels: Vec<String> = set.iter().map(Scheme::label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), set.len());
    }
}
