//! Recovery metrics under fault injection: route-repair latency,
//! PDR-during-outage, and time-to-reconverge.
//!
//! These quantify how a routing scheme survives network dynamics — the
//! questions the fault subsystem exists to answer. All three are derived
//! from the run's time-binned send/delivery series plus the outage log, so
//! they cost nothing when no fault fires.

use crate::series::TimeSeries;
use wmn_sim::SimTime;

/// Online route-repair latency tracker.
///
/// Measures the time from a disruptive fault (a node crash) to the first
/// subsequent end-to-end delivery — a proxy for how quickly the routing
/// layer detects the break, propagates RERRs, and finds a replacement
/// path. Overlapping faults are measured from the *earliest* unrecovered
/// one (the network is not "repaired" until traffic flows again).
#[derive(Clone, Debug, Default)]
pub struct RecoveryTracker {
    pending: Option<SimTime>,
    latencies: Vec<f64>,
}

impl RecoveryTracker {
    /// A tracker with no faults observed.
    pub fn new() -> Self {
        RecoveryTracker::default()
    }

    /// A disruptive fault fired at `t`.
    pub fn on_fault(&mut self, t: SimTime) {
        if self.pending.is_none() {
            self.pending = Some(t);
        }
    }

    /// An end-to-end delivery happened at `t`.
    pub fn on_delivery(&mut self, t: SimTime) {
        if let Some(t0) = self.pending.take() {
            self.latencies.push(t.since(t0).as_secs_f64());
        }
    }

    /// Repair latencies observed so far, seconds, in fault order.
    pub fn latencies(&self) -> &[f64] {
        &self.latencies
    }

    /// Mean repair latency, seconds (`None` before the first repair).
    pub fn mean_latency_s(&self) -> Option<f64> {
        if self.latencies.is_empty() {
            None
        } else {
            Some(self.latencies.iter().sum::<f64>() / self.latencies.len() as f64)
        }
    }
}

/// Packet delivery ratio restricted to outage windows.
///
/// `outages` are `(start_s, end_s)` intervals; a time bin counts when its
/// start lies inside any interval. Returns `None` when no send bin
/// overlaps an outage (no outage, or outages outside the run).
pub fn pdr_during_outages(
    sent: &TimeSeries,
    delivered: &TimeSeries,
    outages: &[(f64, f64)],
) -> Option<f64> {
    let width = sent.bin_width().as_secs_f64();
    let in_outage = |i: usize| {
        outages
            .iter()
            .any(|&(a, b)| i as f64 * width >= a && (i as f64) * width < b)
    };
    let mut s = 0u64;
    let mut d = 0u64;
    for (i, bin) in sent.bins().iter().enumerate() {
        if in_outage(i) {
            s += bin.count;
            d += delivered.bins().get(i).map_or(0, |b| b.count);
        }
    }
    if s == 0 {
        None
    } else {
        Some(d as f64 / s as f64)
    }
}

/// Time from `fault_s` until the delivery rate first returns to
/// `frac` of its pre-fault baseline and stays there for `sustain_bins`
/// consecutive bins. Returns `None` if the rate never re-converges within
/// the series (or there is no pre-fault baseline).
pub fn time_to_reconverge(
    delivered: &TimeSeries,
    fault_s: f64,
    frac: f64,
    sustain_bins: usize,
) -> Option<f64> {
    let width = delivered.bin_width().as_secs_f64();
    let fault_bin = (fault_s / width) as usize;
    if fault_bin == 0 || delivered.bins().len() <= fault_bin {
        return None;
    }
    let baseline: f64 = delivered.bins()[..fault_bin]
        .iter()
        .map(|b| b.count as f64)
        .sum::<f64>()
        / fault_bin as f64;
    if baseline <= 0.0 {
        return None;
    }
    let target = frac * baseline;
    let bins = delivered.bins();
    let sustain = sustain_bins.max(1);
    for start in fault_bin..bins.len() {
        if start + sustain > bins.len() {
            break;
        }
        if bins[start..start + sustain]
            .iter()
            .all(|b| b.count as f64 >= target)
        {
            // A fault landing mid-bin that never dents delivery recovers
            // "immediately": clamp the bin-aligned delta at zero.
            return Some((start as f64 * width - fault_s).max(0.0));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmn_sim::SimDuration;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn repair_latency_measures_fault_to_next_delivery() {
        let mut r = RecoveryTracker::new();
        r.on_delivery(t(1.0)); // pre-fault delivery: no measurement
        assert!(r.latencies().is_empty());
        r.on_fault(t(10.0));
        r.on_fault(t(11.0)); // overlapping fault: earliest wins
        r.on_delivery(t(12.5));
        r.on_delivery(t(12.6)); // only the first post-fault delivery counts
        assert_eq!(r.latencies(), &[2.5]);
        assert_eq!(r.mean_latency_s(), Some(2.5));
    }

    fn series(counts: &[u64]) -> TimeSeries {
        let mut s = TimeSeries::new(SimDuration::from_secs(1));
        for (i, &c) in counts.iter().enumerate() {
            for _ in 0..c {
                s.mark(t(i as f64 + 0.5));
            }
        }
        s
    }

    #[test]
    fn outage_pdr_counts_only_outage_bins() {
        let sent = series(&[10, 10, 10, 10, 10]);
        let delivered = series(&[10, 10, 2, 4, 10]);
        // Outage covers bins 2 and 3: 6 of 20 delivered.
        let pdr = pdr_during_outages(&sent, &delivered, &[(2.0, 4.0)]).unwrap();
        assert!((pdr - 0.3).abs() < 1e-12, "{pdr}");
        assert_eq!(pdr_during_outages(&sent, &delivered, &[]), None);
        assert_eq!(
            pdr_during_outages(&sent, &delivered, &[(100.0, 200.0)]),
            None
        );
    }

    #[test]
    fn reconvergence_requires_sustained_recovery() {
        // Baseline 10/s for 5 s; crash at 5 s; a one-bin blip at 7 s must
        // not count as reconvergence, the sustained return at 9 s does.
        let delivered = series(&[10, 10, 10, 10, 10, 0, 0, 9, 0, 10, 10, 10]);
        let ttr = time_to_reconverge(&delivered, 5.0, 0.8, 2).unwrap();
        assert!((ttr - 4.0).abs() < 1e-12, "{ttr}");
        // Never recovers → None.
        let dead = series(&[10, 10, 0, 0, 0]);
        assert_eq!(time_to_reconverge(&dead, 2.0, 0.8, 2), None);
        // No baseline → None.
        assert_eq!(time_to_reconverge(&series(&[0, 0, 5]), 1.0, 0.8, 1), None);
    }
}
