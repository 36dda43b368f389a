//! Time-binned event counts — rates as a function of simulation time.
//!
//! Used for convergence/transient views: deliveries per second, sends per
//! second. Events are counted into fixed-width bins starting at t = 0.

use wmn_sim::{SimDuration, SimTime};

/// A fixed-bin event-count series starting at t = 0.
#[derive(Clone, Debug)]
pub struct TimeSeries {
    width: SimDuration,
    bins: Vec<u64>,
}

impl TimeSeries {
    /// Create a series with the given bin width.
    pub fn new(bin_width: SimDuration) -> Self {
        assert!(!bin_width.is_zero(), "zero bin width");
        TimeSeries {
            width: bin_width,
            bins: Vec::new(),
        }
    }

    /// Count one event at `t`.
    pub fn mark(&mut self, t: SimTime) {
        let i = (t.as_nanos() / self.width.as_nanos()) as usize;
        if i >= self.bins.len() {
            self.bins.resize(i + 1, 0);
        }
        self.bins[i] += 1;
    }

    /// Bin width.
    pub fn bin_width(&self) -> SimDuration {
        self.width
    }

    /// Event count per bin (trailing empty bins up to the last marked one
    /// included).
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// `(bin_start_time, events_per_second)` pairs.
    pub fn rates(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        let secs = self.width.as_secs_f64();
        self.bins
            .iter()
            .enumerate()
            .map(move |(i, &n)| (SimTime(self.width.as_nanos() * i as u64), n as f64 / secs))
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// True when nothing was marked.
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn binning_counts() {
        let mut s = TimeSeries::new(SimDuration::from_secs(1));
        s.mark(t(100));
        s.mark(t(900));
        s.mark(t(1_500));
        s.mark(t(3_100));
        assert_eq!(s.bins(), &[2, 1, 0, 1]); // empty gap bin kept
    }

    #[test]
    fn rates() {
        let mut s = TimeSeries::new(SimDuration::from_millis(500));
        for i in 0..10 {
            s.mark(t(i * 100)); // 10 events in the first second
        }
        let rates: Vec<f64> = s.rates().map(|(_, r)| r).collect();
        assert_eq!(rates.len(), 2);
        assert!((rates[0] - 10.0).abs() < 1e-12); // 5 events / 0.5 s
        assert!((rates[1] - 10.0).abs() < 1e-12);
    }

    #[test]
    fn empty_series() {
        let s = TimeSeries::new(SimDuration::from_secs(1));
        assert!(s.is_empty());
        assert_eq!(s.rates().count(), 0);
    }

    #[test]
    fn boundary_lands_in_upper_bin() {
        let mut s = TimeSeries::new(SimDuration::from_secs(1));
        s.mark(t(1_000));
        assert_eq!(s.bins(), &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "zero bin width")]
    fn zero_width_rejected() {
        TimeSeries::new(SimDuration::ZERO);
    }
}
