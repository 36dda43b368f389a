//! Confidence intervals over replicated runs.

use crate::welford::Welford;

/// Two-sided Student-t critical values at 95 % confidence, indexed by
/// degrees of freedom (1-based). Beyond the table the normal quantile is
/// used.
const T_95: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

/// 95 % t critical value for `df` degrees of freedom.
pub fn t_critical_95(df: u64) -> f64 {
    if df == 0 {
        f64::INFINITY
    } else if df <= 30 {
        T_95[(df - 1) as usize]
    } else {
        1.960
    }
}

/// A mean with its 95 % confidence half-width.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MeanCi {
    /// Point estimate.
    pub mean: f64,
    /// Half-width of the 95 % interval (0 for < 2 samples with zero var).
    pub half_width: f64,
    /// Replications.
    pub n: u64,
}

impl MeanCi {
    /// Compute from an accumulator of per-replication values.
    pub fn from_welford(w: &Welford) -> Self {
        let hw = if w.count() < 2 {
            0.0
        } else {
            t_critical_95(w.count() - 1) * w.std_err()
        };
        MeanCi {
            mean: w.mean(),
            half_width: hw,
            n: w.count(),
        }
    }

    /// Compute directly from samples.
    pub fn from_samples(xs: &[f64]) -> Self {
        let mut w = Welford::new();
        for &x in xs {
            w.add(x);
        }
        MeanCi::from_welford(&w)
    }

    /// `mean ± hw` as a display string with the given precision.
    pub fn display(&self, precision: usize) -> String {
        format!("{:.p$} ±{:.p$}", self.mean, self.half_width, p = precision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t_table_entries() {
        assert!((t_critical_95(1) - 12.706).abs() < 1e-9);
        assert!((t_critical_95(9) - 2.262).abs() < 1e-9);
        assert!((t_critical_95(30) - 2.042).abs() < 1e-9);
        assert!((t_critical_95(1000) - 1.960).abs() < 1e-9);
        assert!(t_critical_95(0).is_infinite());
    }

    #[test]
    fn ci_from_known_samples() {
        // 10 samples, mean 5, sd ≈ 1: hw = 2.262 · 1/√10.
        let xs: Vec<f64> = vec![4.0, 5.0, 6.0, 5.0, 4.5, 5.5, 5.0, 4.0, 6.0, 5.0];
        let ci = MeanCi::from_samples(&xs);
        assert!((ci.mean - 5.0).abs() < 1e-12);
        assert!(
            ci.half_width > 0.3 && ci.half_width < 0.8,
            "hw {}",
            ci.half_width
        );
        assert_eq!(ci.n, 10);
    }

    #[test]
    fn single_sample_has_zero_hw() {
        let ci = MeanCi::from_samples(&[3.0]);
        assert_eq!(ci.half_width, 0.0);
        assert_eq!(ci.mean, 3.0);
    }

    #[test]
    fn display_format() {
        let ci = MeanCi {
            mean: 0.91234,
            half_width: 0.0123,
            n: 10,
        };
        assert_eq!(ci.display(2), "0.91 ±0.01");
    }
}
