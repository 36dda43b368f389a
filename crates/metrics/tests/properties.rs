//! Property-based tests of the statistics substrate.

use proptest::prelude::*;
use wmn_metrics::{jain_index, MeanCi, Welford};

proptest! {
    /// Welford matches the naive two-pass mean/variance.
    #[test]
    fn welford_matches_naive(xs in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut w = Welford::new();
        for &x in &xs {
            w.add(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        prop_assert!((w.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        if xs.len() > 1 {
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
            prop_assert!((w.variance() - var).abs() <= 1e-4 * (1.0 + var));
        }
        prop_assert_eq!(w.min(), xs.iter().cloned().fold(f64::INFINITY, f64::min));
        prop_assert_eq!(w.max(), xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max));
    }

    /// Merging split halves equals one pass.
    #[test]
    fn welford_merge_associative(xs in prop::collection::vec(-1e3f64..1e3, 2..100), split in 1usize..99) {
        let split = split.min(xs.len() - 1);
        let mut whole = Welford::new();
        for &x in &xs { whole.add(x); }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..split] { a.add(x); }
        for &x in &xs[split..] { b.add(x); }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() < 1e-9 * (1.0 + whole.mean().abs()));
        prop_assert!((a.variance() - whole.variance()).abs() < 1e-7 * (1.0 + whole.variance()));
    }

    /// Jain's index lies in [1/n, 1] and is scale invariant.
    #[test]
    fn jain_bounds(xs in prop::collection::vec(0.0f64..1e6, 1..100), k in 0.001f64..1000.0) {
        let j = jain_index(&xs);
        prop_assert!(j <= 1.0 + 1e-12);
        prop_assert!(j >= 1.0 / xs.len() as f64 - 1e-12);
        let scaled: Vec<f64> = xs.iter().map(|x| x * k).collect();
        prop_assert!((jain_index(&scaled) - j).abs() < 1e-9);
    }

    /// Confidence intervals shrink (weakly) with more identical batches.
    #[test]
    fn ci_halfwidth_nonnegative(xs in prop::collection::vec(-1e3f64..1e3, 1..50)) {
        let ci = MeanCi::from_samples(&xs);
        prop_assert!(ci.half_width >= 0.0);
        prop_assert_eq!(ci.n, xs.len() as u64);
    }
}
