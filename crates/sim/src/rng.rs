//! Deterministic pseudo-random number generation.
//!
//! The simulator carries its own small PRNG rather than depending on an
//! external crate so that (a) every published figure is exactly re-runnable
//! from a seed, independent of upstream library changes, and (b) each node
//! and protocol layer can own an independent *stream* derived from the master
//! seed, making results insensitive to incidental changes in event ordering.
//!
//! The generator is xoshiro256++ seeded through SplitMix64 — the combination
//! recommended by the xoshiro authors. Both algorithms are public domain.

/// SplitMix64: used for seeding and for deriving independent stream seeds.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a new SplitMix64 from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

/// The simulator RNG: xoshiro256++ with convenience samplers for the
/// distributions the network stack needs.
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
    /// Cached second normal variate from the last Box–Muller draw.
    cached_normal: Option<f64>,
}

impl SimRng {
    /// Seed the generator. Any seed (including 0) yields a valid state.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        SimRng {
            s,
            cached_normal: None,
        }
    }

    /// Derive an independent stream keyed by `(domain, index)`.
    ///
    /// Streams derived from the same master seed with different keys are
    /// statistically independent; the same key always yields the same stream.
    pub fn derive(master_seed: u64, domain: u64, index: u64) -> Self {
        // Mix the three values through SplitMix64 twice so that related keys
        // (e.g. consecutive node indices) land far apart in seed space.
        let mut sm = SplitMix64::new(master_seed ^ domain.rotate_left(17));
        let a = sm.next_u64();
        let mut sm2 = SplitMix64::new(a ^ index.wrapping_mul(0xD1342543DE82EF95));
        SimRng::new(sm2.next_u64())
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[lo, hi)`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi, "empty range [{lo}, {hi})");
        lo + (hi - lo) * self.f64()
    }

    /// Uniform integer in `[0, n)` via Lemire's unbiased multiply-shift.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "below(0)");
        // Rejection loop guaranteeing exact uniformity.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` in `[0, n)`.
    #[inline]
    pub fn below_usize(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            true
        } else if p <= 0.0 {
            false
        } else {
            self.f64() < p
        }
    }

    /// Exponentially distributed value with the given mean (`mean > 0`).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        // f64() is in [0,1); use 1-u in (0,1] so ln never sees zero.
        -mean * (1.0 - self.f64()).ln()
    }

    /// Standard normal via Box–Muller (cached pair).
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.cached_normal.take() {
            return z;
        }
        let u1 = 1.0 - self.f64(); // (0, 1]
        let u2 = self.f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.cached_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }

    /// Poisson-distributed count with the given mean (Knuth's method for
    /// small means, normal approximation above 64 where Knuth's loop would
    /// be slow and the approximation error is negligible).
    pub fn poisson(&mut self, mean: f64) -> u64 {
        debug_assert!(mean >= 0.0);
        if mean <= 0.0 {
            return 0;
        }
        if mean > 64.0 {
            let v = self.normal(mean, mean.sqrt()).round();
            return if v < 0.0 { 0 } else { v as u64 };
        }
        let limit = (-mean).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.f64();
            if p <= limit {
                return k;
            }
            k += 1;
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below_usize(i + 1);
            items.swap(i, j);
        }
    }

    /// Pick a uniformly random element, or `None` if the slice is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.below_usize(items.len())])
        }
    }

    /// Snapshot the complete generator state for checkpointing: the four
    /// xoshiro words plus the cached Box–Muller variate as raw IEEE-754 bits
    /// (raw bits so a restore reproduces the stream exactly, with no decimal
    /// round-trip).
    pub fn save_state(&self) -> ([u64; 4], Option<u64>) {
        (self.s, self.cached_normal.map(f64::to_bits))
    }

    /// Restore a state captured by [`SimRng::save_state`].
    pub fn restore_state(&mut self, s: [u64; 4], cached_normal_bits: Option<u64>) {
        self.s = s;
        self.cached_normal = cached_normal_bits.map(f64::from_bits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn derive_is_deterministic_and_keyed() {
        let mut a = SimRng::derive(7, 1, 3);
        let mut b = SimRng::derive(7, 1, 3);
        let mut c = SimRng::derive(7, 1, 4);
        let mut d = SimRng::derive(7, 2, 3);
        assert_eq!(a.next_u64(), b.next_u64());
        let x = a.next_u64();
        assert_ne!(x, c.next_u64());
        assert_ne!(x, d.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(9);
        for _ in 0..10_000 {
            let v = r.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut r = SimRng::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = SimRng::new(3);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v = r.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(5);
        assert!(r.chance(1.0));
        assert!(r.chance(2.0));
        assert!(!r.chance(0.0));
        assert!(!r.chance(-1.0));
    }

    #[test]
    fn chance_probability_is_respected() {
        let mut r = SimRng::new(6);
        let hits = (0..100_000).filter(|_| r.chance(0.3)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.3).abs() < 0.01, "frac {frac}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = SimRng::new(8);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut r = SimRng::new(10);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(5.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn poisson_mean_small_and_large() {
        let mut r = SimRng::new(12);
        for lambda in [0.5, 4.0, 100.0] {
            let n = 50_000;
            let mean: f64 = (0..n).map(|_| r.poisson(lambda) as f64).sum::<f64>() / n as f64;
            assert!(
                (mean - lambda).abs() < lambda.max(1.0) * 0.05,
                "lambda {lambda} mean {mean}"
            );
        }
        assert_eq!(r.poisson(0.0), 0);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(13);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn save_restore_resumes_stream_exactly() {
        let mut a = SimRng::new(21);
        // Burn some state, including a half-consumed Box–Muller pair so the
        // cached variate is live at snapshot time.
        for _ in 0..17 {
            a.next_u64();
        }
        let _ = a.standard_normal();
        let (s, cached) = a.save_state();
        assert!(cached.is_some(), "cached normal should be pending");
        let mut b = SimRng::new(0);
        b.restore_state(s, cached);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_eq!(a.standard_normal().to_bits(), b.standard_normal().to_bits());
    }

    #[test]
    fn choose_empty_and_nonempty() {
        let mut r = SimRng::new(14);
        let empty: [u8; 0] = [];
        assert!(r.choose(&empty).is_none());
        let items = [1, 2, 3];
        assert!(items.contains(r.choose(&items).unwrap()));
    }
}
