//! Propagation path-loss models.
//!
//! All three ns-2 classics are provided. Loss is expressed in dB so that
//! received power is `tx_dbm + gains_db − loss_db(d)`.

use wmn_sim::SplitMix64;

/// Speed of light, m/s.
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// A distance → loss(dB) model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PathLoss {
    /// Free-space (Friis) propagation at the given carrier frequency.
    FreeSpace {
        /// Carrier frequency, Hz.
        frequency_hz: f64,
    },
    /// Two-ray ground reflection: Friis up to the crossover distance
    /// `d_c = 4π·h_t·h_r / λ`, then fourth-power falloff — the ns-2 default
    /// for 802.11 evaluations of this era.
    TwoRayGround {
        /// Carrier frequency, Hz.
        frequency_hz: f64,
        /// Transmitter antenna height, m.
        tx_height_m: f64,
        /// Receiver antenna height, m.
        rx_height_m: f64,
    },
    /// Log-distance: `L(d) = L(d0) + 10·n·log10(d/d0)` with free-space loss
    /// at the reference distance. `sigma_db > 0` adds deterministic
    /// per-link log-normal shadowing (seeded, symmetric in the link
    /// endpoints).
    LogDistance {
        /// Carrier frequency, Hz.
        frequency_hz: f64,
        /// Path-loss exponent (2 = free space, 2.7–4 urban).
        exponent: f64,
        /// Reference distance d₀, m.
        reference_m: f64,
        /// Log-normal shadowing standard deviation, dB (0 = disabled).
        sigma_db: f64,
    },
}

impl PathLoss {
    /// The standard 2.4 GHz two-ray-ground model with 1.5 m antennas
    /// (ns-2 defaults).
    pub fn default_two_ray() -> Self {
        PathLoss::TwoRayGround {
            frequency_hz: 2.4e9,
            tx_height_m: 1.5,
            rx_height_m: 1.5,
        }
    }

    /// Carrier wavelength for this model, m.
    pub fn wavelength(&self) -> f64 {
        let f = match *self {
            PathLoss::FreeSpace { frequency_hz } => frequency_hz,
            PathLoss::TwoRayGround { frequency_hz, .. } => frequency_hz,
            PathLoss::LogDistance { frequency_hz, .. } => frequency_hz,
        };
        SPEED_OF_LIGHT / f
    }

    /// Path loss in dB at distance `d` metres (deterministic component; use
    /// [`PathLoss::loss_db_link`] to include per-link shadowing).
    ///
    /// Distances below 1 m are clamped to 1 m — the near-field singularity
    /// of the analytic models is not meaningful there.
    pub fn loss_db(&self, d: f64) -> f64 {
        let d = d.max(1.0);
        let lambda = self.wavelength();
        let friis = |d: f64| 20.0 * (4.0 * std::f64::consts::PI * d / lambda).log10();
        match *self {
            PathLoss::FreeSpace { .. } => friis(d),
            PathLoss::TwoRayGround {
                tx_height_m,
                rx_height_m,
                ..
            } => {
                let crossover = 4.0 * std::f64::consts::PI * tx_height_m * rx_height_m / lambda;
                if d <= crossover {
                    friis(d)
                } else {
                    // Pr = Pt · (ht·hr)² / d⁴  →  loss = 40·log10(d) − 20·log10(ht·hr)
                    40.0 * d.log10() - 20.0 * (tx_height_m * rx_height_m).log10()
                }
            }
            PathLoss::LogDistance {
                exponent,
                reference_m,
                ..
            } => {
                let d0 = reference_m.max(1.0);
                friis(d0) + 10.0 * exponent * (d / d0).max(1.0).log10()
            }
        }
    }

    /// Path loss including the deterministic per-link shadowing term.
    ///
    /// Shadowing is a function of `(shadow_seed, min(a,b), max(a,b))` so it is
    /// symmetric, constant over a run, and reproducible across runs with the
    /// same seed — the standard treatment for static mesh topologies.
    pub fn loss_db_link(&self, d: f64, shadow_seed: u64, a: u32, b: u32) -> f64 {
        let base = self.loss_db(d);
        match *self {
            PathLoss::LogDistance { sigma_db, .. } if sigma_db > 0.0 => {
                base + sigma_db * link_standard_normal(shadow_seed, a, b)
            }
            _ => base,
        }
    }

    /// The distance at which the loss equals `loss_db` (inverse of
    /// [`PathLoss::loss_db`], ignoring shadowing), found by bisection.
    /// Useful for calibrating carrier-sense/receive thresholds to a nominal
    /// range.
    pub fn range_for_loss(&self, loss_db: f64) -> f64 {
        let (mut lo, mut hi) = (1.0, 100_000.0);
        if self.loss_db(lo) >= loss_db {
            return lo;
        }
        if self.loss_db(hi) <= loss_db {
            return hi;
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            // `lo` and `hi` are adjacent floats: every further step would
            // keep the midpoint at `mid`, so it is the answer.
            if mid == lo || mid == hi {
                return mid;
            }
            if self.loss_db(mid) < loss_db {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }
}

/// Deterministic standard-normal variate for an unordered link `(a, b)`.
fn link_standard_normal(seed: u64, a: u32, b: u32) -> f64 {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    let mut sm = SplitMix64::new(seed ^ ((lo as u64) << 32 | hi as u64));
    // Box–Muller on two hash outputs.
    let u1 = ((sm.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64; // (0, 1]
    let u2 = (sm.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_space_matches_friis_formula() {
        let m = PathLoss::FreeSpace {
            frequency_hz: 2.4e9,
        };
        // FSPL(2.4 GHz, 100 m) = 20 log10(d) + 20 log10(f) − 147.55 ≈ 80.05 dB
        let loss = m.loss_db(100.0);
        assert!((loss - 80.05).abs() < 0.1, "loss {loss}");
    }

    #[test]
    fn loss_is_monotonic_in_distance() {
        for m in [
            PathLoss::FreeSpace {
                frequency_hz: 2.4e9,
            },
            PathLoss::default_two_ray(),
            PathLoss::LogDistance {
                frequency_hz: 2.4e9,
                exponent: 3.0,
                reference_m: 1.0,
                sigma_db: 0.0,
            },
        ] {
            let mut last = -1.0;
            for i in 1..200 {
                let loss = m.loss_db(i as f64 * 10.0);
                assert!(loss >= last, "{m:?} at {}", i * 10);
                last = loss;
            }
        }
    }

    #[test]
    fn two_ray_continuous_at_crossover_and_steeper_beyond() {
        let m = PathLoss::default_two_ray();
        let lambda = m.wavelength();
        let crossover = 4.0 * std::f64::consts::PI * 1.5 * 1.5 / lambda;
        let just_before = m.loss_db(crossover * 0.999);
        let just_after = m.loss_db(crossover * 1.001);
        assert!(
            (just_before - just_after).abs() < 0.5,
            "{just_before} vs {just_after}"
        );
        // Beyond crossover, doubling distance costs ~12 dB (d⁴ law).
        let l1 = m.loss_db(crossover * 2.0);
        let l2 = m.loss_db(crossover * 4.0);
        assert!((l2 - l1 - 12.04).abs() < 0.1, "delta {}", l2 - l1);
    }

    #[test]
    fn log_distance_exponent_slope() {
        let m = PathLoss::LogDistance {
            frequency_hz: 2.4e9,
            exponent: 3.5,
            reference_m: 1.0,
            sigma_db: 0.0,
        };
        let l1 = m.loss_db(10.0);
        let l2 = m.loss_db(100.0);
        // One decade of distance = 10·n dB.
        assert!((l2 - l1 - 35.0).abs() < 1e-9);
    }

    #[test]
    fn near_field_clamped() {
        let m = PathLoss::FreeSpace {
            frequency_hz: 2.4e9,
        };
        assert_eq!(m.loss_db(0.0), m.loss_db(1.0));
        assert_eq!(m.loss_db(0.5), m.loss_db(1.0));
    }

    #[test]
    fn range_for_loss_inverts() {
        let m = PathLoss::default_two_ray();
        for d in [50.0, 250.0, 550.0, 1000.0] {
            let loss = m.loss_db(d);
            let back = m.range_for_loss(loss);
            assert!((back - d).abs() / d < 1e-3, "{d} -> {back}");
        }
    }

    /// Reference: the same bisection without the early exit, all 200
    /// steps.
    fn range_for_loss_200_steps(m: &PathLoss, loss_db: f64) -> f64 {
        let (mut lo, mut hi) = (1.0, 100_000.0);
        if m.loss_db(lo) >= loss_db {
            return lo;
        }
        if m.loss_db(hi) <= loss_db {
            return hi;
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if m.loss_db(mid) < loss_db {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    #[test]
    fn range_for_loss_early_exit_is_bit_exact() {
        let mut sm = SplitMix64::new(0x5EED);
        for m in [
            PathLoss::FreeSpace {
                frequency_hz: 2.4e9,
            },
            PathLoss::default_two_ray(),
            PathLoss::LogDistance {
                frequency_hz: 5.8e9,
                exponent: 3.3,
                reference_m: 10.0,
                sigma_db: 6.0,
            },
        ] {
            // Targets from below the 1 m loss to above the 100 km loss,
            // so both clamps are hit too.
            let (lo, hi) = (m.loss_db(1.0) - 5.0, m.loss_db(100_000.0) + 5.0);
            for _ in 0..100_000 {
                let u = (sm.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                let target = lo + u * (hi - lo);
                assert_eq!(
                    m.range_for_loss(target).to_bits(),
                    range_for_loss_200_steps(&m, target).to_bits(),
                    "{m:?} at {target} dB"
                );
            }
        }
    }

    #[test]
    fn shadowing_is_symmetric_and_deterministic() {
        let m = PathLoss::LogDistance {
            frequency_hz: 2.4e9,
            exponent: 3.0,
            reference_m: 1.0,
            sigma_db: 6.0,
        };
        let ab = m.loss_db_link(100.0, 42, 3, 9);
        let ba = m.loss_db_link(100.0, 42, 9, 3);
        assert_eq!(ab, ba);
        assert_eq!(ab, m.loss_db_link(100.0, 42, 3, 9));
        let other_seed = m.loss_db_link(100.0, 43, 3, 9);
        assert_ne!(ab, other_seed);
    }

    #[test]
    fn shadowing_statistics() {
        let m = PathLoss::LogDistance {
            frequency_hz: 2.4e9,
            exponent: 3.0,
            reference_m: 1.0,
            sigma_db: 8.0,
        };
        let base = m.loss_db(100.0);
        let n = 20_000u32;
        let samples: Vec<f64> = (0..n)
            .map(|i| m.loss_db_link(100.0, 7, i, i + 1) - base)
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.2, "mean {mean}");
        assert!((var.sqrt() - 8.0).abs() < 0.2, "std {}", var.sqrt());
    }

    #[test]
    fn no_shadowing_without_sigma() {
        let m = PathLoss::default_two_ray();
        assert_eq!(m.loss_db_link(100.0, 1, 2, 3), m.loss_db(100.0));
    }
}
