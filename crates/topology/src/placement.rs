//! Node placement generators.
//!
//! Wireless-mesh evaluations of the CNLR era use two canonical layouts:
//! a regular (or lightly perturbed) grid of static mesh routers, and a
//! uniform random scatter for ad-hoc comparisons. Protocol tests that need
//! an exact topology list their positions by hand.

use crate::region::Region;
use crate::vec2::Vec2;
use wmn_sim::SimRng;

/// A placement strategy.
#[derive(Clone, Debug, PartialEq)]
pub enum Placement {
    /// A `rows × cols` grid centred in the field. If `jitter_frac > 0`,
    /// each node is displaced uniformly by up to `jitter_frac` of the cell
    /// pitch in each axis (a "perturbed grid", the standard WMN backbone
    /// layout).
    Grid {
        /// Number of grid rows.
        rows: usize,
        /// Number of grid columns.
        cols: usize,
        /// Relative jitter, `0.0..=0.5` of the cell pitch.
        jitter_frac: f64,
    },
    /// `count` nodes placed independently and uniformly at random.
    UniformRandom {
        /// Number of nodes.
        count: usize,
    },
    /// Hand-authored positions, used verbatim (no RNG draw). The canonical
    /// choice for protocol tests that need an exact topology — e.g. a chain
    /// with a known detour for fault-recovery scenarios.
    Explicit(Vec<Vec2>),
}

impl Placement {
    /// The number of nodes this placement produces.
    pub fn count(&self) -> usize {
        match *self {
            Placement::Grid { rows, cols, .. } => rows * cols,
            Placement::UniformRandom { count } => count,
            Placement::Explicit(ref pts) => pts.len(),
        }
    }

    /// Generate node positions inside `region` using `rng`.
    pub fn generate(&self, region: Region, rng: &mut SimRng) -> Vec<Vec2> {
        match *self {
            Placement::Grid {
                rows,
                cols,
                jitter_frac,
            } => grid(region, rows, cols, jitter_frac, rng),
            Placement::UniformRandom { count } => uniform(region, count, rng),
            Placement::Explicit(ref pts) => pts.clone(),
        }
    }
}

fn grid(region: Region, rows: usize, cols: usize, jitter_frac: f64, rng: &mut SimRng) -> Vec<Vec2> {
    assert!(rows > 0 && cols > 0, "empty grid");
    assert!(
        (0.0..=0.5).contains(&jitter_frac),
        "jitter_frac out of range"
    );
    let pitch_x = region.width / cols as f64;
    let pitch_y = region.height / rows as f64;
    let mut out = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let base = Vec2::new((c as f64 + 0.5) * pitch_x, (r as f64 + 0.5) * pitch_y);
            let p = if jitter_frac > 0.0 {
                let jx = rng.range_f64(-jitter_frac, jitter_frac) * pitch_x;
                let jy = rng.range_f64(-jitter_frac, jitter_frac) * pitch_y;
                region.clamp(base + Vec2::new(jx, jy))
            } else {
                base
            };
            out.push(p);
        }
    }
    out
}

fn uniform(region: Region, count: usize, rng: &mut SimRng) -> Vec<Vec2> {
    (0..count)
        .map(|_| {
            Vec2::new(
                rng.range_f64(0.0, region.width),
                rng.range_f64(0.0, region.height),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region() -> Region {
        Region::square(1000.0)
    }

    #[test]
    fn grid_count_and_bounds() {
        let mut rng = SimRng::new(1);
        let p = Placement::Grid {
            rows: 5,
            cols: 4,
            jitter_frac: 0.0,
        };
        assert_eq!(p.count(), 20);
        let pts = p.generate(region(), &mut rng);
        assert_eq!(pts.len(), 20);
        assert!(pts.iter().all(|&p| region().contains(p)));
        // Unjittered grid spacing: first two points are one x-pitch apart.
        assert!((pts[1].x - pts[0].x - 250.0).abs() < 1e-9);
        assert_eq!(pts[0].y, pts[1].y);
    }

    #[test]
    fn grid_jitter_stays_in_field_and_perturbs() {
        let mut rng = SimRng::new(2);
        let plain = Placement::Grid {
            rows: 7,
            cols: 7,
            jitter_frac: 0.0,
        }
        .generate(region(), &mut rng);
        let jit = Placement::Grid {
            rows: 7,
            cols: 7,
            jitter_frac: 0.3,
        }
        .generate(region(), &mut rng);
        assert!(jit.iter().all(|&p| region().contains(p)));
        let moved = plain
            .iter()
            .zip(&jit)
            .filter(|(a, b)| a.distance(**b) > 1e-9)
            .count();
        assert!(moved > 40, "jitter moved only {moved} nodes");
    }

    #[test]
    fn uniform_statistics() {
        let mut rng = SimRng::new(3);
        let pts = Placement::UniformRandom { count: 10_000 }.generate(region(), &mut rng);
        assert!(pts.iter().all(|&p| region().contains(p)));
        let mean_x = pts.iter().map(|p| p.x).sum::<f64>() / pts.len() as f64;
        let mean_y = pts.iter().map(|p| p.y).sum::<f64>() / pts.len() as f64;
        assert!((mean_x - 500.0).abs() < 15.0, "mean_x {mean_x}");
        assert!((mean_y - 500.0).abs() < 15.0, "mean_y {mean_y}");
    }

    #[test]
    fn explicit_positions_are_used_verbatim() {
        let pts = vec![Vec2::new(1.0, 2.0), Vec2::new(3.0, 4.0)];
        let p = Placement::Explicit(pts.clone());
        assert_eq!(p.count(), 2);
        assert_eq!(p.generate(region(), &mut SimRng::new(1)), pts);
    }

    #[test]
    fn deterministic_given_seed() {
        let p = Placement::UniformRandom { count: 32 };
        let a = p.generate(region(), &mut SimRng::new(9));
        let b = p.generate(region(), &mut SimRng::new(9));
        assert_eq!(a, b);
    }
}
