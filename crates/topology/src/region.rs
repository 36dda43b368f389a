//! The rectangular deployment field.

use crate::vec2::Vec2;

/// An axis-aligned rectangle `[0, width] × [0, height]` anchored at the
/// origin — the deployment field of a scenario.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Region {
    /// Field width, metres.
    pub width: f64,
    /// Field height, metres.
    pub height: f64,
}

impl Region {
    /// Construct a field; both dimensions must be positive and finite.
    pub fn new(width: f64, height: f64) -> Self {
        assert!(width > 0.0 && width.is_finite(), "bad width {width}");
        assert!(height > 0.0 && height.is_finite(), "bad height {height}");
        Region { width, height }
    }

    /// A square field.
    pub fn square(side: f64) -> Self {
        Region::new(side, side)
    }

    /// The centre point.
    pub fn center(self) -> Vec2 {
        Vec2::new(self.width / 2.0, self.height / 2.0)
    }

    /// True when `p` lies inside (boundary inclusive).
    pub fn contains(self, p: Vec2) -> bool {
        (0.0..=self.width).contains(&p.x) && (0.0..=self.height).contains(&p.y)
    }

    /// Clamp `p` onto the field.
    pub fn clamp(self, p: Vec2) -> Vec2 {
        Vec2::new(p.x.clamp(0.0, self.width), p.y.clamp(0.0, self.height))
    }

    /// Reflect `p` back into the field (billiard bounce), returning the
    /// reflected point and the sign flips to apply to a velocity vector.
    ///
    /// Used by mobility models whose unconstrained step would leave the
    /// field. Handles displacements up to one field-size beyond a border,
    /// which bounds every per-step update we generate.
    pub fn reflect(self, p: Vec2) -> (Vec2, Vec2) {
        let mut q = p;
        let mut flip = Vec2::new(1.0, 1.0);
        if q.x < 0.0 {
            q.x = -q.x;
            flip.x = -1.0;
        } else if q.x > self.width {
            q.x = 2.0 * self.width - q.x;
            flip.x = -1.0;
        }
        if q.y < 0.0 {
            q.y = -q.y;
            flip.y = -1.0;
        } else if q.y > self.height {
            q.y = 2.0 * self.height - q.y;
            flip.y = -1.0;
        }
        (self.clamp(q), flip)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_properties() {
        let r = Region::new(100.0, 50.0);
        assert_eq!(r.center(), Vec2::new(50.0, 25.0));
        assert!(r.contains(Vec2::new(0.0, 0.0)));
        assert!(r.contains(Vec2::new(100.0, 50.0)));
        assert!(!r.contains(Vec2::new(100.1, 0.0)));
        assert!(!r.contains(Vec2::new(0.0, -0.1)));
    }

    #[test]
    fn square_constructor() {
        let r = Region::square(10.0);
        assert_eq!(r.width, 10.0);
        assert_eq!(r.height, 10.0);
    }

    #[test]
    #[should_panic(expected = "bad width")]
    fn zero_width_panics() {
        Region::new(0.0, 1.0);
    }

    #[test]
    fn clamp_pulls_inside() {
        let r = Region::square(10.0);
        assert_eq!(r.clamp(Vec2::new(-5.0, 15.0)), Vec2::new(0.0, 10.0));
        assert_eq!(r.clamp(Vec2::new(5.0, 5.0)), Vec2::new(5.0, 5.0));
    }

    #[test]
    fn reflect_bounces() {
        let r = Region::square(10.0);
        let (p, flip) = r.reflect(Vec2::new(-2.0, 5.0));
        assert_eq!(p, Vec2::new(2.0, 5.0));
        assert_eq!(flip, Vec2::new(-1.0, 1.0));

        let (p, flip) = r.reflect(Vec2::new(11.0, 12.0));
        assert_eq!(p, Vec2::new(9.0, 8.0));
        assert_eq!(flip, Vec2::new(-1.0, -1.0));

        let (p, flip) = r.reflect(Vec2::new(3.0, 3.0));
        assert_eq!(p, Vec2::new(3.0, 3.0));
        assert_eq!(flip, Vec2::new(1.0, 1.0));
    }
}
