//! A uniform-grid spatial index over node positions.
//!
//! Radio delivery is the hot loop of the simulator: every transmission must
//! find all nodes within interference range. A uniform bucket grid makes that
//! an O(occupied cells) query instead of O(N), and supports incremental
//! position updates as mobile nodes move.
//!
//! The index also counts position changes in one global
//! [`epoch`](SpatialIndex::epoch). The medium's link-budget cache takes an
//! unchanged epoch as proof that no node moved.

use crate::region::Region;
use crate::vec2::Vec2;

/// Spatial index mapping node ids (dense `usize` indices) to grid cells.
#[derive(Clone, Debug)]
pub struct SpatialIndex {
    region: Region,
    cell: f64,
    cols: usize,
    rows: usize,
    /// cell -> node ids in that cell, kept in ascending id order so query
    /// results merge sorted instead of requiring a final sort.
    buckets: Vec<Vec<u32>>,
    /// node id -> (cell, position)
    nodes: Vec<(usize, Vec2)>,
    /// Position-change counter: bumped by every [`SpatialIndex::update`]
    /// that actually moves a node. Consumers (the medium's link cache)
    /// memoize geometry-derived values keyed on this epoch — equal epochs
    /// guarantee identical positions.
    epoch: u64,
}

impl SpatialIndex {
    /// Build an index over `positions`. `cell_size` should be close to the
    /// query radius for best performance (each query then scans ≤ 9 cells
    /// plus a ring).
    pub fn new(region: Region, cell_size: f64, positions: &[Vec2]) -> Self {
        assert!(cell_size > 0.0 && cell_size.is_finite(), "bad cell size");
        let cols = (region.width / cell_size).ceil().max(1.0) as usize;
        let rows = (region.height / cell_size).ceil().max(1.0) as usize;
        let mut idx = SpatialIndex {
            region,
            cell: cell_size,
            cols,
            rows,
            buckets: vec![Vec::new(); cols * rows],
            nodes: Vec::with_capacity(positions.len()),
            epoch: 0,
        };
        for (id, &p) in positions.iter().enumerate() {
            let c = idx.cell_of(p);
            // Ids arrive in ascending order, so a plain push keeps every
            // bucket sorted.
            idx.buckets[c].push(id as u32);
            idx.nodes.push((c, p));
        }
        idx
    }

    fn cell_of(&self, p: Vec2) -> usize {
        let q = self.region.clamp(p);
        let cx = ((q.x / self.cell) as usize).min(self.cols - 1);
        let cy = ((q.y / self.cell) as usize).min(self.rows - 1);
        cy * self.cols + cx
    }

    /// Number of indexed nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes are indexed.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Current position of a node.
    pub fn position(&self, id: usize) -> Vec2 {
        self.nodes[id].1
    }

    /// The current position epoch. Bumped whenever a node actually moves;
    /// two queries at the same epoch are guaranteed to see identical
    /// positions, so geometry-derived caches may key on it.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The rectangle of cells `(min_cx, min_cy, max_cx, max_cy)` covering
    /// the disc of `radius` around `center`.
    fn rect(&self, center: Vec2, radius: f64) -> (usize, usize, usize, usize) {
        let min_cx = (((center.x - radius) / self.cell).floor().max(0.0)) as usize;
        let min_cy = (((center.y - radius) / self.cell).floor().max(0.0)) as usize;
        let max_cx = (((center.x + radius) / self.cell).floor() as usize).min(self.cols - 1);
        let max_cy = (((center.y + radius) / self.cell).floor() as usize).min(self.rows - 1);
        (min_cx, min_cy, max_cx, max_cy)
    }

    /// Move node `id` to `p`, updating buckets incrementally.
    pub fn update(&mut self, id: usize, p: Vec2) {
        let (old_cell, old_p) = self.nodes[id];
        if p == old_p {
            return; // No movement: keep the epoch (and dependent caches).
        }
        self.epoch += 1;
        let new_cell = self.cell_of(p);
        if new_cell != old_cell {
            let bucket = &mut self.buckets[old_cell];
            let pos = bucket
                .binary_search(&(id as u32))
                .expect("node missing from its bucket");
            bucket.remove(pos);
            let bucket = &mut self.buckets[new_cell];
            let pos = bucket.binary_search(&(id as u32)).unwrap_err();
            bucket.insert(pos, id as u32);
        }
        self.nodes[id] = (new_cell, p);
    }

    /// Collect all node ids strictly within `radius` of `center`, excluding
    /// `exclude` (pass `usize::MAX` to exclude none). Results are appended
    /// to `out` in ascending id order: buckets are id-ordered, so each
    /// cell contributes a sorted run and runs are merged on insertion —
    /// already-ordered candidates (the common case on id-correlated
    /// layouts like grids) take a plain append, out-of-order ones a
    /// binary-search insert — instead of sorting the whole result.
    pub fn query_radius(&self, center: Vec2, radius: f64, exclude: usize, out: &mut Vec<u32>) {
        out.clear();
        let r_sq = radius * radius;
        let (min_cx, min_cy, max_cx, max_cy) = self.rect(center, radius);
        for cy in min_cy..=max_cy {
            for cx in min_cx..=max_cx {
                for &id in &self.buckets[cy * self.cols + cx] {
                    if id as usize == exclude {
                        continue;
                    }
                    if self.nodes[id as usize].1.distance_sq(center) <= r_sq {
                        match out.last() {
                            Some(&last) if last > id => {
                                let pos = out.partition_point(|&x| x < id);
                                out.insert(pos, id);
                            }
                            _ => out.push(id),
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmn_sim::SimRng;

    fn brute_force(positions: &[Vec2], center: Vec2, radius: f64, exclude: usize) -> Vec<u32> {
        let r_sq = radius * radius;
        positions
            .iter()
            .enumerate()
            .filter(|&(i, p)| i != exclude && p.distance_sq(center) <= r_sq)
            .map(|(i, _)| i as u32)
            .collect()
    }

    #[test]
    fn matches_brute_force() {
        let region = Region::square(500.0);
        let mut rng = SimRng::new(21);
        let positions: Vec<Vec2> = (0..200)
            .map(|_| Vec2::new(rng.range_f64(0.0, 500.0), rng.range_f64(0.0, 500.0)))
            .collect();
        let idx = SpatialIndex::new(region, 60.0, &positions);
        let mut out = Vec::new();
        for i in 0..positions.len() {
            idx.query_radius(positions[i], 75.0, i, &mut out);
            assert_eq!(
                out,
                brute_force(&positions, positions[i], 75.0, i),
                "node {i}"
            );
        }
    }

    #[test]
    fn update_moves_node_between_cells() {
        let region = Region::square(100.0);
        let positions = vec![Vec2::new(5.0, 5.0), Vec2::new(95.0, 95.0)];
        let mut idx = SpatialIndex::new(region, 10.0, &positions);
        let mut out = Vec::new();
        idx.query_radius(Vec2::new(95.0, 95.0), 10.0, usize::MAX, &mut out);
        assert_eq!(out, vec![1]);
        idx.update(0, Vec2::new(92.0, 92.0));
        idx.query_radius(Vec2::new(95.0, 95.0), 10.0, usize::MAX, &mut out);
        assert_eq!(out, vec![0, 1]);
        assert_eq!(idx.position(0), Vec2::new(92.0, 92.0));
    }

    #[test]
    fn update_within_same_cell() {
        let region = Region::square(100.0);
        let positions = vec![Vec2::new(5.0, 5.0)];
        let mut idx = SpatialIndex::new(region, 50.0, &positions);
        idx.update(0, Vec2::new(6.0, 6.0));
        assert_eq!(idx.position(0), Vec2::new(6.0, 6.0));
        let mut out = Vec::new();
        idx.query_radius(Vec2::new(6.0, 6.0), 1.0, usize::MAX, &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn exclude_is_honoured() {
        let region = Region::square(10.0);
        let positions = vec![Vec2::new(5.0, 5.0), Vec2::new(5.1, 5.0)];
        let idx = SpatialIndex::new(region, 5.0, &positions);
        let mut out = Vec::new();
        idx.query_radius(positions[0], 1.0, 0, &mut out);
        assert_eq!(out, vec![1]);
        idx.query_radius(positions[1], 1.0, 1, &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn out_of_field_positions_are_clamped_into_cells() {
        let region = Region::square(10.0);
        let positions = vec![Vec2::new(-1.0, 20.0)];
        let idx = SpatialIndex::new(region, 3.0, &positions);
        assert_eq!(idx.len(), 1);
        let mut out = Vec::new();
        // Query near the clamped corner.
        idx.query_radius(Vec2::new(0.0, 10.0), 25.0, usize::MAX, &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn epoch_tracks_actual_movement() {
        let region = Region::square(100.0);
        let positions = vec![Vec2::new(5.0, 5.0), Vec2::new(95.0, 95.0)];
        let mut idx = SpatialIndex::new(region, 10.0, &positions);
        assert_eq!(idx.epoch(), 0);
        // A no-op update (same position) must not invalidate caches.
        idx.update(0, Vec2::new(5.0, 5.0));
        assert_eq!(idx.epoch(), 0);
        // Any real movement must, even within the same cell.
        idx.update(0, Vec2::new(5.5, 5.0));
        assert_eq!(idx.epoch(), 1);
        idx.update(1, Vec2::new(20.0, 20.0));
        assert_eq!(idx.epoch(), 2);
    }

    #[test]
    fn buckets_stay_sorted_under_updates() {
        let region = Region::square(300.0);
        let mut rng = SimRng::new(77);
        let positions: Vec<Vec2> = (0..60)
            .map(|_| Vec2::new(rng.range_f64(0.0, 300.0), rng.range_f64(0.0, 300.0)))
            .collect();
        let mut idx = SpatialIndex::new(region, 40.0, &positions);
        for _ in 0..500 {
            let id = rng.below_usize(60);
            let p = Vec2::new(rng.range_f64(0.0, 300.0), rng.range_f64(0.0, 300.0));
            idx.update(id, p);
        }
        for b in &idx.buckets {
            assert!(b.windows(2).all(|w| w[0] < w[1]), "bucket out of order");
        }
    }

    #[test]
    fn random_updates_keep_index_consistent() {
        let region = Region::square(300.0);
        let mut rng = SimRng::new(22);
        let mut positions: Vec<Vec2> = (0..100)
            .map(|_| Vec2::new(rng.range_f64(0.0, 300.0), rng.range_f64(0.0, 300.0)))
            .collect();
        let mut idx = SpatialIndex::new(region, 40.0, &positions);
        for _ in 0..2_000 {
            let id = rng.below_usize(100);
            let p = Vec2::new(rng.range_f64(0.0, 300.0), rng.range_f64(0.0, 300.0));
            idx.update(id, p);
            positions[id] = p;
        }
        let mut out = Vec::new();
        for i in 0..100 {
            idx.query_radius(positions[i], 50.0, i, &mut out);
            assert_eq!(out, brute_force(&positions, positions[i], 50.0, i));
        }
    }
}
