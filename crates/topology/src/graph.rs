//! Connectivity analysis over node positions.
//!
//! Scenario generation needs to reject disconnected topologies (a partitioned
//! field makes delivery-ratio comparisons meaningless) and to draw flow
//! endpoints that can reach each other; one component labelling answers
//! both.

use crate::spatial::SpatialIndex;
use crate::vec2::Vec2;
use std::collections::VecDeque;

/// An undirected unit-disk connectivity graph, stored as compressed rows:
/// node `i`'s neighbours are `targets[offsets[i]..offsets[i + 1]]`.
#[derive(Clone, Debug)]
pub struct ConnectivityGraph {
    offsets: Vec<usize>,
    targets: Vec<u32>,
}

impl ConnectivityGraph {
    /// Build from positions: nodes within `radius` of each other are linked.
    pub fn from_positions(region: crate::region::Region, positions: &[Vec2], radius: f64) -> Self {
        let idx = SpatialIndex::new(region, radius.max(1.0), positions);
        let mut offsets = Vec::with_capacity(positions.len() + 1);
        let mut targets = Vec::new();
        let mut row = Vec::new();
        offsets.push(0);
        for (i, &p) in positions.iter().enumerate() {
            idx.query_radius(p, radius, i, &mut row);
            targets.extend_from_slice(&row);
            offsets.push(targets.len());
        }
        ConnectivityGraph { offsets, targets }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Neighbours of `node`, in ascending id order.
    pub fn neighbors(&self, node: usize) -> &[u32] {
        &self.targets[self.offsets[node]..self.offsets[node + 1]]
    }

    /// BFS hop distances from `src`; unreachable nodes get `u32::MAX`.
    pub fn bfs_hops(&self, src: usize) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.len()];
        let mut queue = VecDeque::new();
        dist[src] = 0;
        queue.push_back(src as u32);
        while let Some(u) = queue.pop_front() {
            let du = dist[u as usize];
            for &v in self.neighbors(u as usize) {
                if dist[v as usize] == u32::MAX {
                    dist[v as usize] = du + 1;
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Component labels: each node's label is the smallest node id in its
    /// connected component. One sweep over all nodes and edges.
    pub fn components(&self) -> Vec<u32> {
        let mut label = vec![u32::MAX; self.len()];
        let mut stack = Vec::new();
        for start in 0..self.len() {
            if label[start] != u32::MAX {
                continue;
            }
            // Ids are visited in ascending order, so `start` is the
            // smallest id of a component nothing has labelled yet.
            label[start] = start as u32;
            stack.push(start as u32);
            while let Some(u) = stack.pop() {
                for &v in self.neighbors(u as usize) {
                    if label[v as usize] == u32::MAX {
                        label[v as usize] = start as u32;
                        stack.push(v);
                    }
                }
            }
        }
        label
    }

    /// True when every node is in node 0's component (vacuously true for
    /// the empty graph).
    pub fn is_connected(&self) -> bool {
        self.components().iter().all(|&c| c == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::Region;

    fn line_graph(n: usize) -> ConnectivityGraph {
        // Nodes spaced 100 m apart on a line, radius 150 links only adjacent.
        let positions: Vec<Vec2> = (0..n)
            .map(|i| Vec2::new(100.0 * i as f64 + 1.0, 1.0))
            .collect();
        ConnectivityGraph::from_positions(
            Region::square(100.0 * n as f64 + 10.0),
            &positions,
            150.0,
        )
    }

    #[test]
    fn line_connectivity() {
        let g = line_graph(10);
        assert_eq!(g.len(), 10);
        assert!(g.is_connected());
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(5), &[4, 6]);
        assert_eq!(g.bfs_hops(0)[9], 9);
        assert_eq!(g.components(), vec![0; 10]);
    }

    #[test]
    fn disconnected_components() {
        let positions = vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(10.0, 0.0),
            Vec2::new(500.0, 500.0),
        ];
        let g = ConnectivityGraph::from_positions(Region::square(1000.0), &positions, 50.0);
        assert!(!g.is_connected());
        assert_eq!(g.components(), vec![0, 0, 2]);
        assert_eq!(g.bfs_hops(0)[2], u32::MAX);
    }

    #[test]
    fn bfs_distances_on_grid() {
        // 3×3 grid with pitch 100, radius 110: only orthogonal links.
        let mut positions = Vec::new();
        for r in 0..3 {
            for c in 0..3 {
                positions.push(Vec2::new(100.0 * c as f64 + 1.0, 100.0 * r as f64 + 1.0));
            }
        }
        let g = ConnectivityGraph::from_positions(Region::square(400.0), &positions, 110.0);
        let d = g.bfs_hops(0);
        assert_eq!(d[0], 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[4], 2); // centre
        assert_eq!(d[8], 4); // opposite corner
    }

    #[test]
    fn empty_graph() {
        let g = ConnectivityGraph::from_positions(Region::square(100.0), &[], 40.0);
        assert!(g.is_empty());
        assert!(g.is_connected());
        assert!(g.components().is_empty());
    }

    #[test]
    fn adjacency_is_symmetric_from_positions() {
        let positions = vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(30.0, 0.0),
            Vec2::new(60.0, 0.0),
        ];
        let g = ConnectivityGraph::from_positions(Region::square(100.0), &positions, 40.0);
        for u in 0..g.len() {
            for &v in g.neighbors(u) {
                assert!(g.neighbors(v as usize).contains(&(u as u32)));
            }
        }
    }
}
