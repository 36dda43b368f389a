//! Connectivity analysis over node positions.
//!
//! Scenario generation needs to reject disconnected topologies (a partitioned
//! field makes delivery-ratio comparisons meaningless).

use crate::spatial::SpatialIndex;
use crate::vec2::Vec2;
use std::collections::VecDeque;

/// An undirected unit-disk connectivity graph (adjacency by index).
#[derive(Clone, Debug)]
pub struct ConnectivityGraph {
    adj: Vec<Vec<u32>>,
}

impl ConnectivityGraph {
    /// Build from positions: nodes within `radius` of each other are linked.
    pub fn from_positions(region: crate::region::Region, positions: &[Vec2], radius: f64) -> Self {
        let idx = SpatialIndex::new(region, radius.max(1.0), positions);
        let adj = (0..positions.len())
            .map(|i| idx.neighbors_of(i, radius))
            .collect();
        ConnectivityGraph { adj }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Neighbours of `node`.
    pub fn neighbors(&self, node: usize) -> &[u32] {
        &self.adj[node]
    }

    /// BFS hop distances from `src`; unreachable nodes get `u32::MAX`.
    pub fn bfs_hops(&self, src: usize) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.adj.len()];
        let mut queue = VecDeque::new();
        dist[src] = 0;
        queue.push_back(src as u32);
        while let Some(u) = queue.pop_front() {
            let du = dist[u as usize];
            for &v in &self.adj[u as usize] {
                if dist[v as usize] == u32::MAX {
                    dist[v as usize] = du + 1;
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// True when every node is reachable from node 0 (vacuously true for the
    /// empty graph).
    pub fn is_connected(&self) -> bool {
        if self.adj.is_empty() {
            return true;
        }
        self.bfs_hops(0).iter().all(|&d| d != u32::MAX)
    }

    /// Sizes of all connected components, largest first.
    pub fn component_sizes(&self) -> Vec<usize> {
        let n = self.adj.len();
        let mut comp = vec![usize::MAX; n];
        let mut sizes = Vec::new();
        for start in 0..n {
            if comp[start] != usize::MAX {
                continue;
            }
            let c = sizes.len();
            let mut size = 0usize;
            let mut queue = VecDeque::new();
            comp[start] = c;
            queue.push_back(start as u32);
            while let Some(u) = queue.pop_front() {
                size += 1;
                for &v in &self.adj[u as usize] {
                    if comp[v as usize] == usize::MAX {
                        comp[v as usize] = c;
                        queue.push_back(v);
                    }
                }
            }
            sizes.push(size);
        }
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        sizes
    }

    /// Shortest hop count between two nodes, `None` if unreachable.
    pub fn hop_distance(&self, a: usize, b: usize) -> Option<u32> {
        let d = self.bfs_hops(a)[b];
        (d != u32::MAX).then_some(d)
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
        assert_eq!(g.hop_distance(0, 9), Some(9));
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
        assert_eq!(g.component_sizes(), vec![2, 1]);
        assert_eq!(g.hop_distance(0, 2), None);
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
        assert!(g.component_sizes().is_empty());
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
