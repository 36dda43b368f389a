//! Property-based tests of geometry, placement and the spatial index.

use proptest::prelude::*;
use wmn_sim::SimRng;
use wmn_topology::{ConnectivityGraph, Placement, Region, SpatialIndex, Vec2};

fn brute_force(positions: &[Vec2], center: Vec2, radius: f64, exclude: usize) -> Vec<u32> {
    let r_sq = radius * radius;
    positions
        .iter()
        .enumerate()
        .filter(|&(i, p)| i != exclude && p.distance_sq(center) <= r_sq)
        .map(|(i, _)| i as u32)
        .collect()
}

proptest! {
    /// The spatial index agrees with brute force for arbitrary point sets,
    /// cell sizes and query radii.
    #[test]
    fn spatial_index_matches_brute_force(
        pts in prop::collection::vec((0.0f64..500.0, 0.0f64..500.0), 1..80),
        cell in 20.0f64..200.0,
        radius in 1.0f64..300.0,
    ) {
        let region = Region::square(500.0);
        let positions: Vec<Vec2> = pts.iter().map(|&(x, y)| Vec2::new(x, y)).collect();
        let idx = SpatialIndex::new(region, cell, &positions);
        let mut out = Vec::new();
        for i in 0..positions.len() {
            idx.query_radius(positions[i], radius, i, &mut out);
            prop_assert_eq!(&out, &brute_force(&positions, positions[i], radius, i));
        }
    }

    /// Index stays consistent under arbitrary position updates.
    #[test]
    fn spatial_index_update_consistent(
        seed in any::<u64>(),
        n in 2usize..40,
        updates in prop::collection::vec((0usize..40, 0.0f64..300.0, 0.0f64..300.0), 0..100),
    ) {
        let region = Region::square(300.0);
        let mut rng = SimRng::new(seed);
        let mut positions: Vec<Vec2> = (0..n)
            .map(|_| Vec2::new(rng.range_f64(0.0, 300.0), rng.range_f64(0.0, 300.0)))
            .collect();
        let mut idx = SpatialIndex::new(region, 50.0, &positions);
        for (i, x, y) in updates {
            let i = i % n;
            let p = Vec2::new(x, y);
            idx.update(i, p);
            positions[i] = p;
        }
        let mut out = Vec::new();
        for i in 0..n {
            idx.query_radius(positions[i], 60.0, i, &mut out);
            prop_assert_eq!(&out, &brute_force(&positions, positions[i], 60.0, i));
        }
    }

    /// Random placement produces the requested count inside the region.
    #[test]
    fn placements_in_region(seed in any::<u64>(), count in 1usize..120) {
        let region = Region::square(800.0);
        let mut rng = SimRng::new(seed);
        let pts = Placement::UniformRandom { count }.generate(region, &mut rng);
        prop_assert_eq!(pts.len(), count);
        prop_assert!(pts.iter().all(|&p| region.contains(p)));
    }

    /// Reflection always lands inside the region for displacements within
    /// one region-size of the border.
    #[test]
    fn reflect_stays_inside(x in -400.0f64..800.0, y in -400.0f64..800.0) {
        let region = Region::square(400.0);
        let (p, flip) = region.reflect(Vec2::new(x, y));
        prop_assert!(region.contains(p), "{p:?}");
        prop_assert!(flip.x.abs() == 1.0 && flip.y.abs() == 1.0);
    }

    /// Connectivity graphs from positions are symmetric and irreflexive.
    #[test]
    fn graph_symmetry(
        pts in prop::collection::vec((0.0f64..600.0, 0.0f64..600.0), 2..50),
        radius in 50.0f64..400.0,
    ) {
        let positions: Vec<Vec2> = pts.iter().map(|&(x, y)| Vec2::new(x, y)).collect();
        let g = ConnectivityGraph::from_positions(Region::square(600.0), &positions, radius);
        for u in 0..g.len() {
            prop_assert!(!g.neighbors(u).contains(&(u as u32)), "self-loop at {u}");
            for &v in g.neighbors(u) {
                prop_assert!(g.neighbors(v as usize).contains(&(u as u32)));
            }
        }
        // The labels partition the node set: every label names a member
        // of its own class, and every edge stays inside one class.
        let comp = g.components();
        prop_assert_eq!(comp.len(), g.len());
        for u in 0..g.len() {
            let c = comp[u] as usize;
            prop_assert!(c <= u && comp[c] == comp[u], "label {c} of {u}");
            for &v in g.neighbors(u) {
                prop_assert_eq!(comp[v as usize], comp[u]);
            }
        }
    }

    /// Component labels are the partition BFS reachability induces, each
    /// class labelled by its smallest node id — on sparse layouts, so that
    /// most of them fall apart into several components.
    #[test]
    fn components_match_bfs_reachability(
        pts in prop::collection::vec((0.0f64..600.0, 0.0f64..600.0), 1..45),
        radius in 20.0f64..250.0,
    ) {
        let positions: Vec<Vec2> = pts.iter().map(|&(x, y)| Vec2::new(x, y)).collect();
        let g = ConnectivityGraph::from_positions(Region::square(600.0), &positions, radius);
        let comp = g.components();
        for u in 0..g.len() {
            let hops = g.bfs_hops(u);
            let reach: Vec<usize> = (0..g.len()).filter(|&v| hops[v] != u32::MAX).collect();
            prop_assert_eq!(comp[u] as usize, reach[0], "label of {}", u);
            for v in 0..g.len() {
                prop_assert_eq!(comp[v] == comp[u], hops[v] != u32::MAX, "{} and {}", u, v);
            }
        }
        prop_assert_eq!(g.is_connected(), comp.iter().all(|&c| c == 0));
    }

    /// BFS distances satisfy the triangle inequality along edges.
    #[test]
    fn bfs_distance_is_metric_on_edges(
        pts in prop::collection::vec((0.0f64..600.0, 0.0f64..600.0), 2..40),
    ) {
        let positions: Vec<Vec2> = pts.iter().map(|&(x, y)| Vec2::new(x, y)).collect();
        let g = ConnectivityGraph::from_positions(Region::square(600.0), &positions, 150.0);
        let d = g.bfs_hops(0);
        for u in 0..g.len() {
            if d[u] == u32::MAX { continue; }
            for &v in g.neighbors(u) {
                let dv = d[v as usize];
                prop_assert!(dv != u32::MAX);
                prop_assert!(dv + 1 >= d[u] && d[u] + 1 >= dv, "edge jump > 1");
            }
        }
    }
}
