//! The geometric contract of the region auto-tuner that the window
//! scheduler's region grids come from. That the schedule itself never
//! changes a trace is pinned by `tests/determinism.rs` (one worker, where
//! no planner runs, against two and eight) and across interrupt + resume
//! by `tests/resume_equivalence.rs` (resumed at one, two and eight).

use proptest::prelude::*;
use wmn::cnlr::parmesh::{region_grid, MIN_REGION_SIDE_M, PITCH_M};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The auto-tuner never produces a region smaller than the lookahead
    /// geometry allows: every axis keeps its side at or above
    /// `MIN_REGION_SIDE_M` whenever the grid is actually split along it —
    /// for any node count and any (even absurd) explicit request. A
    /// single-region axis is exempt: an unsplit field can be arbitrarily
    /// small because no hop ever crosses a region boundary along it.
    #[test]
    fn auto_tuned_grids_respect_the_minimum_region_side(
        nodes in 4usize..400_000,
        requested in prop::option::of(1usize..10_000),
    ) {
        let cols = (nodes as f64).sqrt().ceil() as usize;
        let side = cols as f64 * PITCH_M;
        let (rx, ry) = region_grid(side, nodes, requested);
        prop_assert!(rx >= 1 && ry >= 1);
        if rx > 1 {
            prop_assert!(
                side / rx as f64 >= MIN_REGION_SIDE_M,
                "x side {} below minimum with rx={rx} (nodes={nodes}, req={requested:?})",
                side / rx as f64
            );
        }
        if ry > 1 {
            prop_assert!(
                side / ry as f64 >= MIN_REGION_SIDE_M,
                "y side {} below minimum with ry={ry} (nodes={nodes}, req={requested:?})",
                side / ry as f64
            );
        }
        // The tuner never grants more than asked for (it only shrinks to
        // fit geometry), and with no request it tracks node density.
        if let Some(req) = requested {
            prop_assert!(rx * ry <= req.max(1));
        } else {
            prop_assert!(rx * ry <= (nodes / 384).max(1));
        }
    }
}
