//! `wmn-topology` — deployment geometry for wireless mesh scenarios.
//!
//! Provides the plane-geometry primitives ([`Vec2`], [`Region`]), the node
//! [`Placement`] generators used by the reconstructed evaluation (grid /
//! perturbed grid for mesh backbones, uniform scatter, explicit positions), a
//! uniform-grid [`SpatialIndex`] for the radio hot loop, and a
//! [`ConnectivityGraph`] for structural validation of generated scenarios.
//!
//! This crate replaces the `setdest`-style scenario tooling an ns-2 based
//! evaluation would have used.

#![warn(missing_docs)]

pub mod graph;
pub mod placement;
pub mod region;
pub mod spatial;
pub mod vec2;

pub use graph::ConnectivityGraph;
pub use placement::Placement;
pub use region::Region;
pub use spatial::SpatialIndex;
pub use vec2::Vec2;
