//! `wmn-mobility` — node motion models.
//!
//! Rebuilds the `setdest`-style mobility substrate: stationary mesh routers
//! plus Random Waypoint clients. Both models expose the same piecewise-linear
//! interface — exact [`Mobility::position`]/[`Mobility::velocity`] between
//! trajectory changes and a [`Mobility::next_update`] instant at which the
//! engine calls [`Mobility::advance`] — so the simulator samples positions
//! exactly, never by numeric integration.
//!
//! Velocity queries exist because the VAP-CNLR extension (velocity-aware
//! probabilistic discovery) damps forwarding over unstable links.

#![warn(missing_docs)]

pub mod model;
pub mod rwp;
pub mod static_;

pub use model::{Mobility, MobilityConfig};
pub use rwp::RandomWaypoint;
pub use static_::StaticPoint;
