//! `cnlr` — Cross-layer Neighbourhood Load Routing for Wireless Mesh
//! Networks: a full-stack, from-scratch reproduction.
//!
//! This crate integrates the substrate crates (`wmn-sim`, `wmn-topology`,
//! `wmn-radio`, `wmn-mac`, `wmn-mobility`, `wmn-routing`, `wmn-traffic`,
//! `wmn-metrics`) into a runnable wireless-mesh simulator and implements the
//! paper's contribution:
//!
//! * [`CnlrPolicy`] — load-adaptive probabilistic RREQ forwarding driven by
//!   a cross-layer neighbourhood-load index, plus load-aware route costs;
//! * [`VapCnlr`] — the velocity-aware extension for mobile clients;
//! * [`Scheme`] — CNLR alongside every baseline it is evaluated against;
//! * [`ScenarioBuilder`] — the public API for assembling and running
//!   scenarios;
//! * [`ScenarioSpec`] — the one validated scenario description behind the
//!   command line, the daemon's wire and the sweeps;
//! * [`RunResults`] — network-wide measurements for the reconstructed
//!   figures.
//!
//! # Quickstart
//!
//! ```
//! use cnlr::{CnlrConfig, Scheme, ScenarioBuilder};
//! use wmn_sim::SimDuration;
//!
//! let results = ScenarioBuilder::new()
//!     .seed(7)
//!     .grid(5, 5, 180.0)
//!     .scheme(Scheme::Cnlr(CnlrConfig::default()))
//!     .flows(3, 2.0, 512)
//!     .duration(SimDuration::from_secs(15))
//!     .warmup(SimDuration::from_secs(3))
//!     .build()
//!     .unwrap()
//!     .run();
//! println!("PDR = {:.3}", results.pdr());
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod cli;
pub mod energy;
pub mod event;
pub mod medium;
pub mod network;
pub mod node;
pub mod parmesh;
pub mod policy;
pub mod presets;
pub mod results;
pub mod scheme;
pub mod spec;

pub use builder::{BuildError, ScenarioBuilder, ScenarioPrefix, Simulation};
pub use energy::{EnergyMeter, EnergyParams, RadioMode};
pub use event::Event;
pub use medium::{LinkCacheSnapshot, Medium, MediumEffect, MediumStats};
pub use network::{DropCounters, FaultCounters, Network, RebootKit};
pub use node::Node;
pub use parmesh::{region_grid, ParMesh, ParMeshOutcome, ParMeshReport};
pub use policy::{CnlrConfig, CnlrPolicy, VapCnlr, VapConfig};
pub use results::RunResults;
pub use scheme::Scheme;
pub use spec::ScenarioSpec;
pub use wmn_faults::{
    ChurnModel, FaultKind, FaultPlan, LinkFlapModel, NoiseStormModel, TimedFault,
};

// Re-export the substrate crates so downstream users need only one
// dependency.
pub use wmn_faults as faults;
pub use wmn_mac as mac;
pub use wmn_metrics as metrics;
pub use wmn_mobility as mobility;
pub use wmn_radio as radio;
pub use wmn_routing as routing;
pub use wmn_sim as sim;
pub use wmn_topology as topology;
pub use wmn_traffic as traffic;
