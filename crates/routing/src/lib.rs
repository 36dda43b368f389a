//! `wmn-routing` — the reactive routing substrate and baseline broadcast
//! schemes.
//!
//! An AODV-style on-demand engine ([`Routing`]) with sequence-numbered route
//! tables, duplicate caches, HELLO-maintained neighbour tables (carrying the
//! cross-layer [`wmn_mac::LoadDigest`]s), RERR propagation, and discovery
//! retry/buffering — everything RFC 3561 prescribes minus the pieces the
//! era's evaluations leave out: every RREQ carries the same fixed TTL, only
//! the destination answers, and there is no local repair.
//!
//! The route-discovery broadcast strategy is pluggable through
//! [`RebroadcastPolicy`]; this crate ships the literature baselines (blind
//! [`Flooding`], [`Gossip`], [`GossipK`], [`CounterBased`]) while the CNLR
//! contribution lives in the `cnlr` crate.

#![warn(missing_docs)]

pub mod addr;
pub mod config;
pub mod engine;
pub mod neighbors;
pub mod packet;
pub mod policy;
pub mod seen;
pub mod stats;
pub mod table;

pub use addr::{NodeId, BROADCAST_NODE};
pub use config::RoutingConfig;
pub use engine::{CrossLayer, RouteProbe, Routing, RoutingAction, RoutingTimer};
pub use neighbors::NeighborTable;
pub use packet::{DataPacket, FlowId, Hello, Packet, Rerr, Rrep, Rreq, RreqKey};
pub use policy::{
    CounterBased, Decision, DistanceBased, Flooding, Gossip, GossipK, RebroadcastPolicy,
    RreqContext,
};
pub use seen::SeenCache;
pub use stats::RoutingStats;
pub use table::{RouteEntry, RouteTable};
