//! `wmn-mac` — a CSMA/CA (802.11 DCF) MAC with cross-layer load
//! instrumentation.
//!
//! This crate rebuilds the `Mac/802_11` substrate the original evaluation
//! relied on, plus the piece that makes CNLR possible: a [`LoadMonitor`]
//! that turns MAC-internal observations (interface-queue occupancy, channel
//! busy time, service latency) into the [`LoadDigest`] the routing layer
//! shares across the neighbourhood.
//!
//! The state machine ([`Mac`]) is engine-agnostic: all inputs are method
//! calls and all outputs are [`MacAction`] values, so the full DCF behaviour
//! is unit-tested by sequencing calls directly, and the integration crate
//! wires actions to the event engine.

#![warn(missing_docs)]

pub mod dcf;
pub mod frame;
pub mod load;
pub mod params;
pub mod queue;

pub use dcf::{Mac, MacAction, MacStats, TimerKind};
pub use frame::{FrameKind, MacAddr, MacFrame, MacSdu, BROADCAST};
pub use load::{LoadDigest, LoadMonitor};
pub use params::MacParams;
pub use queue::IfQueue;
