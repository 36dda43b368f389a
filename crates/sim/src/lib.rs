//! `wmn-sim` — a deterministic discrete-event simulation engine.
//!
//! This crate is the substrate every other layer of the CNLR reproduction
//! stands on: an integer-nanosecond virtual clock, a future-event list with
//! stable tie-breaking, and a self-contained xoshiro256++ RNG with
//! derivable independent streams. (Tracing lives in `wmn-telemetry`, which
//! replaced this crate's original bounded string-ring tracer.)
//!
//! # Design notes
//!
//! * **Determinism.** Runs are a pure function of the master seed: integer
//!   time, FIFO tie-breaking at equal timestamps, and per-component RNG
//!   streams derived from `(seed, domain, index)` keys.
//! * **Genericity.** The engine is generic over the event type; the
//!   integration crate (`cnlr`) defines one unified event enum and a
//!   [`World`] that dispatches it, so substrate crates never depend on each
//!   other's event vocabularies.
//!
//! # Example
//!
//! ```
//! use wmn_sim::{Engine, Scheduler, SimDuration, SimTime, World};
//!
//! struct Ping(u32);
//! impl World for Ping {
//!     type Event = &'static str;
//!     fn handle(&mut self, _ev: &'static str, sched: &mut Scheduler<&'static str>) {
//!         self.0 += 1;
//!         if self.0 < 3 {
//!             sched.after(SimDuration::from_millis(10), "tick");
//!         }
//!     }
//! }
//!
//! let mut world = Ping(0);
//! let mut engine = Engine::new(SimTime::from_secs(1));
//! engine.prime(SimTime::ZERO, "tick");
//! let report = engine.run(&mut world);
//! assert_eq!(world.0, 3);
//! assert_eq!(report.events_processed, 3);
//! ```

#![warn(missing_docs)]

pub mod checkpoint;
pub mod engine;
pub mod idmap;
pub mod queue;
pub mod rng;
pub mod shard;
#[cfg(unix)]
pub mod signals;
pub mod time;

pub use checkpoint::{ByteReader, ByteWriter, CheckpointError, CheckpointMeta};
pub use engine::{Engine, RunReport, Scheduler, StopReason, World};
pub use idmap::{IdHasher, IdMap};
pub use queue::EventQueue;
pub use rng::{SimRng, SplitMix64};
pub use shard::{
    CheckpointState, CrashPlan, HorizonScratch, Lookahead, RegionCtx, RegionId, RegionWorld,
    ShardRunReport, ShardStopReason, ShardedEngine, StochasticCrash, SupervisorConfig,
    SupervisorReport,
};
pub use time::{SimDuration, SimTime};
