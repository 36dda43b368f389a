//! Shard-parallel conservative event execution.
//!
//! The sequential [`Engine`](crate::Engine) dispatches one global
//! future-event list. This module partitions a model into **regions**, each
//! with its own event queue, clock and (by convention) RNG streams, and
//! advances regions concurrently under the classic *conservative* parallel
//! discrete-event rule (Chandy–Misra / bounded lag): a region may safely
//! process every event strictly before its **safe horizon**
//!
//! ```text
//! H_i = min over non-idle j of ( T_j + D(j → i) )    (including j = i)
//! ```
//!
//! where `T_j` is region `j`'s next pending event time and `D` is the
//! shortest-path closure of the **lookahead** matrix `δ`: `δ(j → i)` is a
//! lower bound on how far in the future any event that region `j` sends
//! directly to region `i` must land, measured from the event `j` is
//! currently processing, and `D` extends that bound to multi-hop influence
//! chains (`D(i → i)` is the minimum cycle — a region's own events can
//! come back to bite it via its neighbours). In a radio mesh the bound is
//! physical — a station cannot react to a reception and put a new frame on
//! the air in less than the PHY preamble/turnaround, and influence between
//! non-adjacent spatial regions additionally pays propagation over the
//! inter-region distance — so the lookahead is free: no model change is
//! needed to expose it. The engine never forms `D`: every path into `i`
//! ends in a direct edge, so one shortest-path sweep over the direct
//! bounds, seeded with every `T_j`, yields all `H_i` at once (see
//! [`Lookahead::safe_horizons`]).
//!
//! Execution proceeds in epochs. Every epoch the coordinator computes each
//! region's safe horizon from the current queue states, hands the *active*
//! regions (those with an event below their horizon) to a fixed worker
//! pool, waits for all of them, and then merges the cross-region events
//! produced during the epoch into the destination queues in one
//! deterministic pass sorted by `(timestamp, source region, emission
//! sequence)`. Because region state only changes inside `handle` calls that
//! are fully ordered per region, and because the merge order is a pure
//! function of the epoch's outputs (never of worker scheduling), **a run is
//! bit-identical for any worker count, including one**. The worker count
//! changes wall-clock time only; the region count is part of the scenario.
//!
//! Region→worker assignment is a free variable under that argument: *which
//! thread* runs a window is invisible to the simulation, so the engine may
//! re-chunk regions onto workers every epoch. With
//! [`ShardedEngine::with_stealing`] enabled, a coordinator-side
//! `StealPlanner` packs the epoch's active regions onto workers by
//! longest-predicted-first (LPT) bin packing, predicting each region's cost
//! from its previous window's measured busy time — the same wall-clock
//! figure the profiler reports in [`WindowSample::busy_ns`]. The schedule
//! is wall-clock-derived and therefore non-deterministic run to run, but it
//! only ever remaps slot→thread; traces, telemetry, and checkpoints stay
//! bit-identical for any steal schedule, and a checkpoint carries no
//! scheduler state, so a resume may change both the worker count and the
//! steal setting freely.
//!
//! The conservative invariant — no cross-region event may arrive below the
//! timestamp its destination has already committed — is enforced at
//! runtime: [`RegionCtx::send`] panics when a world under-declares its
//! lookahead, and the merge re-checks every arrival against the
//! destination's committed horizon.

use crate::checkpoint::{self, ByteReader, ByteWriter, CheckpointError, CheckpointMeta};
use crate::queue::EventQueue;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::Instant;

/// Identifies one region (shard) of a partitioned model.
pub type RegionId = u32;

/// A pair that never exchanges events directly (see [`Lookahead`]).
pub const NEVER: SimDuration = SimDuration(u64::MAX);

/// Lower bounds on cross-region event latency.
///
/// `between(src, dst)` is the minimum delay, measured from the event being
/// processed at `src`, after which an event emitted by `src` may activate
/// at `dst`. [`NEVER`] marks pairs that never communicate.
///
/// Only the finite direct bounds are stored, as per-source neighbour lists,
/// so a spatial region grid costs O(regions) memory and set-up whatever its
/// size. Safe horizons are computed from those lists alone
/// ([`safe_horizons`](Lookahead::safe_horizons)); the dense all-pairs
/// closure behind [`influence`](Lookahead::influence) is built only if
/// somebody asks for it.
#[derive(Clone, Debug)]
pub struct Lookahead {
    n: usize,
    /// CSR rows of finite *direct* bounds: region `s` can send to the
    /// `(dst, δ)` pairs in `out[out_idx[s]..out_idx[s + 1]]`, ascending in
    /// `dst`, never `s` itself.
    out_idx: Vec<u32>,
    out: Vec<(RegionId, SimDuration)>,
    /// All-pairs shortest-path closure of the direct bounds, row-major
    /// `n × n`, built on the first [`influence`](Lookahead::influence)
    /// call. The diagonal holds the minimum cycle back to oneself: an event
    /// at `i` can influence `i` again only via some other region, so
    /// `D(i, i)` is the cheapest round trip.
    closed: OnceLock<Vec<SimDuration>>,
}

/// Floyd–Warshall over `n × n` row-major direct bounds (diagonal ignored).
fn close_over(n: usize, mut d: Vec<SimDuration>) -> Vec<SimDuration> {
    // Self-influence must pass through a cycle; seed the diagonal as ∞.
    for i in 0..n {
        d[i * n + i] = NEVER;
    }
    for k in 0..n {
        for i in 0..n {
            let dik = d[i * n + k];
            if dik == NEVER {
                continue;
            }
            for j in 0..n {
                let dkj = d[k * n + j];
                if dkj == NEVER {
                    continue;
                }
                let via = SimDuration(dik.0.saturating_add(dkj.0));
                if via < d[i * n + j] {
                    d[i * n + j] = via;
                }
            }
        }
    }
    d
}

/// Reusable working memory of [`Lookahead::safe_horizons`], so the
/// per-epoch planning pass allocates nothing once warm.
#[derive(Clone, Debug, Default)]
pub struct HorizonScratch {
    /// Pending `(label, region)` entries, smallest label first.
    heap: BinaryHeap<Reverse<((SimTime, RegionId), RegionId)>>,
    /// Best known `(earliest influence, origin)` label per region.
    label: Vec<(SimTime, RegionId)>,
    /// The origin behind each region's safe horizon.
    origin: Vec<RegionId>,
}

/// "No region": the origin of an unbounded label.
const NO_REGION: RegionId = RegionId::MAX;

impl Lookahead {
    /// A uniform bound: every ordered pair of distinct regions shares the
    /// same minimum latency `delta`.
    pub fn uniform(n: usize, delta: SimDuration) -> Self {
        assert!(
            n == 1 || delta > SimDuration::ZERO,
            "zero lookahead cannot make progress with more than one region"
        );
        Self::from_fn(n, |_, _| delta)
    }

    /// Build from a per-pair function (e.g. turnaround floor plus
    /// propagation over the inter-region distance). Return [`NEVER`] for
    /// pairs that cannot interact. Every finite bound must be positive.
    pub fn from_fn(n: usize, mut f: impl FnMut(RegionId, RegionId) -> SimDuration) -> Self {
        assert!(n >= 1, "at least one region");
        let mut out_idx = Vec::with_capacity(n + 1);
        let mut out = Vec::new();
        out_idx.push(0);
        for s in 0..n {
            for d in 0..n {
                if s == d {
                    continue;
                }
                let v = f(s as RegionId, d as RegionId);
                assert!(v > SimDuration::ZERO, "lookahead {s}->{d} must be positive");
                if v != NEVER {
                    out.push((d as RegionId, v));
                }
            }
            assert!(out.len() <= u32::MAX as usize, "too many lookahead edges");
            out_idx.push(out.len() as u32);
        }
        Lookahead {
            n,
            out_idx,
            out,
            closed: OnceLock::new(),
        }
    }

    /// Number of regions.
    pub fn regions(&self) -> usize {
        self.n
    }

    /// The regions `src` can send to directly, with their bounds,
    /// ascending in region id.
    #[inline]
    fn out_edges(&self, src: RegionId) -> &[(RegionId, SimDuration)] {
        let s = src as usize;
        &self.out[self.out_idx[s] as usize..self.out_idx[s + 1] as usize]
    }

    /// The declared *direct* bound for `src → dst` ([`NEVER`] when they
    /// never interact directly). This is the contract [`RegionCtx::send`]
    /// enforces.
    #[inline]
    pub fn between(&self, src: RegionId, dst: RegionId) -> SimDuration {
        let row = self.out_edges(src);
        match row.binary_search_by_key(&dst, |&(d, _)| d) {
            Ok(k) => row[k].1,
            Err(_) => NEVER,
        }
    }

    /// The shortest influence path `src → … → dst` through any chain of
    /// regions; `influence(i, i)` is the minimum cycle. The first call pays
    /// the O(n³) dense closure; a run never makes it —
    /// [`safe_horizons`](Lookahead::safe_horizons) yields the same horizons
    /// from the direct bounds — so this is for tests and diagnostics.
    pub fn influence(&self, src: RegionId, dst: RegionId) -> SimDuration {
        let closed = self.closed.get_or_init(|| {
            let mut delta = vec![NEVER; self.n * self.n];
            for s in 0..self.n {
                for &(d, v) in self.out_edges(s as RegionId) {
                    delta[s * self.n + d as usize] = v;
                }
            }
            close_over(self.n, delta)
        });
        closed[src as usize * self.n + dst as usize]
    }

    /// Every region's safe horizon, given each region's next pending event
    /// time `peeks[j]` (`None` = idle): region `i` may process events
    /// strictly below `safe[i] = min_j (peeks[j] + influence(j, i))` over
    /// non-idle `j` — including `j = i`, whose pending events can cascade
    /// back through other regions (minimum cycle). An idle region
    /// constrains nobody: any future activity there descends from some
    /// region's currently pending event, which the shortest paths already
    /// account for.
    ///
    /// `sources`, when given, receives the lowest-numbered `j` attaining
    /// each minimum — which pending event the barrier is waiting on — or
    /// `-1` where the horizon is unbounded.
    ///
    /// The closure is never formed. Every influence path into `i` ends in
    /// a direct edge `k → i`, so with `g_k = min_j (peeks[j] + shortest
    /// path j ⇝ k, the empty path included)`, `safe[i]` is the minimum of
    /// `g_k + between(k, i)` over `i`'s direct in-neighbours. `g` is one
    /// multi-source shortest-path sweep seeded with the peeks; the
    /// candidates relaxed into `i` during that sweep are exactly those
    /// terms, so the sweep yields `safe` as it goes, in O(edges · log n).
    /// Labels are `(time, origin)` pairs compared lexicographically, which
    /// a positive edge weight preserves, so the origin that survives is
    /// the lowest `j` among the minimisers.
    pub fn safe_horizons(
        &self,
        peeks: &[Option<SimTime>],
        scratch: &mut HorizonScratch,
        safe: &mut Vec<SimTime>,
        sources: Option<&mut Vec<i64>>,
    ) {
        assert_eq!(peeks.len(), self.n, "one peek per region");
        let HorizonScratch {
            heap,
            label,
            origin,
        } = scratch;
        heap.clear();
        label.clear();
        safe.clear();
        safe.resize(self.n, SimTime::MAX);
        origin.clear();
        origin.resize(self.n, NO_REGION);
        for (j, peek) in peeks.iter().enumerate() {
            let seed = (peek.unwrap_or(SimTime::MAX), j as RegionId);
            label.push(seed);
            if peek.is_some() {
                heap.push(Reverse((seed, j as RegionId)));
            }
        }
        while let Some(Reverse(((g, from), k))) = heap.pop() {
            // Superseded by a smaller label pushed later, popped earlier.
            if (g, from) != label[k as usize] {
                continue;
            }
            for &(i, delta) in self.out_edges(k) {
                let i = i as usize;
                let via = (g.saturating_add(delta), from);
                if via.0 == SimTime::MAX {
                    continue;
                }
                // A settled region's label is final, its horizon is not: a
                // later-settled neighbour still closes a cycle back to it.
                if via < (safe[i], origin[i]) {
                    (safe[i], origin[i]) = via;
                }
                if via < label[i] {
                    label[i] = via;
                    heap.push(Reverse((via, i as RegionId)));
                }
            }
        }
        if let Some(s) = sources {
            s.clear();
            s.extend(origin.iter().map(|&o| match o {
                NO_REGION => -1,
                j => j as i64,
            }));
        }
    }
}

/// A cross-region event buffered during an epoch.
struct Outgoing<E> {
    dst: RegionId,
    time: SimTime,
    event: E,
}

/// Scheduling interface handed to a region's world while it processes an
/// event (the sharded analogue of [`Scheduler`](crate::Scheduler)).
pub struct RegionCtx<'a, E> {
    now: SimTime,
    region: RegionId,
    queue: &'a mut EventQueue<E>,
    outbox: &'a mut Vec<Outgoing<E>>,
    lookahead: &'a Lookahead,
    horizon: SimTime,
    stopped: &'a mut bool,
}

impl<E> RegionCtx<'_, E> {
    /// The current simulation time (the event's activation time).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This region's id.
    #[inline]
    pub fn region(&self) -> RegionId {
        self.region
    }

    /// The configured end-of-simulation time.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Schedule a **local** event after `delay` (same region; any
    /// non-negative delay is allowed, including zero).
    #[inline]
    pub fn after(&mut self, delay: SimDuration, event: E) {
        self.queue.schedule(self.now + delay, event);
    }

    /// Schedule a **local** event at an absolute time (not in the past).
    #[inline]
    pub fn at(&mut self, time: SimTime, event: E) {
        debug_assert!(time >= self.now, "scheduling into the past");
        self.queue.schedule(time, event);
    }

    /// Send an event to another region, activating at `time`.
    ///
    /// Conservative contract: `time` must be at least `now() +
    /// lookahead(self → dst)`. Violations panic — an under-declared
    /// lookahead would silently corrupt causality under parallel execution,
    /// so it is rejected loudly in every mode, single-threaded included.
    /// Sending to one's own region is an ordinary local schedule.
    #[inline]
    pub fn send(&mut self, dst: RegionId, time: SimTime, event: E) {
        if dst == self.region {
            self.at(time, event);
            return;
        }
        let bound = self.lookahead.between(self.region, dst);
        assert!(
            bound != NEVER,
            "region {} sent to region {dst} declared unreachable",
            self.region
        );
        assert!(
            time >= self.now + bound,
            "lookahead violation: region {} -> {dst} event at {time} < now {} + delta {bound}",
            self.region,
            self.now
        );
        self.outbox.push(Outgoing { dst, time, event });
    }

    /// Request the whole run to stop once the current epoch completes (the
    /// epoch boundary is the earliest deterministic cut across regions).
    pub fn stop(&mut self) {
        *self.stopped = true;
    }
}

/// A model shard: the per-region analogue of [`World`](crate::World).
///
/// Implementations own all state of one region. State shared between
/// regions must be immutable for the duration of the run (e.g. behind an
/// `Arc`); every mutation must live in exactly one region and be driven by
/// that region's events.
pub trait RegionWorld: Send {
    /// The unified event type (shared by all regions of the model).
    type Event: Send;

    /// Process one event. `ctx.now()` is the event's activation time.
    fn handle(&mut self, event: Self::Event, ctx: &mut RegionCtx<'_, Self::Event>);
}

/// Serialize/restore contract a [`RegionWorld`] implements to make its runs
/// checkpointable and crash-recoverable.
///
/// Contract: `decode_state` must leave the world **exactly** equal to the
/// one `encode_state` captured, regardless of the world's current state —
/// rollback overlays a snapshot onto a world that has since processed more
/// events, so every mutable field must be overwritten, every collection
/// cleared and rebuilt. Floats must round-trip as raw bits
/// ([`ByteWriter::f64_bits`]), never through decimal text. Iteration-order-
/// sensitive collections (hash maps) must be encoded in a sorted order so
/// the byte stream itself is deterministic.
pub trait CheckpointState: RegionWorld {
    /// Append this region's complete mutable state to `out`.
    fn encode_state(&self, out: &mut ByteWriter);
    /// Overwrite this region's mutable state from `r` (written by
    /// [`encode_state`](CheckpointState::encode_state)).
    fn decode_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CheckpointError>;
    /// Append one pending event to `out`.
    fn encode_event(event: &Self::Event, out: &mut ByteWriter);
    /// Read one event (written by
    /// [`encode_event`](CheckpointState::encode_event)).
    fn decode_event(r: &mut ByteReader<'_>) -> Result<Self::Event, CheckpointError>;
}

/// One region's observation for one epoch, delivered to a [`ShardProbe`].
///
/// Every field except `busy_ns` is **simulation-derived**: a pure function
/// of the scenario, identical for any worker count (the engine computes
/// epoch plans, queue states and horizons before any worker touches a
/// slot). `busy_ns` is wall-clock and varies run to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowSample {
    /// Epoch number (1-based).
    pub epoch: u64,
    /// The observed region.
    pub region: RegionId,
    /// Whether the region had an event below its safe horizon this epoch.
    pub active: bool,
    /// Events executed in this window.
    pub events: u64,
    /// Wall-clock nanoseconds spent inside the window (0 when inactive).
    /// The only wall-clock field in the sample.
    pub busy_ns: u64,
    /// Pending-queue depth before the window ran.
    pub queue_depth: u64,
    /// Cross-region events buffered in the outbox after the window.
    pub outbox: u64,
    /// Committed horizon before the window (ns).
    pub window_start_ns: u64,
    /// Safe horizon granted this epoch (ns; `u64::MAX` when unbounded).
    pub window_end_ns: u64,
    /// The region whose pending event bound this horizon (stall
    /// attribution: the barrier cannot open wider than `bound_by`'s next
    /// event plus its influence lookahead). `-1` when unbounded.
    pub bound_by: i64,
}

/// Observer interface for the sharded engine's execution structure.
///
/// Pass one to [`ShardedEngine::run_probed`] to receive per-region window
/// samples and per-epoch barrier timings. All callbacks fire on the
/// coordinator thread in one order, whatever the run mode: per epoch
/// (ascending), `window` for every region (ascending), then `steal` if the
/// planner packed the epoch, then `epoch_end`; `run_end` once, last. A probe
/// can never influence simulation results — it observes slots only between
/// epochs.
pub trait ShardProbe {
    /// One region's window observation (called for every region each
    /// epoch, active or not, in ascending region order, before the merge).
    fn window(&mut self, sample: &WindowSample);
    /// An epoch completed: total barrier-to-barrier wall time, events
    /// merged across regions, and the merge's own wall cost.
    fn epoch_end(&mut self, epoch: u64, wall_ns: u64, merged: u64, merge_ns: u64);
    /// The run completed.
    fn run_end(&mut self, report: &ShardRunReport, wall_ns: u64);
    /// One epoch's scheduler decision under work stealing (default:
    /// ignore). `moved` counts active regions that ran on a different
    /// worker than their previous window; `imbalance_milli` is the
    /// post-steal load balance — the busiest worker's measured window time
    /// over the mean across the pool, ×1000. Both are wall-clock-derived
    /// and must never enter a simulation fingerprint. Fires after the
    /// epoch's `window` samples, before [`epoch_end`](ShardProbe::epoch_end).
    fn steal(&mut self, _epoch: u64, _moved: u64, _imbalance_milli: u64) {}
    /// Serialize accumulated observer state into a checkpoint (default:
    /// nothing). A probe that wants its profile to survive a kill-and-resume
    /// overrides this pair; the engine includes the bytes in every
    /// checkpoint and feeds them back through
    /// [`decode_probe`](ShardProbe::decode_probe) on resume.
    fn encode_probe(&self, _out: &mut ByteWriter) {}
    /// Restore observer state captured by
    /// [`encode_probe`](ShardProbe::encode_probe) (default: nothing).
    fn decode_probe(&mut self, _r: &mut ByteReader<'_>) -> Result<(), CheckpointError> {
        Ok(())
    }
}

/// Pre-epoch snapshots needed to compute per-window deltas for a probe.
#[derive(Default)]
struct EpochScratch {
    processed: Vec<u64>,
    queue: Vec<u64>,
    committed: Vec<u64>,
    /// Which region bound each region's safe horizon (`-1` = unbounded).
    sources: Vec<i64>,
}

/// Why a sharded run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardStopReason {
    /// Every region's queue drained completely.
    QueueEmpty,
    /// The earliest pending event lay beyond the configured horizon.
    HorizonReached,
    /// A region called [`RegionCtx::stop`].
    Stopped,
    /// The event budget was exhausted (runaway protection).
    EventBudget,
    /// The supervisor's interrupt flag was raised (e.g. SIGINT); the run
    /// stopped at an epoch barrier after writing a final checkpoint.
    Interrupted,
}

/// Summary of a completed sharded run.
#[derive(Clone, Debug)]
pub struct ShardRunReport {
    /// Why the run ended.
    pub reason: ShardStopReason,
    /// Events dispatched across all regions.
    pub events_processed: u64,
    /// Events dispatched per region.
    pub per_region: Vec<u64>,
    /// Cross-region events exchanged at epoch barriers.
    pub cross_region: u64,
    /// Number of epochs (barrier rounds).
    pub epochs: u64,
    /// Final simulation time (max over regions' committed clocks, capped
    /// at the horizon).
    pub end_time: SimTime,
}

/// Panic payload of a harness-injected worker crash (see [`CrashPlan`]).
/// The supervisor recognises this type and recovers; any other panic is an
/// invariant violation or a genuine bug and aborts loudly.
#[derive(Debug)]
pub struct InjectedCrash {
    /// Epoch (1-based) the crash fired in.
    pub epoch: u64,
    /// Region whose window was killed.
    pub region: RegionId,
}

/// Seeded stochastic crash injection (see [`CrashPlan`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StochasticCrash {
    /// Per-window crash probability.
    pub rate: f64,
    /// Seed of the coordinator-side decision stream.
    pub seed: u64,
    /// Maximum number of crashes to inject over the run.
    pub max: u32,
}

/// Harness-level worker-crash schedule, strictly separate from in-sim
/// faults (`wmn-faults` kills simulated nodes; this kills the *host
/// worker* executing a region's window, to exercise the supervisor).
///
/// Crash decisions are made on the coordinator thread in ascending region
/// order before windows are dispatched, so they are identical for every
/// worker count; each decision fires at most once and is **not** rolled
/// back with the simulation state, so a recovered replay does not crash
/// again at the same point.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CrashPlan {
    /// Scripted crashes: kill `region`'s window in `epoch` (1-based).
    pub scripted: Vec<(u64, RegionId)>,
    /// Seeded stochastic mode, applied to every dispatched window.
    pub stochastic: Option<StochasticCrash>,
}

impl CrashPlan {
    /// True when no crashes will ever be injected.
    pub fn is_empty(&self) -> bool {
        self.scripted.is_empty() && self.stochastic.is_none()
    }

    /// Build from the environment: `WMN_CRASH_AT=epoch:region[,epoch:region…]`
    /// for scripted crashes and `WMN_CRASH_RATE=p:seed[:max]` for the
    /// stochastic mode (`max` defaults to 1). Malformed entries are ignored.
    pub fn from_env() -> Self {
        let mut plan = CrashPlan::default();
        if let Ok(v) = std::env::var("WMN_CRASH_AT") {
            for part in v.split(',').filter(|s| !s.trim().is_empty()) {
                if let Some((e, r)) = part.split_once(':') {
                    if let (Ok(e), Ok(r)) = (e.trim().parse(), r.trim().parse()) {
                        plan.scripted.push((e, r));
                    }
                }
            }
        }
        if let Ok(v) = std::env::var("WMN_CRASH_RATE") {
            let mut it = v.split(':');
            let rate = it.next().and_then(|s| s.trim().parse::<f64>().ok());
            let seed = it.next().and_then(|s| s.trim().parse::<u64>().ok());
            if let (Some(rate), Some(seed)) = (rate, seed) {
                let max = it
                    .next()
                    .and_then(|s| s.trim().parse::<u32>().ok())
                    .unwrap_or(1);
                plan.stochastic = Some(StochasticCrash { rate, seed, max });
            }
        }
        plan
    }
}

/// Mutable crash-decision state — the plan's unfired entries and the
/// stochastic decision stream — owned by the coordinator and deliberately
/// outside the rollback scope.
struct CrashState {
    plan: CrashPlan,
    rng: Option<SimRng>,
}

impl CrashState {
    fn new(plan: &CrashPlan) -> Self {
        CrashState {
            plan: plan.clone(),
            rng: plan.stochastic.map(|s| SimRng::new(s.seed)),
        }
    }

    /// Decide whether to kill `region`'s window in `epoch`. Consumes the
    /// matching scripted entry / stochastic budget so it cannot re-fire on
    /// replay.
    fn decide(&mut self, epoch: u64, region: RegionId) -> bool {
        let scripted = &mut self.plan.scripted;
        if let Some(pos) = scripted.iter().position(|&e| e == (epoch, region)) {
            scripted.remove(pos);
            return true;
        }
        if let (Some(s), Some(rng)) = (&mut self.plan.stochastic, &mut self.rng) {
            if s.max > 0 && rng.chance(s.rate) {
                s.max -= 1;
                return true;
            }
        }
        false
    }
}

/// Why a caught window panic cannot be recovered from, or `None` for a
/// [`CrashPlan`] injection (recovered by rollback + replay). After a
/// conservative-invariant or lookahead violation the simulation state cannot
/// be trusted; anything else is a genuine bug. Both abort loudly.
fn fatal_panic(payload: &(dyn std::any::Any + Send)) -> Option<&'static str> {
    if payload.is::<InjectedCrash>() {
        return None;
    }
    let msg = payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
    match msg {
        Some(m) if m.contains("lookahead violation") || m.contains("conservative invariant") => {
            Some("conservative-invariant violation")
        }
        _ => Some("unclassified worker panic"),
    }
}

/// Silence the default panic printer for [`InjectedCrash`] payloads — they
/// are expected, caught, and recovered; their backtraces are pure noise.
/// All other panics keep the previous hook. Installed at most once.
fn install_quiet_crash_hook() {
    static QUIET: std::sync::Once = std::sync::Once::new();
    QUIET.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<InjectedCrash>() {
                return;
            }
            prev(info);
        }));
    });
}

/// Configuration for [`ShardedEngine::run_supervised`].
#[derive(Clone, Debug, Default)]
pub struct SupervisorConfig {
    /// Scenario fingerprint stamped into every checkpoint; a resume with a
    /// different fingerprint is refused.
    pub scenario: u64,
    /// Where to write checkpoint files (`None` = in-memory rollback points
    /// only, nothing on disk).
    pub checkpoint_dir: Option<PathBuf>,
    /// Sim-time cadence between checkpoints, keyed on the global minimum
    /// pending-event time crossing each multiple (`None` = only the
    /// run-start rollback anchor; a crash then replays from the beginning).
    pub checkpoint_every: Option<SimDuration>,
    /// Harness-level crash injection schedule.
    pub crash_plan: CrashPlan,
    /// Cooperative interrupt flag (typically set from a SIGINT handler);
    /// checked at every epoch barrier.
    pub interrupt: Option<Arc<AtomicBool>>,
}

/// What the supervisor did during a [`ShardedEngine::run_supervised`] run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SupervisorReport {
    /// Worker panics recovered by rollback + replay.
    pub recoveries: u64,
    /// Checkpoint files written (cadence plus any final interrupt one).
    pub checkpoints_written: u64,
    /// True when the run stopped on the interrupt flag.
    pub interrupted: bool,
    /// Epoch of the checkpoint this run resumed from, if any.
    pub resumed_from_epoch: Option<u64>,
    /// Path of the most recent checkpoint file written.
    pub last_checkpoint: Option<PathBuf>,
}

/// One region's execution state: world, queue, outbox and bookkeeping.
struct Slot<W: RegionWorld> {
    region: RegionId,
    world: W,
    queue: EventQueue<W::Event>,
    outbox: Vec<Outgoing<W::Event>>,
    /// Everything strictly before this instant is committed: no future
    /// arrival below it is legal.
    committed: SimTime,
    processed: u64,
    stopped: bool,
    /// Wall-clock cost of the last window (filled only when timed).
    last_busy_ns: u64,
}

impl<W: RegionWorld> Slot<W> {
    /// Process every pending event strictly below `window_end` (and at or
    /// below the run horizon), then commit the window. `timed` records the
    /// window's wall-clock cost into `last_busy_ns` (profiling only — it
    /// cannot affect event execution). When `crash` carries an epoch,
    /// process at most one event and then die with an [`InjectedCrash`]
    /// panic — deliberately leaving partially-mutated, uncommitted state,
    /// the worst case the supervisor's rollback must handle.
    fn run_window(
        &mut self,
        window_end: SimTime,
        horizon: SimTime,
        lookahead: &Lookahead,
        timed: bool,
        crash: Option<u64>,
    ) {
        let t0 = timed.then(Instant::now);
        while let Some(t) = self.queue.peek_time() {
            if t >= window_end || t > horizon {
                break;
            }
            let (now, event) = self.queue.pop().expect("peeked event vanished");
            self.processed += 1;
            let mut ctx = RegionCtx {
                now,
                region: self.region,
                queue: &mut self.queue,
                outbox: &mut self.outbox,
                lookahead,
                horizon,
                stopped: &mut self.stopped,
            };
            self.world.handle(event, &mut ctx);
            if crash.is_some() {
                break;
            }
        }
        if let Some(epoch) = crash {
            std::panic::panic_any(InjectedCrash {
                epoch,
                region: self.region,
            });
        }
        // The window is committed even when it held no events: adjacent
        // regions may have advanced on the promise that nothing older will
        // appear here.
        self.committed = self.committed.max(window_end);
        if let Some(t0) = t0 {
            self.last_busy_ns = t0.elapsed().as_nanos() as u64;
        }
    }
}

type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// One window of one epoch: the region slot, its safe window end, and the
/// coordinator's injected-crash decision (`Some(epoch)` only under a
/// supervisor with a [`CrashPlan`]).
struct Job<W: RegionWorld> {
    slot: Box<Slot<W>>,
    window_end: SimTime,
    timed: bool,
    crash: Option<u64>,
}

impl<W: RegionWorld> Job<W> {
    /// Run the window wherever the job landed — a pool worker or the
    /// coordinator itself — and hand back a panic instead of unwinding, so
    /// the slot always returns and the coordinator alone decides what a
    /// panic means.
    fn run(&mut self, horizon: SimTime, lookahead: &Lookahead) -> Option<PanicPayload> {
        catch_unwind(AssertUnwindSafe(|| {
            self.slot
                .run_window(self.window_end, horizon, lookahead, self.timed, self.crash)
        }))
        .err()
    }
}

/// Coordinator-side dynamic region→worker packer (work stealing by
/// deficit re-chunking at the barrier).
///
/// Every epoch, [`plan`](StealPlanner::plan) sorts the active regions by
/// predicted cost — the region's previous window's measured busy time —
/// and assigns each, longest first, to the currently least-loaded worker
/// (LPT bin packing). The decision consumes only data the barrier already
/// produces and costs `O(jobs · workers)` per epoch, so it stays cheap and
/// local in the sense of Sliwa et al.'s load-aware-decision constraint.
/// Decisions are wall-clock-derived and may differ between runs; they can
/// only remap slot→thread, never change what a window computes, so results
/// stay bit-identical for every schedule. Nothing here is checkpointed: a
/// resumed run starts with a cold planner, which is exactly as valid as
/// any other schedule.
struct StealPlanner {
    /// Last measured window cost per region (ns); 0 until first observed.
    cost_ns: Vec<u64>,
    /// Worker that ran each region's last window (static home initially).
    home: Vec<u32>,
    workers: usize,
    /// Scratch: predicted load per worker while packing.
    loads: Vec<u64>,
    /// Scratch: job indices in packing order.
    order: Vec<usize>,
    /// Output: worker for `jobs[k]`, parallel to the epoch's job list.
    assignment: Vec<u32>,
}

impl StealPlanner {
    fn new(regions: usize, workers: usize) -> Self {
        StealPlanner {
            cost_ns: vec![0; regions],
            home: (0..regions).map(|i| (i % workers) as u32).collect(),
            workers,
            loads: Vec::with_capacity(workers),
            order: Vec::new(),
            assignment: Vec::new(),
        }
    }

    /// Pack `jobs` (active region indices) onto workers; fills
    /// [`assignment`](StealPlanner::assignment) and returns how many
    /// regions moved off the worker that ran their previous window.
    fn plan(&mut self, jobs: &[usize]) -> u64 {
        self.loads.clear();
        self.loads.resize(self.workers, 0);
        self.order.clear();
        self.order.extend(0..jobs.len());
        let cost_ns = &self.cost_ns;
        self.order.sort_unstable_by(|&a, &b| {
            cost_ns[jobs[b]]
                .cmp(&cost_ns[jobs[a]])
                .then_with(|| jobs[a].cmp(&jobs[b]))
        });
        self.assignment.clear();
        self.assignment.resize(jobs.len(), 0);
        let mut moved = 0u64;
        for &k in &self.order {
            let region = jobs[k];
            let mut w = 0usize;
            for (cand, &load) in self.loads.iter().enumerate().skip(1) {
                if load < self.loads[w] {
                    w = cand;
                }
            }
            // A floor of 1 ns keeps unmeasured regions spreading across
            // the pool instead of piling onto worker 0.
            self.loads[w] += self.cost_ns[region].max(1);
            self.assignment[k] = w as u32;
            if self.home[region] != w as u32 {
                self.home[region] = w as u32;
                moved += 1;
            }
        }
        moved
    }

    /// Record a region's measured window cost (feeds the next epoch's
    /// prediction).
    fn observe(&mut self, region: usize, busy_ns: u64) {
        self.cost_ns[region] = busy_ns;
    }

    /// Post-steal imbalance of the epoch just measured: busiest worker's
    /// summed window time over the pool mean, ×1000 (1000 = perfectly
    /// balanced). Uses the fresh costs recorded by
    /// [`observe`](StealPlanner::observe) grouped by this epoch's
    /// assignment.
    fn measured_imbalance_milli(&mut self, jobs: &[usize]) -> u64 {
        self.loads.clear();
        self.loads.resize(self.workers, 0);
        for (k, &region) in jobs.iter().enumerate() {
            self.loads[self.assignment[k] as usize] += self.cost_ns[region];
        }
        let total: u64 = self.loads.iter().sum();
        if total == 0 {
            return 1000;
        }
        let max = *self.loads.iter().max().expect("workers >= 1");
        // max / (total / workers), in milli.
        max.saturating_mul(1000).saturating_mul(self.workers as u64) / total
    }
}

/// The shard-parallel conservative engine.
///
/// Build with one world per region plus a [`Lookahead`]; prime initial
/// events; [`run`](ShardedEngine::run). Results are identical for every
/// worker count — see the module docs for the argument.
pub struct ShardedEngine<W: RegionWorld> {
    /// `Some` between epochs; taken while a worker owns the slot.
    slots: Vec<Option<Box<Slot<W>>>>,
    lookahead: Lookahead,
    horizon: SimTime,
    event_budget: u64,
    /// Dynamic region→worker packing (see [`StealPlanner`]); static
    /// `region % workers` assignment when off.
    steal: bool,
    /// Reused merge batch so the epoch barrier stops allocating once the
    /// cross-region rate stabilizes.
    merge_buf: Vec<(SimTime, RegionId, u32, RegionId, W::Event)>,
    /// Reused epoch-planning buffers: every region's next event time, and
    /// the working memory of [`Lookahead::safe_horizons`].
    peeks: Vec<Option<SimTime>>,
    horizon_scratch: HorizonScratch,
    /// Epochs run and cross-region events merged so far; zero on a fresh
    /// engine, carried through checkpoints and rolled back with the slots.
    epochs: u64,
    cross_region: u64,
    /// Probe bytes restored from a checkpoint, handed to the probe when
    /// [`run_supervised`](ShardedEngine::run_supervised) starts.
    resume_probe: Vec<u8>,
    /// Epoch of the checkpoint this engine was restored from.
    resume_from: Option<u64>,
}

impl<W: RegionWorld> ShardedEngine<W> {
    /// Create an engine over `worlds` (one per region, in region-id order)
    /// that will run until `horizon` (inclusive, matching the sequential
    /// engine's convention).
    pub fn new(worlds: Vec<W>, lookahead: Lookahead, horizon: SimTime) -> Self {
        assert_eq!(
            worlds.len(),
            lookahead.regions(),
            "one world per lookahead region"
        );
        let slots = worlds
            .into_iter()
            .enumerate()
            .map(|(i, world)| {
                Some(Box::new(Slot {
                    region: i as RegionId,
                    world,
                    queue: EventQueue::with_capacity(256),
                    outbox: Vec::new(),
                    committed: SimTime::ZERO,
                    processed: 0,
                    stopped: false,
                    last_busy_ns: 0,
                }))
            })
            .collect();
        ShardedEngine {
            slots,
            lookahead,
            horizon,
            event_budget: u64::MAX,
            steal: false,
            merge_buf: Vec::new(),
            peeks: Vec::new(),
            horizon_scratch: HorizonScratch::default(),
            epochs: 0,
            cross_region: 0,
            resume_probe: Vec::new(),
            resume_from: None,
        }
    }

    /// Cap the total number of dispatched events (runaway protection). The
    /// budget is checked at epoch boundaries, so a run may overshoot by at
    /// most one epoch — deterministically, whatever the worker count.
    pub fn with_event_budget(mut self, budget: u64) -> Self {
        self.event_budget = budget;
        self
    }

    /// Enable work stealing: re-pack active regions onto workers every
    /// epoch from the previous window's measured busy times instead of the
    /// static `region % workers` assignment. Results are bit-identical
    /// either way (the schedule only picks threads); with one worker the
    /// setting is inert. Not part of the scenario fingerprint — a resumed
    /// run may flip it.
    pub fn with_stealing(mut self, on: bool) -> Self {
        self.steal = on;
        self
    }

    /// Grow `region`'s event-queue backing storage by `additional` slots
    /// (capacity pre-sizing from a scenario's flow/churn plans, so the
    /// steady state never reallocates mid-window).
    pub fn reserve_region(&mut self, region: RegionId, additional: usize) {
        self.slot_mut(region as usize).queue.reserve(additional);
    }

    /// Schedule an initial event in `region` before the run starts.
    pub fn prime(&mut self, region: RegionId, time: SimTime, event: W::Event) {
        self.slot_mut(region as usize).queue.schedule(time, event);
    }

    fn slot(&self, i: usize) -> &Slot<W> {
        self.slots[i]
            .as_deref()
            .expect("slot present between epochs")
    }

    fn slot_mut(&mut self, i: usize) -> &mut Slot<W> {
        self.slots[i]
            .as_deref_mut()
            .expect("slot present between epochs")
    }

    /// Global minimum pending-event time across regions (the next barrier's
    /// cut position; `None` when every queue is empty).
    fn min_peek(&self) -> Option<SimTime> {
        (0..self.slots.len())
            .filter_map(|i| self.slot(i).queue.peek_time())
            .min()
    }

    fn total_processed(&self) -> u64 {
        (0..self.slots.len()).map(|i| self.slot(i).processed).sum()
    }

    /// Merge every region's outbox into the destination queues in
    /// deterministic `(timestamp, source region, emission sequence)` order,
    /// checking the conservative invariant against each destination's
    /// committed horizon. Returns the number of events exchanged.
    fn merge_outboxes(&mut self) -> u64 {
        // (time, src, seq-within-src) is a total order: seq disambiguates
        // within one source and src disambiguates across sources, so no two
        // entries share a key and the merge order is unique — which also
        // means an unstable sort is deterministic here.
        let mut batch = std::mem::take(&mut self.merge_buf);
        debug_assert!(batch.is_empty());
        for i in 0..self.slots.len() {
            let slot = self.slot_mut(i);
            let region = slot.region;
            for (seq, out) in slot.outbox.drain(..).enumerate() {
                batch.push((out.time, region, seq as u32, out.dst, out.event));
            }
        }
        if batch.is_empty() {
            self.merge_buf = batch;
            return 0;
        }
        batch.sort_unstable_by_key(|(t, src, seq, _, _)| (*t, *src, *seq));
        let n = batch.len() as u64;
        for (time, src, _, dst, event) in batch.drain(..) {
            let slot = self.slot_mut(dst as usize);
            assert!(
                time >= slot.committed,
                "conservative invariant violated: region {src} delivered an event at {time:?} \
                 below region {dst}'s committed horizon {:?}",
                slot.committed
            );
            slot.queue.schedule(time, event);
        }
        self.merge_buf = batch;
        n
    }

    /// One epoch preamble: decide whether to continue and which regions are
    /// active. Fills `safe` with per-region safe horizons and `jobs` with
    /// the active region indices; returns `Err(reason)` when the run is
    /// over.
    fn epoch_plan(
        &mut self,
        safe: &mut Vec<SimTime>,
        jobs: &mut Vec<usize>,
        sources: Option<&mut Vec<i64>>,
    ) -> Result<(), ShardStopReason> {
        if (0..self.slots.len()).any(|i| self.slot(i).stopped) {
            return Err(ShardStopReason::Stopped);
        }
        if self.total_processed() >= self.event_budget {
            return Err(ShardStopReason::EventBudget);
        }
        self.peeks.clear();
        self.peeks.extend(self.slots.iter().map(|slot| {
            let slot = slot.as_deref().expect("slot present between epochs");
            slot.queue.peek_time()
        }));
        let Some(t_min) = self.peeks.iter().flatten().min().copied() else {
            return Err(ShardStopReason::QueueEmpty);
        };
        if t_min > self.horizon {
            return Err(ShardStopReason::HorizonReached);
        }
        self.lookahead
            .safe_horizons(&self.peeks, &mut self.horizon_scratch, safe, sources);
        jobs.clear();
        for (i, (peek, &safe_i)) in self.peeks.iter().zip(safe.iter()).enumerate() {
            if peek.is_some_and(|t| t < safe_i && t <= self.horizon) {
                jobs.push(i);
            }
        }
        // Progress is guaranteed: the region holding t_min has
        // H = min_j(T_j + δ) > t_min because every T_j ≥ t_min and every
        // finite δ is positive, so it is always active.
        debug_assert!(
            !jobs.is_empty(),
            "conservative stall: global min {t_min:?} but no region is active"
        );
        Ok(())
    }

    /// Snapshot per-region counters before an epoch's windows run, so
    /// window samples can report deltas (profiling only).
    fn snapshot_pre_epoch(&self, s: &mut EpochScratch) {
        s.processed.clear();
        s.queue.clear();
        s.committed.clear();
        for i in 0..self.slots.len() {
            let slot = self.slot(i);
            s.processed.push(slot.processed);
            s.queue.push(slot.queue.len() as u64);
            s.committed.push(slot.committed.as_nanos());
        }
    }

    /// Deliver one [`WindowSample`] per region (ascending) for the epoch
    /// just executed. Must run before the merge drains the outboxes.
    fn emit_window_samples(
        &self,
        probe: &mut dyn ShardProbe,
        s: &EpochScratch,
        safe: &[SimTime],
        jobs: &[usize],
        epoch: u64,
    ) {
        for (i, &window_end) in safe.iter().enumerate().take(self.slots.len()) {
            let slot = self.slot(i);
            // `jobs` is built by an ascending scan, so it is sorted.
            let active = jobs.binary_search(&i).is_ok();
            probe.window(&WindowSample {
                epoch,
                region: i as RegionId,
                active,
                events: slot.processed - s.processed[i],
                busy_ns: if active { slot.last_busy_ns } else { 0 },
                queue_depth: s.queue[i],
                outbox: slot.outbox.len() as u64,
                window_start_ns: s.committed[i],
                window_end_ns: window_end.as_nanos(),
                bound_by: s.sources[i],
            });
        }
    }

    /// Run to completion using `threads` workers (clamped to the region
    /// count; 1 executes every window on the calling thread).
    pub fn run(self, threads: usize) -> (ShardRunReport, Vec<W>) {
        self.run_probed(threads, None)
    }

    /// [`run`](ShardedEngine::run) with an optional execution profiler.
    ///
    /// With `None` this is exactly `run` — no timing calls, no extra
    /// branches beyond one `Option` check per epoch. With a probe, windows
    /// are timed and per-epoch samples are delivered on the coordinator
    /// thread; simulation results are identical either way (the probe only
    /// observes slots between epochs).
    pub fn run_probed(
        self,
        threads: usize,
        probe: Option<&mut dyn ShardProbe>,
    ) -> (ShardRunReport, Vec<W>) {
        self.drive(threads, probe, None)
            .expect("only a supervisor reads or writes checkpoints")
    }

    /// The epoch loop behind [`run`](ShardedEngine::run),
    /// [`run_probed`](ShardedEngine::run_probed) and
    /// [`run_supervised`](ShardedEngine::run_supervised).
    ///
    /// Each epoch ships the active slots to a persistent pool over channels
    /// and collects them all back — the channel round-trip is the barrier.
    /// Assignment is static (`region % workers`, so per-region state tends
    /// to stay in one worker's cache) unless stealing re-packs it. A
    /// one-worker engine spawns no pool and a one-window epoch skips the
    /// round-trip; both run their windows on the coordinator.
    ///
    /// A [`Supervisor`] hooks in at three places and nowhere else: the
    /// pre-epoch barrier (interrupt and cadence checkpoints), window
    /// dispatch (injected-crash decisions), and the post-window triage of
    /// caught panics (rollback and replay, or abort). Without one, a caught
    /// panic is re-raised on the caller with its original payload.
    fn drive(
        mut self,
        threads: usize,
        mut probe: Option<&mut dyn ShardProbe>,
        mut sup: Option<&mut Supervisor<'_, W>>,
    ) -> Result<(ShardRunReport, Vec<W>), CheckpointError> {
        assert!(threads >= 1, "at least one thread");
        let workers = threads.min(self.slots.len());
        let t_run = Instant::now();
        let mut safe: Vec<SimTime> = Vec::with_capacity(self.slots.len());
        let mut jobs: Vec<usize> = Vec::with_capacity(self.slots.len());
        let mut scratch = EpochScratch::default();
        let horizon = self.horizon;
        let lookahead = self.lookahead.clone();
        // Planner state is wall-clock-only and deliberately not part of any
        // checkpoint: rollback, replay and resume all start from whatever
        // (possibly cold, possibly stale) predictions are at hand — any
        // schedule is equally correct.
        let stealing = self.steal && workers > 1;
        let mut planner = stealing.then(|| StealPlanner::new(self.slots.len(), workers));

        let reason = std::thread::scope(|scope| -> Result<ShardStopReason, CheckpointError> {
            let (done_tx, done_rx) = mpsc::channel::<(Job<W>, Option<PanicPayload>)>();
            let mut work_txs: Vec<mpsc::Sender<Job<W>>> = Vec::with_capacity(workers);
            if workers > 1 {
                for _ in 0..workers {
                    let (tx, rx) = mpsc::channel::<Job<W>>();
                    let done = done_tx.clone();
                    let lookahead = &lookahead;
                    work_txs.push(tx);
                    scope.spawn(move || {
                        while let Ok(mut job) = rx.recv() {
                            let panic = job.run(horizon, lookahead);
                            if done.send((job, panic)).is_err() {
                                break;
                            }
                        }
                    });
                }
            }
            drop(done_tx);
            loop {
                // Barrier: outboxes drained, no slot checked out — a
                // globally consistent cut.
                if let Some(s) = sup.as_deref_mut() {
                    if s.barrier(&self, probe.as_deref())? {
                        break Ok(ShardStopReason::Interrupted);
                    }
                }
                let will_emit =
                    probe.is_some() && sup.as_deref().is_none_or(|s| self.epochs >= s.max_emitted);
                let sources = will_emit.then_some(&mut scratch.sources);
                if let Err(reason) = self.epoch_plan(&mut safe, &mut jobs, sources) {
                    break Ok(reason);
                }
                // Stealing needs window timings even without a probe —
                // they are next epoch's cost predictions.
                let timed = will_emit || stealing;
                let t_epoch = will_emit.then(Instant::now);
                if will_emit {
                    self.snapshot_pre_epoch(&mut scratch);
                }
                self.epochs += 1;
                let epoch = self.epochs;
                let pooled = workers > 1 && jobs.len() > 1;
                // `Some(moved)` when the planner packed this epoch.
                let steal_moved = planner.as_mut().filter(|_| pooled).map(|pl| pl.plan(&jobs));
                let mut payloads: Vec<PanicPayload> = Vec::new();
                for (k, &i) in jobs.iter().enumerate() {
                    // Crash decisions are made here, on the coordinator, in
                    // ascending region order — identical for every worker
                    // count, and consumed so a replay cannot re-fire them.
                    let crash = sup
                        .as_deref_mut()
                        .and_then(|s| s.crash.decide(epoch, i as RegionId).then_some(epoch));
                    let mut job = Job {
                        slot: self.slots[i].take().expect("slot present"),
                        window_end: safe[i],
                        timed,
                        crash,
                    };
                    if pooled {
                        let w = planner
                            .as_ref()
                            .map_or(i % workers, |pl| pl.assignment[k] as usize);
                        work_txs[w]
                            .send(job)
                            .expect("worker alive for the whole run");
                    } else {
                        payloads.extend(job.run(horizon, &lookahead));
                        self.slots[i] = Some(job.slot);
                    }
                }
                if pooled {
                    for _ in 0..jobs.len() {
                        let (job, panic) = done_rx.recv().expect("worker returned its slot");
                        let i = job.slot.region as usize;
                        self.slots[i] = Some(job.slot);
                        payloads.extend(panic);
                    }
                }
                if let Some(pl) = planner.as_mut() {
                    for &i in &jobs {
                        pl.observe(i, self.slot(i).last_busy_ns);
                    }
                }
                if !payloads.is_empty() {
                    let Some(s) = sup.as_deref_mut() else {
                        resume_unwind(payloads.swap_remove(0));
                    };
                    // All injected: every region and counter is back at the
                    // anchor; replay. Probe gating makes the replay
                    // invisible in the results.
                    s.recover(&mut self, payloads)?;
                    continue;
                }
                if will_emit {
                    let p = probe.as_deref_mut().expect("will_emit implies a probe");
                    self.emit_window_samples(p, &scratch, &safe, &jobs, epoch);
                    if let (Some(moved), Some(pl)) = (steal_moved, planner.as_mut()) {
                        p.steal(epoch, moved, pl.measured_imbalance_milli(&jobs));
                    }
                    if let Some(s) = sup.as_deref_mut() {
                        s.max_emitted = epoch;
                    }
                }
                let t_merge = will_emit.then(Instant::now);
                let merged = self.merge_outboxes();
                self.cross_region += merged;
                if let (Some(p), Some(t_epoch), Some(t_merge)) =
                    (probe.as_deref_mut(), t_epoch, t_merge)
                {
                    let merge_ns = t_merge.elapsed().as_nanos() as u64;
                    let wall_ns = t_epoch.elapsed().as_nanos() as u64;
                    p.epoch_end(epoch, wall_ns, merged, merge_ns);
                }
            }
        })?;

        let end_time = (0..self.slots.len())
            .map(|i| self.slot(i).committed)
            .max()
            .unwrap_or(SimTime::ZERO)
            .min(self.horizon);
        let per_region: Vec<u64> = (0..self.slots.len())
            .map(|i| self.slot(i).processed)
            .collect();
        let report = ShardRunReport {
            reason,
            events_processed: per_region.iter().sum(),
            per_region,
            cross_region: self.cross_region,
            epochs: self.epochs,
            end_time,
        };
        if let Some(p) = probe {
            p.run_end(&report, t_run.elapsed().as_nanos() as u64);
        }
        let worlds = self
            .slots
            .into_iter()
            .map(|s| s.expect("slot present after run").world)
            .collect();
        Ok((report, worlds))
    }
}

/// Everything [`run_supervised`](ShardedEngine::run_supervised) adds to the
/// epoch loop, and the only state the loop keeps on its behalf.
struct Supervisor<'a, W: RegionWorld> {
    cfg: &'a SupervisorConfig,
    /// The [`CheckpointState`] capability — serialize the engine at a
    /// barrier, overwrite it from such a cut — as plain functions, so the
    /// epoch loop that calls them needs no such bound.
    encode: fn(&ShardedEngine<W>, Option<&dyn ShardProbe>) -> Vec<u8>,
    restore: fn(&mut ShardedEngine<W>, &[u8]) -> Result<(), CheckpointError>,
    /// Deliberately outside the rollback scope (see [`CrashState`]).
    crash: CrashState,
    every_ns: Option<u64>,
    /// Cadence marks are keyed on the global minimum pending time (the
    /// committed-horizon minimum never advances for idle regions).
    last_mark: u64,
    /// Rollback anchor: a full serialized cut at the run's first barrier,
    /// refreshed at every checkpoint mark, so recovery works even with
    /// checkpointing off (replay from the start). Held only under a
    /// [`CrashPlan`] — nothing else is ever rolled back.
    anchor: Option<Vec<u8>>,
    /// Epochs at or below this were already observed (in this process or
    /// the checkpointed one); probe callbacks for them are suppressed.
    max_emitted: u64,
    report: SupervisorReport,
}

impl<W: RegionWorld> Supervisor<'_, W> {
    /// Pre-epoch hook, called on a consistent cut: on the interrupt flag,
    /// write a final checkpoint and return `true` (stop); on a cadence mark,
    /// refresh the anchor and write a checkpoint.
    fn barrier(
        &mut self,
        eng: &ShardedEngine<W>,
        probe: Option<&dyn ShardProbe>,
    ) -> Result<bool, CheckpointError> {
        let interrupt = self.cfg.interrupt.as_ref();
        if interrupt.is_some_and(|f| f.load(Ordering::Relaxed)) {
            if self.cfg.checkpoint_dir.is_some() {
                let committed = eng.min_peek().map(|t| t.as_nanos()).unwrap_or_else(|| {
                    (0..eng.slots.len())
                        .map(|i| eng.slot(i).committed.as_nanos())
                        .max()
                        .unwrap_or(0)
                });
                self.write_checkpoint(eng, committed, &(self.encode)(eng, probe))?;
            }
            self.report.interrupted = true;
            return Ok(true);
        }
        if let (Some(every), Some(t_min)) = (self.every_ns, eng.min_peek()) {
            let mark = t_min.as_nanos() / every;
            if mark > self.last_mark {
                self.last_mark = mark;
                let cut = (self.encode)(eng, probe);
                self.write_checkpoint(eng, t_min.as_nanos(), &cut)?;
                if let Some(anchor) = &mut self.anchor {
                    *anchor = cut;
                }
            }
        }
        Ok(false)
    }

    /// Seal `cut` and write it atomically as the checkpoint file for the
    /// engine's current epoch (nothing without a checkpoint dir).
    fn write_checkpoint(
        &mut self,
        eng: &ShardedEngine<W>,
        committed_ns: u64,
        cut: &[u8],
    ) -> Result<(), CheckpointError> {
        let Some(dir) = &self.cfg.checkpoint_dir else {
            return Ok(());
        };
        let img = checkpoint::seal(
            self.cfg.scenario,
            eng.epochs,
            committed_ns,
            eng.slots.len() as u32,
            eng.total_processed(),
            cut,
        );
        let path = dir.join(checkpoint::file_name(eng.epochs));
        checkpoint::write_atomic(&path, &img)?;
        self.report.checkpoints_written += 1;
        self.report.last_checkpoint = Some(path);
        Ok(())
    }

    /// Post-window triage of the panics caught in one epoch. Harness-
    /// injected crashes roll the engine back to the anchor; a fatal panic
    /// wins over recovery, whatever order the payloads arrived in, and is
    /// re-raised after a loud note.
    fn recover(
        &mut self,
        eng: &mut ShardedEngine<W>,
        mut payloads: Vec<PanicPayload>,
    ) -> Result<(), CheckpointError> {
        let fatal = payloads
            .iter()
            .position(|p| fatal_panic(p.as_ref()).is_some());
        if let (None, Some(anchor)) = (fatal, &self.anchor) {
            self.report.recoveries += 1;
            return (self.restore)(eng, anchor);
        }
        let p = payloads.swap_remove(fatal.unwrap_or(0));
        eprintln!(
            "shard supervisor: {} in epoch {}; state cannot be trusted, aborting",
            fatal_panic(p.as_ref()).unwrap_or("crash injected outside the crash plan"),
            eng.epochs
        );
        resume_unwind(p)
    }
}

impl<W: RegionWorld + CheckpointState> ShardedEngine<W> {
    /// Serialize the complete engine state at an epoch barrier: run
    /// counters, then one length-prefixed block per region (committed
    /// horizon, processed count, stop flag, queue tie-break counters, every
    /// pending event with its sequence number, and the world's own state),
    /// then the probe's observer state. Must only be called at a barrier —
    /// outboxes drained, no slot checked out.
    fn encode_payload(&self, probe: Option<&dyn ShardProbe>) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u64(self.epochs);
        w.u64(self.cross_region);
        w.u32(self.slots.len() as u32);
        for i in 0..self.slots.len() {
            let slot = self.slot(i);
            debug_assert!(
                slot.outbox.is_empty(),
                "checkpoint off a barrier: outbox not drained"
            );
            let mut b = ByteWriter::new();
            b.u64(slot.committed.as_nanos());
            b.u64(slot.processed);
            b.u8(slot.stopped as u8);
            let (next_seq, sched_total) = slot.queue.seq_state();
            b.u64(next_seq);
            b.u64(sched_total);
            let entries = slot.queue.snapshot_entries();
            b.u64(entries.len() as u64);
            for (t, seq, ev) in entries {
                b.u64(t.as_nanos());
                b.u64(seq);
                W::encode_event(ev, &mut b);
            }
            let mut wb = ByteWriter::new();
            slot.world.encode_state(&mut wb);
            b.bytes(&wb.into_inner());
            w.bytes(&b.into_inner());
        }
        let mut pb = ByteWriter::new();
        if let Some(p) = probe {
            p.encode_probe(&mut pb);
        }
        w.bytes(&pb.into_inner());
        w.into_inner()
    }

    /// Overwrite the engine's state from a payload written by
    /// [`encode_payload`](ShardedEngine::encode_payload); the probe's
    /// observer bytes land in `resume_probe`. On error the engine may be
    /// partially overwritten and must be discarded.
    fn restore_payload(&mut self, payload: &[u8]) -> Result<(), CheckpointError> {
        let mut r = ByteReader::new(payload);
        self.epochs = r.u64()?;
        self.cross_region = r.u64()?;
        let n = r.u32()? as usize;
        if n != self.slots.len() {
            return Err(CheckpointError::Corrupt(format!(
                "region count mismatch: checkpoint has {n}, engine has {}",
                self.slots.len()
            )));
        }
        for i in 0..n {
            let block = r.bytes()?;
            let mut br = ByteReader::new(block);
            let slot = self.slot_mut(i);
            slot.committed = SimTime(br.u64()?);
            slot.processed = br.u64()?;
            slot.stopped = br.u8()? != 0;
            let next_seq = br.u64()?;
            let sched_total = br.u64()?;
            slot.outbox.clear();
            slot.queue.clear();
            let pending = br.u64()?;
            for _ in 0..pending {
                let t = SimTime(br.u64()?);
                let seq = br.u64()?;
                let ev = W::decode_event(&mut br)?;
                slot.queue.schedule_with_seq(t, seq, ev);
            }
            slot.queue.set_seq_state(next_seq, sched_total);
            let wblob = br.bytes()?;
            let mut wr = ByteReader::new(wblob);
            slot.world.decode_state(&mut wr)?;
            wr.expect_end()?;
            br.expect_end()?;
        }
        self.resume_probe = r.bytes()?.to_vec();
        r.expect_end()
    }

    /// Restore a checkpoint image into this (freshly built, identically
    /// configured) engine. Validates magic, version, checksum, and the
    /// scenario fingerprint; a subsequent
    /// [`run_supervised`](ShardedEngine::run_supervised) continues exactly
    /// where the checkpointed run stood. On error the engine must be
    /// discarded.
    pub fn restore(
        &mut self,
        bytes: &[u8],
        expected_scenario: u64,
    ) -> Result<CheckpointMeta, CheckpointError> {
        let (meta, payload) = checkpoint::open(bytes)?;
        if meta.scenario != expected_scenario {
            return Err(CheckpointError::ScenarioMismatch {
                found: meta.scenario,
                expected: expected_scenario,
            });
        }
        self.restore_payload(payload)?;
        self.resume_from = Some(meta.epoch);
        Ok(meta)
    }

    /// [`run_probed`](ShardedEngine::run_probed) under a crash-tolerant
    /// supervisor: worker panics are caught and classified — harness-
    /// injected crashes ([`CrashPlan`]) roll every region back to the last
    /// checkpoint anchor and replay; invariant violations and unknown
    /// panics abort loudly. Checkpoints are taken at epoch barriers (the
    /// engine's globally consistent cuts) whenever the global minimum
    /// pending-event time crosses a multiple of
    /// [`SupervisorConfig::checkpoint_every`], and written atomically to
    /// [`SupervisorConfig::checkpoint_dir`]. The interrupt flag stops the
    /// run at the next barrier after writing a final checkpoint.
    ///
    /// Recovery and resume are bit-identical: a replayed or resumed run
    /// produces exactly the worlds, report counters, and probe observations
    /// of an uninterrupted one, for any worker count. Probe callbacks for
    /// epochs already observed (before a rollback, or before the resumed
    /// checkpoint) are suppressed, so observers see each epoch exactly
    /// once.
    pub fn run_supervised(
        mut self,
        threads: usize,
        mut probe: Option<&mut dyn ShardProbe>,
        cfg: &SupervisorConfig,
    ) -> Result<(ShardRunReport, Vec<W>, SupervisorReport), CheckpointError> {
        if !self.resume_probe.is_empty() {
            if let Some(p) = probe.as_deref_mut() {
                let bytes = std::mem::take(&mut self.resume_probe);
                let mut r = ByteReader::new(&bytes);
                p.decode_probe(&mut r)?;
                r.expect_end()?;
            }
        }
        let every_ns = cfg.checkpoint_every.map(|d| d.0.max(1));
        let anchor = if cfg.crash_plan.is_empty() {
            None
        } else {
            install_quiet_crash_hook();
            Some(self.encode_payload(probe.as_deref()))
        };
        let mut sup = Supervisor {
            cfg,
            encode: Self::encode_payload,
            restore: Self::restore_payload,
            crash: CrashState::new(&cfg.crash_plan),
            every_ns,
            last_mark: match (every_ns, self.min_peek()) {
                (Some(e), Some(t)) => t.as_nanos() / e,
                _ => 0,
            },
            anchor,
            max_emitted: self.epochs,
            report: SupervisorReport {
                resumed_from_epoch: self.resume_from,
                ..SupervisorReport::default()
            },
        };
        let (report, worlds) = self.drive(threads, probe, Some(&mut sup))?;
        Ok((report, worlds, sup.report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ring of regions passing one token carrying its remaining hop
    /// count; every region logs each visit.
    struct Ring {
        n: u32,
        hop: SimDuration,
        visits: Vec<(u64, u32)>,
    }

    #[derive(Debug)]
    struct Token(u32);

    impl RegionWorld for Ring {
        type Event = Token;
        fn handle(&mut self, ev: Token, ctx: &mut RegionCtx<'_, Token>) {
            self.visits.push((ctx.now().as_nanos(), ctx.region()));
            if ev.0 == 0 {
                return;
            }
            let dst = (ctx.region() + 1) % self.n;
            let at = ctx.now() + self.hop;
            ctx.send(dst, at, Token(ev.0 - 1));
        }
    }

    fn ring_engine(n: u32, hops: u32, threads: usize) -> (ShardRunReport, Vec<Ring>) {
        let hop = SimDuration::from_micros(250);
        let worlds: Vec<Ring> = (0..n)
            .map(|_| Ring {
                n,
                hop,
                visits: vec![],
            })
            .collect();
        let mut eng = ShardedEngine::new(
            worlds,
            Lookahead::uniform(n as usize, hop),
            SimTime::from_secs(10),
        );
        eng.prime(0, SimTime::ZERO, Token(hops));
        eng.run(threads)
    }

    #[test]
    fn token_ring_runs_to_completion() {
        let (report, worlds) = ring_engine(4, 11, 1);
        assert_eq!(report.reason, ShardStopReason::QueueEmpty);
        assert_eq!(report.events_processed, 12);
        assert_eq!(report.cross_region, 11);
        let visited: usize = worlds.iter().map(|w| w.visits.len()).sum();
        assert_eq!(visited, 12);
    }

    #[test]
    fn worker_count_does_not_change_ring_results() {
        let (r1, w1) = ring_engine(6, 100, 1);
        for threads in [2, 3, 8] {
            let (rt, wt) = ring_engine(6, 100, threads);
            assert_eq!(r1.events_processed, rt.events_processed);
            assert_eq!(r1.epochs, rt.epochs);
            assert_eq!(r1.end_time, rt.end_time);
            for (a, b) in w1.iter().zip(&wt) {
                assert_eq!(a.visits, b.visits);
            }
        }
    }

    /// All regions concurrently active: periodic local ticks plus
    /// cross-region messages every third tick. Exercises the real worker
    /// pool (several jobs per epoch), unlike the single-token ring.
    struct Chatter {
        n: u32,
        log: Vec<(u64, u32)>,
    }

    #[derive(Debug)]
    enum ChatterEv {
        Tick(u32),
        Msg(u32),
    }

    impl RegionWorld for Chatter {
        type Event = ChatterEv;
        fn handle(&mut self, ev: ChatterEv, ctx: &mut RegionCtx<'_, ChatterEv>) {
            match ev {
                ChatterEv::Tick(k) => {
                    self.log.push((ctx.now().as_nanos(), k));
                    if k < 200 {
                        ctx.after(SimDuration::from_millis(1), ChatterEv::Tick(k + 1));
                    }
                    if k % 3 == 0 {
                        let dst = (ctx.region() + 1) % self.n;
                        ctx.send(
                            dst,
                            ctx.now() + SimDuration::from_micros(250),
                            ChatterEv::Msg(k),
                        );
                    }
                }
                ChatterEv::Msg(k) => {
                    self.log.push((ctx.now().as_nanos(), 1_000_000 + k));
                }
            }
        }
    }

    fn chatter_engine(n: u32, threads: usize) -> (ShardRunReport, Vec<Chatter>) {
        let worlds: Vec<Chatter> = (0..n).map(|_| Chatter { n, log: vec![] }).collect();
        let mut eng = ShardedEngine::new(
            worlds,
            Lookahead::uniform(n as usize, SimDuration::from_micros(250)),
            SimTime::from_secs(5),
        );
        for r in 0..n {
            // Staggered starts so timestamps across regions interleave.
            eng.prime(r, SimTime::from_micros(7 * r as u64), ChatterEv::Tick(0));
        }
        eng.run(threads)
    }

    #[test]
    fn concurrent_regions_are_bit_identical_across_worker_counts() {
        let (r1, w1) = chatter_engine(8, 1);
        assert_eq!(r1.reason, ShardStopReason::QueueEmpty);
        // 8 regions × (201 ticks + 67 messages received).
        assert_eq!(r1.events_processed, 8 * (201 + 67));
        for threads in [2, 4, 8] {
            let (rt, wt) = chatter_engine(8, threads);
            assert_eq!(r1.events_processed, rt.events_processed);
            assert_eq!(r1.cross_region, rt.cross_region);
            assert_eq!(r1.epochs, rt.epochs);
            assert_eq!(r1.per_region, rt.per_region);
            assert_eq!(r1.end_time, rt.end_time);
            for (a, b) in w1.iter().zip(&wt) {
                assert_eq!(a.log, b.log);
            }
        }
    }

    fn chatter_engine_steal(n: u32, threads: usize) -> (ShardRunReport, Vec<Chatter>) {
        let worlds: Vec<Chatter> = (0..n).map(|_| Chatter { n, log: vec![] }).collect();
        let mut eng = ShardedEngine::new(
            worlds,
            Lookahead::uniform(n as usize, SimDuration::from_micros(250)),
            SimTime::from_secs(5),
        )
        .with_stealing(true);
        for r in 0..n {
            eng.prime(r, SimTime::from_micros(7 * r as u64), ChatterEv::Tick(0));
        }
        eng.run(threads)
    }

    #[test]
    fn stealing_is_bit_identical_to_static_assignment() {
        let (r_static, w_static) = chatter_engine(8, 1);
        for threads in [1, 2, 3, 8] {
            let (rs, ws) = chatter_engine_steal(8, threads);
            assert_eq!(r_static.events_processed, rs.events_processed);
            assert_eq!(r_static.cross_region, rs.cross_region);
            assert_eq!(r_static.epochs, rs.epochs);
            assert_eq!(r_static.per_region, rs.per_region);
            assert_eq!(r_static.end_time, rs.end_time);
            for (a, b) in w_static.iter().zip(&ws) {
                assert_eq!(a.log, b.log);
            }
        }
    }

    #[test]
    fn steal_planner_packs_longest_first_and_counts_moves() {
        let mut pl = StealPlanner::new(6, 2);
        // Region costs: 0:100, 1:10, 2:90, 3:10, 4:0, 5:0.
        pl.observe(0, 100);
        pl.observe(1, 10);
        pl.observe(2, 90);
        pl.observe(3, 10);
        let jobs = vec![0, 1, 2, 3, 4, 5];
        let moved = pl.plan(&jobs);
        // LPT: 0→w0(100), 2→w1(90), 1→w1(100), 3→w0(110), 4→w1(101),
        // 5→w0(111)... assignment is deterministic given the costs.
        assert_eq!(pl.assignment.len(), jobs.len());
        let w0: u64 = jobs
            .iter()
            .enumerate()
            .filter(|&(k, _)| pl.assignment[k] == 0)
            .map(|(_, &r)| [100u64, 10, 90, 10, 0, 0][r].max(1))
            .sum();
        let w1: u64 = jobs
            .iter()
            .enumerate()
            .filter(|&(k, _)| pl.assignment[k] == 1)
            .map(|(_, &r)| [100u64, 10, 90, 10, 0, 0][r].max(1))
            .sum();
        // LPT on these costs lands within one smallest item of even.
        assert!(w0.abs_diff(w1) <= 10, "w0={w0} w1={w1}");
        // Static homes were region % 2; some regions must have moved.
        assert!(moved > 0);
        // Re-planning with unchanged costs is stable: nothing moves again.
        let moved2 = pl.plan(&jobs);
        assert_eq!(moved2, 0);
        let imb = pl.measured_imbalance_milli(&jobs);
        assert!((1000..1200).contains(&imb), "imbalance {imb}");
    }

    #[test]
    fn horizon_cuts_off() {
        // 250 µs per hop, 10 s horizon ⇒ visits at 0, 250 µs, …, 10 s
        // exactly: 40 001 events; the next lies past the horizon.
        let (report, worlds) = ring_engine(3, 100_000, 2);
        assert_eq!(report.reason, ShardStopReason::HorizonReached);
        let visited: usize = worlds.iter().map(|w| w.visits.len()).sum();
        assert_eq!(visited, 40_001);
    }

    #[test]
    fn event_budget_stops() {
        let hop = SimDuration::from_micros(250);
        let worlds: Vec<Ring> = (0..4)
            .map(|_| Ring {
                n: 4,
                hop,
                visits: vec![],
            })
            .collect();
        let mut eng = ShardedEngine::new(
            worlds,
            Lookahead::uniform(4, hop),
            SimTime::MAX - SimDuration::from_secs(1),
        )
        .with_event_budget(57);
        eng.prime(0, SimTime::ZERO, Token(u32::MAX));
        let (report, _) = eng.run(2);
        assert_eq!(report.reason, ShardStopReason::EventBudget);
        assert!(report.events_processed >= 57);
    }

    #[test]
    #[should_panic(expected = "lookahead violation")]
    fn under_declared_lookahead_panics() {
        struct Cheater;
        impl RegionWorld for Cheater {
            type Event = ();
            fn handle(&mut self, _ev: (), ctx: &mut RegionCtx<'_, ()>) {
                // Declared lookahead is 1 ms but the send arrives in 1 µs.
                let at = ctx.now() + SimDuration::from_micros(1);
                ctx.send(1, at, ());
            }
        }
        let mut eng = ShardedEngine::new(
            vec![Cheater, Cheater],
            Lookahead::uniform(2, SimDuration::from_millis(1)),
            SimTime::from_secs(1),
        );
        eng.prime(0, SimTime::ZERO, ());
        let _ = eng.run(1);
    }

    #[test]
    fn stop_is_deterministic_across_threads() {
        /// Stops the run at the 10th visit of region 0.
        struct Stopper {
            n: u32,
            seen: u32,
        }
        impl RegionWorld for Stopper {
            type Event = ();
            fn handle(&mut self, _ev: (), ctx: &mut RegionCtx<'_, ()>) {
                if ctx.region() == 0 {
                    self.seen += 1;
                    if self.seen == 10 {
                        ctx.stop();
                        return;
                    }
                }
                let dst = (ctx.region() + 1) % self.n;
                ctx.send(dst, ctx.now() + SimDuration::from_micros(100), ());
            }
        }
        let run = |threads: usize| {
            let worlds: Vec<Stopper> = (0..5).map(|_| Stopper { n: 5, seen: 0 }).collect();
            let mut eng = ShardedEngine::new(
                worlds,
                Lookahead::uniform(5, SimDuration::from_micros(100)),
                SimTime::from_secs(60),
            );
            eng.prime(0, SimTime::ZERO, ());
            let (report, worlds) = eng.run(threads);
            (report.reason, report.events_processed, worlds[0].seen)
        };
        let (ra, ea, sa) = run(1);
        let (rb, eb, sb) = run(4);
        assert_eq!(ra, ShardStopReason::Stopped);
        assert_eq!((ra, ea, sa), (rb, eb, sb));
    }

    #[test]
    fn single_region_degenerates_to_sequential() {
        struct Count {
            fired: Vec<u64>,
        }
        impl RegionWorld for Count {
            type Event = u64;
            fn handle(&mut self, ev: u64, ctx: &mut RegionCtx<'_, u64>) {
                self.fired.push(ev);
                if ev < 5 {
                    ctx.after(SimDuration::from_secs(1), ev + 1);
                }
            }
        }
        let mut eng = ShardedEngine::new(
            vec![Count { fired: vec![] }],
            Lookahead::uniform(1, SimDuration::ZERO),
            SimTime::from_secs(100),
        );
        eng.prime(0, SimTime::ZERO, 0);
        let (report, worlds) = eng.run(1);
        assert_eq!(report.reason, ShardStopReason::QueueEmpty);
        assert_eq!(worlds[0].fired, vec![0, 1, 2, 3, 4, 5]);
        // One region means one unbounded window: the whole run is a single
        // epoch.
        assert_eq!(report.epochs, 1);
    }

    #[test]
    fn never_linked_regions_run_fully_independently() {
        struct Island {
            ticks: u32,
        }
        impl RegionWorld for Island {
            type Event = ();
            fn handle(&mut self, _ev: (), ctx: &mut RegionCtx<'_, ()>) {
                self.ticks += 1;
                if self.ticks < 1000 {
                    ctx.after(SimDuration::from_millis(1), ());
                }
            }
        }
        let worlds: Vec<Island> = (0..4).map(|_| Island { ticks: 0 }).collect();
        let mut eng = ShardedEngine::new(
            worlds,
            Lookahead::from_fn(4, |_, _| NEVER),
            SimTime::from_secs(10),
        );
        for r in 0..4 {
            eng.prime(r, SimTime(r as u64), ());
        }
        let (report, worlds) = eng.run(4);
        assert_eq!(report.reason, ShardStopReason::QueueEmpty);
        assert!(worlds.iter().all(|w| w.ticks == 1000));
        // No links ⇒ every safe horizon is ∞ ⇒ each region drains in one
        // window and the run is a single epoch.
        assert_eq!(report.epochs, 1);
    }

    #[test]
    fn closure_is_built_only_when_influence_is_asked() {
        // The 1 M-node ParMesh grid: 51 × 51 regions, ring-1 adjacency. A
        // dense closure would be 1.8e10 Floyd–Warshall steps here.
        const SIDE: u32 = 51;
        let hop = SimDuration::from_millis(1);
        let t0 = Instant::now();
        let la = Lookahead::from_fn((SIDE * SIDE) as usize, |a, b| {
            let (dx, dy) = ((a % SIDE).abs_diff(b % SIDE), (a / SIDE).abs_diff(b / SIDE));
            if dx.max(dy) <= 1 {
                hop
            } else {
                NEVER
            }
        });
        let n = la.regions();
        // Only the corner region has a pending event.
        let mut peeks = vec![None; n];
        peeks[0] = Some(SimTime::ZERO);
        let (mut safe, mut sources) = (Vec::new(), Vec::new());
        la.safe_horizons(
            &peeks,
            &mut HorizonScratch::default(),
            &mut safe,
            Some(&mut sources),
        );
        assert!(t0.elapsed().as_secs_f64() < 1.0, "{:?}", t0.elapsed());
        assert!(la.closed.get().is_none(), "planning built the closure");
        // Its own event can come back to it through a neighbour: 0 → 1 → 0.
        assert_eq!((safe[0], sources[0]), (SimTime(2_000_000), 0));
        assert_eq!((safe[1], sources[1]), (SimTime(1_000_000), 0));
        assert_eq!((safe[n - 1], sources[n - 1]), (SimTime(50_000_000), 0));
        assert_eq!(la.between(0, 1), hop);
        assert_eq!(la.between(0, 2), NEVER);

        // Asking for influence builds it, once, on a small instance.
        let small = Lookahead::uniform(3, hop);
        assert!(small.closed.get().is_none());
        assert_eq!(small.influence(0, 0), SimDuration::from_millis(2));
        assert!(small.closed.get().is_some());
    }

    /// Records everything a probe sees, keeping only sim-derived fields so
    /// runs can be compared across worker counts.
    // (epoch, region, active, events, queue_depth, outbox, start, end, bound_by)
    type WindowRow = (u64, u32, bool, u64, u64, u64, u64, u64, i64);

    #[derive(Default)]
    struct Recorder {
        windows: Vec<WindowRow>,
        merges: Vec<(u64, u64)>, // (epoch, merged)
        run: Option<(u64, u64)>, // (events_processed, epochs)
        /// Every callback in delivery order: (`w`indow | `s`teal |
        /// `e`poch_end | `r`un_end, epoch).
        calls: Vec<(char, u64)>,
    }

    impl ShardProbe for Recorder {
        fn window(&mut self, s: &WindowSample) {
            self.calls.push(('w', s.epoch));
            self.windows.push((
                s.epoch,
                s.region,
                s.active,
                s.events,
                s.queue_depth,
                s.outbox,
                s.window_start_ns,
                s.window_end_ns,
                s.bound_by,
            ));
        }
        fn epoch_end(&mut self, epoch: u64, _wall_ns: u64, merged: u64, _merge_ns: u64) {
            self.calls.push(('e', epoch));
            self.merges.push((epoch, merged));
        }
        fn run_end(&mut self, report: &ShardRunReport, _wall_ns: u64) {
            self.calls.push(('r', report.epochs));
            self.run = Some((report.events_processed, report.epochs));
        }
        fn steal(&mut self, epoch: u64, _moved: u64, _imbalance_milli: u64) {
            self.calls.push(('s', epoch));
        }
    }

    #[test]
    fn probe_samples_are_identical_across_worker_counts() {
        let run = |threads: usize| {
            let hop = SimDuration::from_micros(250);
            let worlds: Vec<Ring> = (0..6)
                .map(|_| Ring {
                    n: 6,
                    hop,
                    visits: vec![],
                })
                .collect();
            let mut eng =
                ShardedEngine::new(worlds, Lookahead::uniform(6, hop), SimTime::from_secs(1));
            eng.prime(0, SimTime::ZERO, Token(300));
            let mut rec = Recorder::default();
            let (report, _) = eng.run_probed(threads, Some(&mut rec));
            (report.events_processed, rec)
        };
        let (e1, r1) = run(1);
        let (e2, r2) = run(2);
        let (e8, r8) = run(8);
        assert_eq!(e1, 301);
        assert_eq!((e1, e2), (e2, e8));
        assert!(!r1.windows.is_empty());
        assert_eq!(r1.windows, r2.windows);
        assert_eq!(r1.windows, r8.windows);
        assert_eq!(r1.merges, r2.merges);
        assert_eq!(r1.merges, r8.merges);
        assert_eq!(r1.run, r2.run);
        assert_eq!(r1.run, r8.run);
        // Every window's bound is attributable: either a region index or -1.
        assert!(r1
            .windows
            .iter()
            .all(|w| w.8 == -1 || (w.8 >= 0 && w.8 < 6)));

        // One callback order in every run mode: per epoch, every region's
        // `window`, then `steal` if the planner packed it, then `epoch_end`.
        let mut plain = Recorder::default();
        let eng = chatter_sup_engine(4).with_stealing(true);
        eng.run_probed(2, Some(&mut plain));
        let mut sup = Recorder::default();
        let eng = chatter_sup_engine(4).with_stealing(true);
        eng.run_supervised(2, Some(&mut sup), &SupervisorConfig::default())
            .unwrap();
        assert_eq!(plain.calls, sup.calls);
        assert_eq!(plain.calls.last(), Some(&('r', plain.merges.len() as u64)));
        let steals: Vec<usize> = (0..plain.calls.len())
            .filter(|&k| plain.calls[k].0 == 's')
            .collect();
        assert!(!steals.is_empty(), "no epoch was packed by the planner");
        for k in steals {
            let epoch = plain.calls[k].1;
            assert_eq!(plain.calls[k - 1], ('w', epoch));
            assert_eq!(plain.calls[k + 1], ('e', epoch));
        }
    }

    /// Ticks every 100 µs; region 0 hits a model bug on its 4th event, in a
    /// window that runs on the pool next to the other regions' windows.
    struct Ticker(u32);

    impl RegionWorld for Ticker {
        type Event = ();
        fn handle(&mut self, _: (), ctx: &mut RegionCtx<'_, ()>) {
            self.0 += 1;
            if ctx.region() == 0 && self.0 == 4 {
                panic!("model bug: unexpected state");
            }
            ctx.after(SimDuration::from_micros(100), ());
        }
    }

    impl CheckpointState for Ticker {
        fn encode_state(&self, out: &mut ByteWriter) {
            out.u32(self.0);
        }
        fn decode_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CheckpointError> {
            self.0 = r.u32()?;
            Ok(())
        }
        fn encode_event(_: &(), _: &mut ByteWriter) {}
        fn decode_event(_: &mut ByteReader<'_>) -> Result<(), CheckpointError> {
            Ok(())
        }
    }

    /// Each entry point runs on a helper thread under a watchdog: a worker
    /// that died with its slot used to leave the coordinator waiting forever.
    #[test]
    fn a_panicking_window_reaches_the_caller_in_every_run_mode() {
        for steal in [false, true] {
            for mode in ["run", "run_probed", "run_supervised"] {
                let (tx, rx) = mpsc::channel();
                std::thread::spawn(move || {
                    let worlds = (0..3).map(|_| Ticker(0)).collect();
                    let la = Lookahead::uniform(3, SimDuration::from_millis(1));
                    let mut eng =
                        ShardedEngine::new(worlds, la, SimTime::from_secs(1)).with_stealing(steal);
                    for r in 0..3 {
                        eng.prime(r, SimTime::ZERO, ());
                    }
                    let outcome = catch_unwind(AssertUnwindSafe(|| match mode {
                        "run" => drop(eng.run(2)),
                        "run_probed" => drop(eng.run_probed(2, Some(&mut Recorder::default()))),
                        _ => drop(eng.run_supervised(2, None, &SupervisorConfig::default())),
                    }));
                    let payload = outcome.err().map(|p| p.downcast_ref::<&str>().copied());
                    let _ = tx.send(payload);
                });
                let payload = rx
                    .recv_timeout(std::time::Duration::from_secs(10))
                    .unwrap_or_else(|_| panic!("{mode}(2), steal {steal}: hung on a dead worker"));
                assert_eq!(
                    payload,
                    Some(Some("model bug: unexpected state")),
                    "{mode}(2), steal {steal}"
                );
            }
        }
    }

    #[test]
    fn probing_does_not_change_results() {
        let base = ring_engine(5, 400, 2);
        let hop = SimDuration::from_micros(250);
        let worlds: Vec<Ring> = (0..5)
            .map(|_| Ring {
                n: 5,
                hop,
                visits: vec![],
            })
            .collect();
        let mut eng =
            ShardedEngine::new(worlds, Lookahead::uniform(5, hop), SimTime::from_secs(10));
        eng.prime(0, SimTime::ZERO, Token(400));
        let mut rec = Recorder::default();
        let (report, worlds) = eng.run_probed(2, Some(&mut rec));
        assert_eq!(report.events_processed, base.0.events_processed);
        assert_eq!(report.epochs, base.0.epochs);
        for (a, b) in worlds.iter().zip(base.1.iter()) {
            assert_eq!(a.visits, b.visits);
        }
    }

    // ---- crash tolerance & checkpointing ----

    impl CheckpointState for Chatter {
        fn encode_state(&self, out: &mut ByteWriter) {
            out.u32(self.n);
            out.u64(self.log.len() as u64);
            for &(t, k) in &self.log {
                out.u64(t);
                out.u32(k);
            }
        }
        fn decode_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CheckpointError> {
            self.n = r.u32()?;
            let len = r.u64()?;
            self.log.clear();
            for _ in 0..len {
                let t = r.u64()?;
                let k = r.u32()?;
                self.log.push((t, k));
            }
            Ok(())
        }
        fn encode_event(event: &ChatterEv, out: &mut ByteWriter) {
            match event {
                ChatterEv::Tick(k) => {
                    out.u8(0);
                    out.u32(*k);
                }
                ChatterEv::Msg(k) => {
                    out.u8(1);
                    out.u32(*k);
                }
            }
        }
        fn decode_event(r: &mut ByteReader<'_>) -> Result<ChatterEv, CheckpointError> {
            match r.u8()? {
                0 => Ok(ChatterEv::Tick(r.u32()?)),
                1 => Ok(ChatterEv::Msg(r.u32()?)),
                t => Err(CheckpointError::Corrupt(format!("bad chatter tag {t}"))),
            }
        }
    }

    fn chatter_worlds(n: u32) -> Vec<Chatter> {
        (0..n).map(|_| Chatter { n, log: vec![] }).collect()
    }

    fn chatter_sup_engine(n: u32) -> ShardedEngine<Chatter> {
        let mut eng = ShardedEngine::new(
            chatter_worlds(n),
            Lookahead::uniform(n as usize, SimDuration::from_micros(250)),
            SimTime::from_secs(5),
        );
        for r in 0..n {
            eng.prime(r, SimTime::from_micros(7 * r as u64), ChatterEv::Tick(0));
        }
        eng
    }

    fn temp_ckpt_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("wmn_shard_ckpt_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn supervised_without_features_matches_plain() {
        let (rp, wp) = chatter_engine(6, 2);
        let cfg = SupervisorConfig::default();
        let (rs, ws, sup) = chatter_sup_engine(6)
            .run_supervised(2, None, &cfg)
            .expect("supervised run");
        assert_eq!(rp.events_processed, rs.events_processed);
        assert_eq!(rp.epochs, rs.epochs);
        assert_eq!(rp.cross_region, rs.cross_region);
        assert_eq!(rp.per_region, rs.per_region);
        for (a, b) in wp.iter().zip(&ws) {
            assert_eq!(a.log, b.log);
        }
        assert_eq!(sup, SupervisorReport::default());
    }

    #[test]
    fn injected_crashes_recover_bit_identically_across_threads() {
        let (rp, wp) = chatter_engine(6, 1);
        for threads in [1usize, 4] {
            let cfg = SupervisorConfig {
                crash_plan: CrashPlan {
                    scripted: vec![(3, 1), (5, 0)],
                    stochastic: None,
                },
                checkpoint_every: Some(SimDuration::from_millis(20)),
                ..SupervisorConfig::default()
            };
            let (rs, ws, sup) = chatter_sup_engine(6)
                .run_supervised(threads, None, &cfg)
                .expect("supervised run");
            assert_eq!(sup.recoveries, 2, "threads={threads}");
            assert_eq!(
                rp.events_processed, rs.events_processed,
                "threads={threads}"
            );
            assert_eq!(rp.epochs, rs.epochs);
            assert_eq!(rp.cross_region, rs.cross_region);
            for (a, b) in wp.iter().zip(&ws) {
                assert_eq!(a.log, b.log);
            }
        }
    }

    #[test]
    fn stochastic_crashes_recover_bit_identically() {
        let (rp, wp) = chatter_engine(4, 1);
        let cfg = SupervisorConfig {
            crash_plan: CrashPlan {
                scripted: vec![],
                stochastic: Some(StochasticCrash {
                    rate: 0.05,
                    seed: 99,
                    max: 3,
                }),
            },
            ..SupervisorConfig::default()
        };
        let (rs, ws, sup) = chatter_sup_engine(4)
            .run_supervised(4, None, &cfg)
            .expect("supervised run");
        assert!(sup.recoveries >= 1, "stochastic plan never fired");
        assert_eq!(rp.events_processed, rs.events_processed);
        for (a, b) in wp.iter().zip(&ws) {
            assert_eq!(a.log, b.log);
        }
    }

    #[test]
    fn crash_recovery_preserves_probe_observations() {
        // Plain probed run as the reference observation stream.
        let mut plain = Recorder::default();
        let (base, _) = chatter_sup_engine(6).run_probed(2, Some(&mut plain));
        let mut rec = Recorder::default();
        let cfg = SupervisorConfig {
            crash_plan: CrashPlan {
                scripted: vec![(4, 2)],
                stochastic: None,
            },
            checkpoint_every: Some(SimDuration::from_millis(20)),
            ..SupervisorConfig::default()
        };
        let (rs, _, sup) = chatter_sup_engine(6)
            .run_supervised(2, Some(&mut rec), &cfg)
            .expect("supervised run");
        assert_eq!(sup.recoveries, 1);
        assert_eq!(base.events_processed, rs.events_processed);
        assert_eq!(plain.windows, rec.windows);
        assert_eq!(plain.merges, rec.merges);
        assert_eq!(plain.run, rec.run);
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let dir = temp_ckpt_dir("resume");
        let (rp, wp) = chatter_engine(6, 1);
        let cfg = SupervisorConfig {
            scenario: 0x5EED,
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: Some(SimDuration::from_millis(20)),
            ..SupervisorConfig::default()
        };
        let (_, _, sup) = chatter_sup_engine(6)
            .run_supervised(2, None, &cfg)
            .expect("checkpointed run");
        assert!(sup.checkpoints_written >= 2, "want several checkpoints");
        let files = checkpoint::list_dir(&dir).expect("list");
        // Resume from a mid-run checkpoint in a fresh engine (not primed:
        // restore overwrites every queue) at a different worker count.
        let (epoch, mid) = &files[files.len() / 2];
        let bytes = checkpoint::read_file(mid).expect("read");
        let mut eng = ShardedEngine::new(
            chatter_worlds(6),
            Lookahead::uniform(6, SimDuration::from_micros(250)),
            SimTime::from_secs(5),
        );
        let meta = eng.restore(&bytes, 0x5EED).expect("restore");
        assert_eq!(Some(meta.epoch), *epoch);
        let (rr, wr, sup2) = eng
            .run_supervised(4, None, &SupervisorConfig::default())
            .expect("resumed run");
        assert_eq!(sup2.resumed_from_epoch, Some(meta.epoch));
        assert_eq!(rp.events_processed, rr.events_processed);
        assert_eq!(rp.epochs, rr.epochs);
        assert_eq!(rp.cross_region, rr.cross_region);
        assert_eq!(rp.end_time, rr.end_time);
        for (a, b) in wp.iter().zip(&wr) {
            assert_eq!(a.log, b.log);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A checkpoint carries no scheduler state: a run checkpointed with
    /// stealing on may resume with it off (and vice versa) at any worker
    /// count and still reproduce the uninterrupted run exactly.
    #[test]
    fn resume_may_change_the_steal_schedule() {
        let dir = temp_ckpt_dir("steal_resume");
        let (rp, wp) = chatter_engine(6, 1);
        let cfg = SupervisorConfig {
            scenario: 0x57EA1,
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: Some(SimDuration::from_millis(20)),
            ..SupervisorConfig::default()
        };
        let (_, _, sup) = chatter_sup_engine(6)
            .with_stealing(true)
            .run_supervised(3, None, &cfg)
            .expect("checkpointed stealing run");
        assert!(sup.checkpoints_written >= 2, "want several checkpoints");
        let files = checkpoint::list_dir(&dir).expect("list");
        let (_, mid) = &files[files.len() / 2];
        let bytes = checkpoint::read_file(mid).expect("read");
        for (threads, steal) in [(2usize, false), (4usize, true)] {
            let mut eng = ShardedEngine::new(
                chatter_worlds(6),
                Lookahead::uniform(6, SimDuration::from_micros(250)),
                SimTime::from_secs(5),
            )
            .with_stealing(steal);
            eng.restore(&bytes, 0x57EA1).expect("restore");
            let (rr, wr, _) = eng
                .run_supervised(threads, None, &SupervisorConfig::default())
                .expect("resumed run");
            assert_eq!(rp.events_processed, rr.events_processed);
            assert_eq!(rp.epochs, rr.epochs);
            assert_eq!(rp.cross_region, rr.cross_region);
            assert_eq!(rp.end_time, rr.end_time);
            for (a, b) in wp.iter().zip(&wr) {
                assert_eq!(a.log, b.log);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_and_mismatched_checkpoints_are_refused() {
        let dir = temp_ckpt_dir("corrupt");
        let cfg = SupervisorConfig {
            scenario: 42,
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: Some(SimDuration::from_millis(20)),
            ..SupervisorConfig::default()
        };
        let (_, _, sup) = chatter_sup_engine(4)
            .run_supervised(1, None, &cfg)
            .expect("checkpointed run");
        let path = sup.last_checkpoint.expect("a checkpoint was written");
        let mut bytes = checkpoint::read_file(&path).expect("read");
        let fresh = || {
            ShardedEngine::new(
                chatter_worlds(4),
                Lookahead::uniform(4, SimDuration::from_micros(250)),
                SimTime::from_secs(5),
            )
        };
        // Wrong scenario fingerprint.
        assert!(matches!(
            fresh().restore(&bytes, 43),
            Err(CheckpointError::ScenarioMismatch {
                found: 42,
                expected: 43
            })
        ));
        // A flipped payload bit fails the checksum — structured, no panic.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        assert!(matches!(
            fresh().restore(&bytes, 42),
            Err(CheckpointError::Corrupt(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupt_checkpoints_and_resumes_to_identical_results() {
        let dir = temp_ckpt_dir("interrupt");
        let (rp, wp) = chatter_engine(4, 1);
        // Let a few epochs run, then trip the flag from a probe callback
        // (the supervisor checks it at the next barrier).
        struct Tripwire {
            flag: Arc<AtomicBool>,
            after: u64,
        }
        impl ShardProbe for Tripwire {
            fn window(&mut self, _s: &WindowSample) {}
            fn epoch_end(&mut self, epoch: u64, _w: u64, _m: u64, _mn: u64) {
                if epoch == self.after {
                    self.flag.store(true, Ordering::Relaxed);
                }
            }
            fn run_end(&mut self, _r: &ShardRunReport, _w: u64) {}
        }
        let flag = Arc::new(AtomicBool::new(false));
        let mut trip = Tripwire {
            flag: Arc::clone(&flag),
            after: 6,
        };
        let cfg = SupervisorConfig {
            scenario: 7,
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: Some(SimDuration::from_millis(20)),
            interrupt: Some(flag),
            ..SupervisorConfig::default()
        };
        let (ri, _, sup) = chatter_sup_engine(4)
            .run_supervised(2, Some(&mut trip), &cfg)
            .expect("interrupted run");
        assert_eq!(ri.reason, ShardStopReason::Interrupted);
        assert!(sup.interrupted);
        let path = sup.last_checkpoint.expect("final checkpoint written");
        let bytes = checkpoint::read_file(&path).expect("read");
        let mut eng = ShardedEngine::new(
            chatter_worlds(4),
            Lookahead::uniform(4, SimDuration::from_micros(250)),
            SimTime::from_secs(5),
        );
        eng.restore(&bytes, 7).expect("restore");
        let (rr, wr, _) = eng
            .run_supervised(2, None, &SupervisorConfig::default())
            .expect("resumed run");
        assert_eq!(rp.events_processed, rr.events_processed);
        assert_eq!(rp.epochs, rr.epochs);
        assert_eq!(rp.end_time, rr.end_time);
        for (a, b) in wp.iter().zip(&wr) {
            assert_eq!(a.log, b.log);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_plan_from_env_shapes() {
        // from_env reads process-global env; set unique vars and restore.
        std::env::set_var("WMN_CRASH_AT", "3:1, 7:0,bad,9");
        std::env::set_var("WMN_CRASH_RATE", "0.25:1234:5");
        let plan = CrashPlan::from_env();
        std::env::remove_var("WMN_CRASH_AT");
        std::env::remove_var("WMN_CRASH_RATE");
        assert_eq!(plan.scripted, vec![(3, 1), (7, 0)]);
        assert_eq!(
            plan.stochastic,
            Some(StochasticCrash {
                rate: 0.25,
                seed: 1234,
                max: 5
            })
        );
        assert!(CrashPlan::default().is_empty());
        assert!(!plan.is_empty());
    }

    #[test]
    fn non_injected_panic_aborts_loudly() {
        struct Bomb;
        impl RegionWorld for Bomb {
            type Event = u32;
            fn handle(&mut self, ev: u32, ctx: &mut RegionCtx<'_, u32>) {
                if ev == 3 {
                    panic!("model bug: unexpected state");
                }
                ctx.send(
                    (ctx.region() + 1) % 2,
                    ctx.now() + SimDuration::from_millis(1),
                    ev + 1,
                );
            }
        }
        impl CheckpointState for Bomb {
            fn encode_state(&self, _out: &mut ByteWriter) {}
            fn decode_state(&mut self, _r: &mut ByteReader<'_>) -> Result<(), CheckpointError> {
                Ok(())
            }
            fn encode_event(event: &u32, out: &mut ByteWriter) {
                out.u32(*event);
            }
            fn decode_event(r: &mut ByteReader<'_>) -> Result<u32, CheckpointError> {
                r.u32()
            }
        }
        let mut eng = ShardedEngine::new(
            vec![Bomb, Bomb],
            Lookahead::uniform(2, SimDuration::from_millis(1)),
            SimTime::from_secs(1),
        );
        eng.prime(0, SimTime::ZERO, 0);
        let res = catch_unwind(AssertUnwindSafe(|| {
            eng.run_supervised(1, None, &SupervisorConfig::default())
        }));
        assert!(res.is_err(), "a genuine bug must not be swallowed");
    }
}
