//! ParMesh — the region-partitioned mesh model for shard-parallel runs.
//!
//! The classic [`Network`](crate::Network) world models carrier sense
//! exactly, which makes cross-node influence instantaneous — correct, but
//! unshardable: zero lookahead between regions means no conservative
//! parallelism. ParMesh is the scale path: it keeps the paper's
//! *neighbourhood-load routing* mechanism (periodic HELLO load digests,
//! load-aware next-hop choice) but abstracts the MAC into a **latency
//! floor** — every relayed packet pays at least [`HOP_FLOOR`] between
//! reception and re-transmission (DIFS + mean backoff + airtime), which is
//! physically honest and is exactly the lookahead the sharded engine needs.
//!
//! Design rules that make the model shardable *and* bit-identical across
//! worker counts:
//!
//! * **Static ownership.** The field is split into a near-square region
//!   grid; a node is owned by the region containing its *home* position,
//!   forever. All mutable state of a node (its load counters, its packets
//!   in flight at it) lives in its owner region.
//! * **Pure-function mobility.** A node's position is a closed-form
//!   function of time and immutable per-node parameters (circular drift of
//!   bounded amplitude), so *any* region can evaluate *any* node's current
//!   position without shared mutable state.
//! * **Precomputed churn.** Crash/reboot intervals are drawn from the
//!   master seed at build time and shared read-only; `is_up(node, t)` is a
//!   pure function every region evaluates identically. Owner regions
//!   additionally schedule the transition events for telemetry and load
//!   resets.
//! * **Digested load.** A region knows its own nodes' loads exactly;
//!   neighbours' loads arrive via periodic HELLO digests (one cross-region
//!   event per neighbour region per interval) — stale by up to one
//!   interval, exactly like real HELLO-carried load advertisements.
//!
//! Geometry guarantees the lookahead structure: region sides are kept at
//! least [`MIN_REGION_SIDE_M`] (> max hop distance = radio range plus two
//! drift amplitudes), so a packet can only ever hop into a Chebyshev-
//! adjacent region. Non-adjacent regions exchange nothing directly; the
//! engine's shortest-path planning turns that ring structure into
//! distance-proportional lookahead — the discrete analogue of propagation
//! delay between separated areas.
//!
//! The world data is laid out for million-node runs: the shared read-only
//! tables (`Statics`) keep per-node state in flat structure-of-arrays
//! vectors with CSR-flattened adjacency (churn intervals, spatial-hash
//! cells) instead of nested `Vec<Vec<…>>`, node ids are `u32` throughout,
//! and per-region hot state (exact node loads) is a dense vector parallel
//! to the sorted owned-id list rather than a hash map. The next-hop scan —
//! nearly all of a run's window work — reads a compact copy of the homes
//! laid out in spatial-hash order and rejects most candidates from it
//! before any per-node table is touched (see `RegionNet::next_hop`). At
//! full trace volume a merged in-memory trace would dwarf the world
//! itself, so [`ParMesh::trace_hash`] streams events into O(1)-memory
//! per-region fingerprints instead — the scale-run stand-in for a
//! byte-level trace diff.

use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use wmn_metrics::ProbeSeries;
use wmn_sim::checkpoint::{self, ByteReader, ByteWriter, CheckpointError};
use wmn_sim::shard::{
    CheckpointState, CrashPlan, Lookahead, RegionCtx, RegionId, RegionWorld, ShardProbe,
    ShardedEngine, SupervisorConfig, SupervisorReport,
};
use wmn_sim::{IdMap, SimDuration, SimRng, SimTime};
use wmn_telemetry::{
    merge_region_traces, DropReason, EventKind, EventSink, HashSink, MemorySink, ShardProfile,
    ShardProfiler, SharedSink, Tel, TelemetryEvent,
};

/// Grid pitch the node density is derived from (matches the scale presets).
pub const PITCH_M: f64 = 180.0;
/// Radio range: nodes within this distance of each other are neighbours.
pub const RX_RANGE_M: f64 = 250.0;
/// Maximum mobility drift amplitude around the home position.
pub const DRIFT_AMP_M: f64 = 25.0;
/// Spatial-hash cell size for neighbour search.
const CELL_M: f64 = 250.0;
/// Minimum region side: must exceed the maximum hop distance
/// (`RX_RANGE_M + 2 × DRIFT_AMP_M` = 300 m) so hops stay within the
/// adjacent region ring.
pub const MIN_REGION_SIDE_M: f64 = 560.0;
/// The MAC latency floor: minimum delay between receiving a packet and the
/// relayed copy becoming receivable at the next hop (DIFS + mean backoff +
/// ~512 B airtime at mesh rates). This is the sharding lookahead.
pub const HOP_FLOOR: SimDuration = SimDuration(1_000_000);
/// Extra per-hop jitter span (contention variability), drawn per hop from
/// the owning region's RNG stream.
const HOP_JITTER_US: u64 = 250;
/// HELLO / load-digest interval.
const HELLO_INTERVAL: SimDuration = SimDuration(1_000_000_000);
/// Initial packet TTL (hops).
const TTL_INIT: u32 = 48;
/// Prefilter survivors the next-hop kernel gathers before it evaluates any
/// of them; a scan averages ~4 and a full buffer is evaluated and reused.
const BATCH: usize = 32;

const DOMAIN_PLACE: u64 = 0x70_61_72_01;
const DOMAIN_DRIFT: u64 = 0x70_61_72_02;
const DOMAIN_CHURN: u64 = 0x70_61_72_03;
const DOMAIN_FLOWS: u64 = 0x70_61_72_04;
const DOMAIN_REGION: u64 = 0x70_61_72_05;

/// Scenario description for a ParMesh run (builder-style).
#[derive(Clone, Debug)]
pub struct ParMesh {
    nodes: usize,
    flows: usize,
    duration: SimDuration,
    interval: SimDuration,
    seed: u64,
    regions: Option<usize>,
    threads: usize,
    steal: bool,
    mobility: bool,
    churn: bool,
    telemetry: bool,
    trace_hash: bool,
    profile: bool,
    checkpoint_dir: Option<PathBuf>,
    checkpoint_every: Option<SimDuration>,
    resume: bool,
    crash_plan: CrashPlan,
    interrupt: Option<Arc<AtomicBool>>,
}

impl ParMesh {
    /// A scenario with `nodes` routers and scale-preset defaults: one flow
    /// per 4 nodes at 10 pkt/s, 10 s horizon, mobility and churn on.
    pub fn new(nodes: usize) -> Self {
        assert!(nodes >= 2, "need at least two nodes");
        ParMesh {
            nodes,
            flows: (nodes / 4).max(1),
            duration: SimDuration::from_secs(10),
            interval: SimDuration::from_millis(100),
            seed: 1,
            regions: None,
            threads: 1,
            steal: true,
            mobility: true,
            churn: true,
            telemetry: false,
            trace_hash: false,
            profile: false,
            checkpoint_dir: None,
            checkpoint_every: None,
            resume: false,
            crash_plan: CrashPlan::default(),
            interrupt: None,
        }
    }

    /// Set the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the number of CBR flows.
    pub fn flows(mut self, flows: usize) -> Self {
        self.flows = flows;
        self
    }

    /// Set the simulated duration.
    pub fn duration(mut self, d: SimDuration) -> Self {
        self.duration = d;
        self
    }

    /// Set the per-flow packet interval.
    pub fn interval(mut self, d: SimDuration) -> Self {
        self.interval = d;
        self
    }

    /// Request a region count. The auto-tuner grants the nearest grid the
    /// geometry can honour (sides must stay ≥ [`MIN_REGION_SIDE_M`]); when
    /// that differs from an explicit request the run warns on stderr with
    /// the granted value. The default derives one region per ~384 nodes
    /// with no upper cap — a million-node field auto-tunes past 2500
    /// regions. The region count is part of the scenario: changing it
    /// changes event timestamps slightly; changing *threads* never does.
    pub fn regions(mut self, regions: usize) -> Self {
        self.regions = Some(regions.max(1));
        self
    }

    /// Set the worker thread count (wall-clock only; results identical).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Enable or disable work stealing between epoch barriers (on by
    /// default). Stealing only remaps which worker thread executes a
    /// region's window — results, traces and checkpoints are bit-identical
    /// either way, so this knob is excluded from the scenario fingerprint
    /// and a resume may flip it.
    pub fn steal(mut self, on: bool) -> Self {
        self.steal = on;
        self
    }

    /// Enable or disable mobility drift.
    pub fn mobility(mut self, on: bool) -> Self {
        self.mobility = on;
        self
    }

    /// Enable or disable node churn.
    pub fn churn(mut self, on: bool) -> Self {
        self.churn = on;
        self
    }

    /// Enable or disable telemetry collection (the merged trace is
    /// returned in [`ParMeshOutcome::trace`]).
    pub fn telemetry(mut self, on: bool) -> Self {
        self.telemetry = on;
        self
    }

    /// Fold every telemetry event into O(1)-memory per-region fingerprints
    /// instead of materialising a trace; the combined value is returned in
    /// [`ParMeshOutcome::trace_fp`]. The per-region event streams are the
    /// same ones full telemetry would record, so a hash-only run and a
    /// full-trace run of the same scenario produce the same fingerprint —
    /// this is the million-node stand-in for a byte-level trace diff.
    /// Incompatible with checkpointing (which must buffer the trace).
    pub fn trace_hash(mut self, on: bool) -> Self {
        self.trace_hash = on;
        self
    }

    /// Enable or disable engine profiling (the profile is returned in
    /// [`ParMeshOutcome::profile`]). Profiling observes the engine from
    /// the coordinator thread only and never changes simulation results
    /// or the telemetry trace.
    pub fn profile(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }

    /// Write epoch-barrier checkpoints into `dir` (atomic temp+rename).
    /// Implies the supervised engine; with no explicit
    /// [`checkpoint_every`](ParMesh::checkpoint_every) the cadence defaults
    /// to one simulated second.
    pub fn checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Sim-time cadence between checkpoints.
    pub fn checkpoint_every(mut self, every: SimDuration) -> Self {
        self.checkpoint_every = Some(every);
        self
    }

    /// Resume from the highest-epoch checkpoint in
    /// [`checkpoint_dir`](ParMesh::checkpoint_dir). Starts fresh when the
    /// directory holds no checkpoints; refuses (structured error from
    /// [`try_run`](ParMesh::try_run)) when the latest one is corrupt or
    /// belongs to a different scenario.
    pub fn resume(mut self, on: bool) -> Self {
        self.resume = on;
        self
    }

    /// Inject harness-level worker crashes (supervisor exercise; strictly
    /// separate from in-sim node churn).
    pub fn crash_plan(mut self, plan: CrashPlan) -> Self {
        self.crash_plan = plan;
        self
    }

    /// Cooperative interrupt flag, checked at every epoch barrier; when it
    /// goes true the run writes a final checkpoint (if a checkpoint dir is
    /// set) and stops with [`SupervisorReport::interrupted`].
    pub fn interrupt(mut self, flag: Arc<AtomicBool>) -> Self {
        self.interrupt = Some(flag);
        self
    }

    /// True when any robustness feature is on: the run may then serialize
    /// region state and reports what its supervisor did. Every run takes
    /// the same engine loop either way.
    fn supervised(&self) -> bool {
        self.checkpoint_dir.is_some()
            || self.checkpoint_every.is_some()
            || self.resume
            || !self.crash_plan.is_empty()
            || self.interrupt.is_some()
    }

    /// The scenario fingerprint stamped into checkpoints: a hash of every
    /// result-affecting knob. Thread count and profiling are excluded (both
    /// are wall-clock-only), so a resume may use a different worker count.
    pub fn scenario_fingerprint(&self) -> u64 {
        let mut w = ByteWriter::new();
        w.u64(self.nodes as u64);
        w.u64(self.flows as u64);
        w.u64(self.duration.as_nanos());
        w.u64(self.interval.as_nanos());
        w.u64(self.seed);
        w.u64(self.regions.map(|r| r as u64 + 1).unwrap_or(0));
        w.u8(self.mobility as u8);
        w.u8(self.churn as u8);
        w.u8(self.telemetry as u8);
        checkpoint::fnv1a(&w.into_inner())
    }

    /// Run the scenario. Results are a pure function of the scenario
    /// (including the region count) and never of the thread count.
    ///
    /// Panics on checkpoint errors (corrupt resume file, unwritable
    /// checkpoint dir); callers that need structured errors use
    /// [`try_run`](ParMesh::try_run).
    pub fn run(&self) -> ParMeshOutcome {
        match self.try_run() {
            Ok(out) => out,
            Err(e) => panic!("parmesh run failed: {e}"),
        }
    }

    /// Run the scenario, surfacing checkpoint/resume failures as structured
    /// errors instead of panics. Without robustness features this cannot
    /// fail.
    pub fn try_run(&self) -> Result<ParMeshOutcome, CheckpointError> {
        run_parmesh(self)
    }
}

/// Aggregated results of a ParMesh run.
#[derive(Clone, Debug, Default)]
pub struct ParMeshReport {
    /// Node count.
    pub nodes: usize,
    /// Region count actually used.
    pub regions: usize,
    /// Data packets originated.
    pub originated: u64,
    /// Data packets delivered to their destination.
    pub delivered: u64,
    /// Packets dropped: no neighbour with positive progress.
    pub dropped_no_route: u64,
    /// Packets dropped: TTL exhausted.
    pub dropped_expired: u64,
    /// Packets dropped: relay or destination was crashed.
    pub dropped_node_down: u64,
    /// Relay transmissions (hops after the first).
    pub forwards: u64,
    /// Mean end-to-end delay over delivered packets, seconds.
    pub mean_delay_s: f64,
    /// Mean hop count over delivered packets.
    pub mean_hops: f64,
    /// Engine events dispatched.
    pub events: u64,
    /// Epoch barriers executed.
    pub epochs: u64,
    /// Cross-region events exchanged.
    pub cross_region: u64,
    /// Final simulation time.
    pub end_time: SimTime,
}

impl ParMeshReport {
    /// Packet delivery ratio.
    pub fn pdr(&self) -> f64 {
        if self.originated == 0 {
            return 0.0;
        }
        self.delivered as f64 / self.originated as f64
    }
}

/// A finished run: the report plus the merged telemetry trace (empty when
/// telemetry was off).
#[derive(Clone, Debug)]
pub struct ParMeshOutcome {
    /// Aggregated measurements.
    pub report: ParMeshReport,
    /// Deterministically merged trace, ordered by `(t, region, index)`.
    pub trace: Vec<TelemetryEvent>,
    /// `(events, fingerprint)` of the full telemetry stream, folded from
    /// per-region [`HashSink`]s in region order; present when
    /// [`trace_hash`](ParMesh::trace_hash) was requested. Identical for
    /// any thread count and steal schedule, and identical to the value a
    /// full-telemetry run of the same scenario would hash to.
    pub trace_fp: Option<(u64, u64)>,
    /// Engine execution profile (present when profiling was requested).
    pub profile: Option<ShardProfile>,
    /// 1 Hz cross-layer probe feed, rebuilt from the merged trace (empty
    /// when telemetry was off).
    pub probes: ProbeSeries,
    /// Supervisor summary (recoveries, checkpoints written, interrupt and
    /// resume lineage); present only when the run used a robustness
    /// feature — plain runs never take the supervised path.
    pub supervisor: Option<SupervisorReport>,
}

#[derive(Clone, Copy, Debug, Default)]
struct NodeParams {
    home: (f64, f64),
    amp: f64,
    omega: f64,
    phase: f64,
}

impl NodeParams {
    /// Position `secs` seconds into the run: home plus circular drift.
    fn at(&self, secs: f64) -> (f64, f64) {
        if self.amp == 0.0 {
            return self.home;
        }
        let th = self.phase + self.omega * secs;
        (
            self.home.0 + self.amp * th.cos(),
            self.home.1 + self.amp * th.sin(),
        )
    }
}

#[derive(Clone, Copy, Debug)]
struct Flow {
    src: u32,
    dst: u32,
    start: SimTime,
}

/// Immutable world data shared read-only by every region. Per-node tables
/// are CSR-flattened (`*_idx` holds row offsets into the flat payload
/// vector) so a million-node world is a handful of large allocations
/// instead of millions of tiny `Vec`s.
struct Statics {
    params: Vec<NodeParams>,
    /// Down intervals `(down_ns, up_ns)`, sorted per node; node `i` owns
    /// `churn_iv[churn_idx[i]..churn_idx[i+1]]`. Almost all rows empty.
    churn_idx: Vec<u32>,
    churn_iv: Vec<(u64, u64)>,
    /// Bit `i` is set when node `i`'s churn row is non-empty, so `is_up`
    /// touches the CSR rows only for the few nodes that ever go down.
    churny: Vec<u64>,
    /// Spatial hash over *home* positions; cell `c` owns
    /// `cell_nodes[cell_idx[c]..cell_idx[c+1]]`, and cells of one row are
    /// adjacent, so a run of cells along x is one contiguous slice.
    cell_idx: Vec<u32>,
    cell_nodes: Vec<u32>,
    /// Home of `cell_nodes[k]`, rounded to `f32`: what the next-hop scan
    /// reads instead of `params`, in the order it visits candidates.
    cell_home: Vec<[f32; 2]>,
    /// At every instant every node is within `slack` metres of its
    /// `cell_home` entry: drift amplitude plus the `f32` rounding.
    slack: f64,
    ncx: usize,
    ncy: usize,
    region_of_node: Vec<RegionId>,
    /// Index of each node in its owner region's ascending `own` list.
    local_of_node: Vec<u32>,
    /// Chebyshev ring-1 neighbours of region `r`, ascending:
    /// `adj[adj_idx[r]..adj_idx[r+1]]`.
    adj_idx: Vec<u32>,
    adj: Vec<RegionId>,
    flows: Vec<Flow>,
    interval: SimDuration,
    horizon: SimTime,
}

impl Statics {
    /// Index a placed world on a `side` × `side` field split into an
    /// `rx` × `ry` region grid. Flows are attached by the caller.
    fn new(
        params: Vec<NodeParams>,
        churn: &[Vec<(u64, u64)>],
        side: f64,
        (rx, ry): (usize, usize),
        interval: SimDuration,
        horizon: SimTime,
    ) -> Statics {
        let ncx = ((side / CELL_M).ceil() as usize).max(1);
        let ncy = ncx;
        let mut cells: Vec<Vec<u32>> = vec![Vec::new(); ncx * ncy];
        let mut region_of_node = Vec::with_capacity(params.len());
        let mut local_of_node = Vec::with_capacity(params.len());
        let mut owned = vec![0u32; rx * ry];
        for (i, p) in params.iter().enumerate() {
            let (cx, cy) = (cell_axis(p.home.0, ncx), cell_axis(p.home.1, ncy));
            cells[cy * ncx + cx].push(i as u32);
            let gx = ((p.home.0 / side * rx as f64) as usize).min(rx - 1);
            let gy = ((p.home.1 / side * ry as f64) as usize).min(ry - 1);
            let r = gy * rx + gx;
            region_of_node.push(r as RegionId);
            local_of_node.push(owned[r]);
            owned[r] += 1;
        }
        let (cell_idx, cell_nodes) = flatten_csr(&cells);
        drop(cells);
        let mut slack = 0.0f64;
        let cell_home = cell_nodes
            .iter()
            .map(|&v| {
                let p = &params[v as usize];
                let h = [p.home.0 as f32, p.home.1 as f32];
                slack = slack.max(p.amp + dist(p.home, (h[0] as f64, h[1] as f64)));
                h
            })
            .collect();
        let mut adj_idx = Vec::with_capacity(rx * ry + 1);
        let mut adj = Vec::with_capacity(rx * ry * 8);
        adj_idx.push(0);
        for gy in 0..ry {
            for gx in 0..rx {
                for ny in gy.saturating_sub(1)..=(gy + 1).min(ry - 1) {
                    for nx in gx.saturating_sub(1)..=(gx + 1).min(rx - 1) {
                        if (nx, ny) != (gx, gy) {
                            adj.push((ny * rx + nx) as RegionId);
                        }
                    }
                }
                adj_idx.push(adj.len() as u32);
            }
        }
        let (churn_idx, churn_iv) = flatten_csr(churn);
        let mut churny = vec![0u64; params.len().div_ceil(64)];
        for (i, row) in churn.iter().enumerate() {
            churny[i / 64] |= u64::from(!row.is_empty()) << (i % 64);
        }
        Statics {
            params,
            churn_idx,
            churn_iv,
            churny,
            cell_idx,
            cell_nodes,
            cell_home,
            // Head-room for the rounding of `pos` and of the scan's own sums.
            slack: slack + 1e-6,
            ncx,
            ncy,
            region_of_node,
            local_of_node,
            adj_idx,
            adj,
            flows: Vec::new(),
            interval,
            horizon,
        }
    }

    fn pos(&self, node: u32, t: SimTime) -> (f64, f64) {
        self.params[node as usize].at(secs(t))
    }

    /// Node `i`'s sorted down intervals (CSR row).
    fn churn_of(&self, node: u32) -> &[(u64, u64)] {
        let i = node as usize;
        &self.churn_iv[self.churn_idx[i] as usize..self.churn_idx[i + 1] as usize]
    }

    /// The node ids hashed into spatial cell `c` (CSR row).
    fn cell_members(&self, c: usize) -> &[u32] {
        &self.cell_nodes[self.cell_idx[c] as usize..self.cell_idx[c + 1] as usize]
    }

    fn is_up(&self, node: u32, t: SimTime) -> bool {
        if self.churny[node as usize / 64] >> (node % 64) & 1 == 0 {
            return true;
        }
        let ns = t.as_nanos();
        self.churn_of(node)
            .iter()
            .all(|&(down, up)| ns < down || ns >= up)
    }

    fn cell_of(&self, x: f64, y: f64) -> (usize, usize) {
        (cell_axis(x, self.ncx), cell_axis(y, self.ncy))
    }

    fn regions(&self) -> usize {
        self.adj_idx.len() - 1
    }

    /// Chebyshev ring-1 neighbours of a region, ascending (CSR row).
    fn adjacent_regions(&self, r: RegionId) -> &[RegionId] {
        let r = r as usize;
        &self.adj[self.adj_idx[r] as usize..self.adj_idx[r + 1] as usize]
    }
}

/// Flatten ragged rows into CSR form: `(row_offsets, payload)` with
/// `rows[i] == payload[idx[i]..idx[i+1]]`.
fn flatten_csr<T: Copy>(rows: &[Vec<T>]) -> (Vec<u32>, Vec<T>) {
    let total: usize = rows.iter().map(Vec::len).sum();
    assert!(
        total <= u32::MAX as usize,
        "CSR payload exceeds u32 offsets"
    );
    let mut idx = Vec::with_capacity(rows.len() + 1);
    let mut flat = Vec::with_capacity(total);
    idx.push(0);
    for row in rows {
        flat.extend_from_slice(row);
        idx.push(flat.len() as u32);
    }
    (idx, flat)
}

/// Fold per-region `(count, fp)` trace fingerprints, in region order, into
/// one run-level fingerprint. Region order is scenario-determined, so the
/// result is invariant to threads and steal schedule.
fn combine_region_fps(fps: &[(u64, u64)]) -> (u64, u64) {
    let mut w = ByteWriter::new();
    let mut count = 0u64;
    for &(c, f) in fps {
        w.u64(c);
        w.u64(f);
        count += c;
    }
    (count, checkpoint::fnv1a(&w.into_inner()))
}

/// Spatial-hash cell index of coordinate `x` on an axis of `nc` cells;
/// coordinates off the field fall into the edge cells.
fn cell_axis(x: f64, nc: usize) -> usize {
    ((x / CELL_M) as usize).min(nc - 1)
}

/// Simulated seconds at `t`, the argument of [`NodeParams::at`].
fn secs(t: SimTime) -> f64 {
    t.as_nanos() as f64 * 1e-9
}

fn dist(a: (f64, f64), b: (f64, f64)) -> f64 {
    let (dx, dy) = (a.0 - b.0, a.1 - b.1);
    (dx * dx + dy * dy).sqrt()
}

/// One in-flight data packet.
#[derive(Clone, Copy, Debug)]
struct Packet {
    flow: u32,
    seq: u32,
    node: u32,
    dst: u32,
    ttl: u32,
    origin_ns: u64,
}

enum PmEvent {
    /// Periodic per-region load refresh + digest broadcast.
    HelloTick,
    /// A neighbour region's load digest.
    Digest(Arc<Vec<(u32, u32)>>),
    /// A flow source emits its next packet.
    Originate { flow: u32 },
    /// A data packet arrived at `pkt.node` (owned by this region).
    Forward(Packet),
    /// Scheduled churn transition for an owned node.
    ChurnDown { node: u32 },
    /// Scheduled churn recovery for an owned node.
    ChurnUp { node: u32 },
}

/// One next-hop question: where `u` and `dst` are at `now`, and how far
/// apart (`d_u`).
struct Scan {
    pu: (f64, f64),
    pdst: (f64, f64),
    d_u: f64,
    now: SimTime,
}

#[derive(Clone, Copy, Default)]
struct NodeLoad {
    load: u32,
    recent: u32,
}

#[derive(Clone, Debug, Default)]
struct RegionStats {
    originated: u64,
    delivered: u64,
    dropped_no_route: u64,
    dropped_expired: u64,
    dropped_node_down: u64,
    forwards: u64,
    delay_sum_ns: u64,
    hops_sum: u64,
}

struct RegionNet {
    id: RegionId,
    st: Arc<Statics>,
    /// Owned node ids, ascending.
    own: Vec<u32>,
    /// Exact loads of owned nodes, parallel to `own` (dense hot state —
    /// 8 B per node; `Statics::local_of_node` maps an id to its slot).
    loads: Vec<NodeLoad>,
    /// Last digested loads of other regions' nodes (stale by design).
    remote: IdMap<u32, u32>,
    rng: SimRng,
    tel: Tel,
    /// The region's own telemetry buffer (what `tel` writes into), kept so
    /// checkpoints can capture and restore buffered trace events; `None`
    /// when telemetry is off.
    sink: Option<Arc<Mutex<MemorySink>>>,
    hello_seq: u32,
    /// The last HELLO's digest. Its receivers drop their handles within a
    /// hop, so the next tick refills the same allocation in place.
    digest: Arc<Vec<(u32, u32)>>,
    flow_seq: IdMap<u32, u32>,
    stats: RegionStats,
}

impl RegionNet {
    fn new(
        id: RegionId,
        st: Arc<Statics>,
        own: Vec<u32>,
        seed: u64,
        tel: Tel,
        sink: Option<Arc<Mutex<MemorySink>>>,
    ) -> Self {
        RegionNet {
            id,
            st,
            loads: vec![NodeLoad::default(); own.len()],
            own,
            remote: IdMap::default(),
            rng: SimRng::derive(seed, DOMAIN_REGION, id as u64),
            tel,
            sink,
            hello_seq: 0,
            digest: Arc::default(),
            flow_seq: IdMap::default(),
            stats: RegionStats::default(),
        }
    }

    /// The load slot of a node this region owns.
    fn own_load(&mut self, node: u32) -> &mut NodeLoad {
        debug_assert_eq!(self.st.region_of_node[node as usize], self.id);
        &mut self.loads[self.st.local_of_node[node as usize] as usize]
    }

    /// The load this region sees for `node`, owned by `region` at slot
    /// `local` of it: exact for its own nodes, the last digest otherwise.
    fn load_in(&self, node: u32, region: RegionId, local: u32) -> u32 {
        if region == self.id {
            let nl = self.loads[local as usize];
            nl.load + nl.recent
        } else {
            self.remote.get(&node).copied().unwrap_or(0)
        }
    }

    /// [`load_in`](RegionNet::load_in) with the owner looked up, as the
    /// all-nodes oracle reads it.
    #[cfg(test)]
    fn load_of(&self, node: u32) -> u32 {
        let i = node as usize;
        self.load_in(node, self.st.region_of_node[i], self.st.local_of_node[i])
    }

    /// Load-aware geographic next hop from `u` towards `dst` at `now`:
    /// among up neighbours with positive progress, maximise
    /// `progress / (1 + load)` — the neighbourhood-load rule — breaking
    /// ties to the lowest node id. That is a strict total order, so the
    /// winner does not depend on the order candidates are evaluated in or
    /// on how they are batched.
    ///
    /// The scan visits only the cells a neighbour's home can lie in and
    /// drops a candidate from its `cell_home` entry alone when it cannot be
    /// in range or cannot make progress wherever it has drifted to. The
    /// drop tests are necessary conditions of the exact ones in
    /// [`evaluate`](RegionNet::evaluate), so they never change the result.
    /// Survivors are compacted into a stack buffer without a branch per
    /// candidate (each id is stored, the cursor advances by the test's
    /// outcome), and a full buffer is evaluated and reused.
    fn next_hop(&self, u: u32, dst: u32, now: SimTime) -> Option<u32> {
        let st = &*self.st;
        let pu = st.pos(u, now);
        let pdst = st.pos(dst, now);
        let d_u = dist(pu, pdst);
        // Direct delivery beats any relay.
        if d_u <= RX_RANGE_M && st.is_up(dst, now) {
            return Some(dst);
        }
        // In range: |pv − pu| ≤ RX_RANGE_M. Progress: |pv − pdst| < d_u − 1.
        // A node is within `slack` of its stored home, so both bound how
        // far that home can be from `pu` and from `pdst`.
        let reach = RX_RANGE_M + st.slack;
        let near = (d_u - 1.0 + st.slack).max(0.0);
        let (reach2, near2) = (reach * reach, near * near);
        let (cx0, cy0) = st.cell_of(pu.0 - reach, pu.1 - reach);
        let (cx1, cy1) = st.cell_of(pu.0 + reach, pu.1 + reach);
        let scan = Scan { pu, pdst, d_u, now };
        let mut best: Option<(f64, u32)> = None;
        let mut ids = [0u32; BATCH];
        let mut n = 0;
        for cy in cy0..=cy1 {
            let row = cy * st.ncx;
            let span = st.cell_idx[row + cx0] as usize..st.cell_idx[row + cx1 + 1] as usize;
            for (&v, home) in st.cell_nodes[span.clone()].iter().zip(&st.cell_home[span]) {
                let (hx, hy) = (home[0] as f64, home[1] as f64);
                let (ux, uy) = (hx - pu.0, hy - pu.1);
                let (tx, ty) = (hx - pdst.0, hy - pdst.1);
                let dropped =
                    (ux * ux + uy * uy > reach2) | (tx * tx + ty * ty >= near2) | (v == u);
                ids[n] = v;
                n += usize::from(!dropped);
                if n == BATCH {
                    self.evaluate(&ids, &scan, &mut best);
                    n = 0;
                }
            }
        }
        self.evaluate(&ids[..n], &scan, &mut best);
        best.map(|(_, v)| v)
    }

    /// Fold the survivors `ids` into `best`. Every survivor's parameters
    /// and owner slot are loaded first, then every load value, and only
    /// then is any of them evaluated: the loads of one round do not depend
    /// on each other, so their cache misses overlap instead of queueing
    /// behind the previous survivor's `sin`/`cos`.
    fn evaluate(&self, ids: &[u32], scan: &Scan, best: &mut Option<(f64, u32)>) {
        let st = &*self.st;
        let mut params = [NodeParams::default(); BATCH];
        let mut slot = [(0, 0); BATCH];
        for ((p, s), &v) in params.iter_mut().zip(&mut slot).zip(ids) {
            let i = v as usize;
            *p = st.params[i];
            *s = (st.region_of_node[i], st.local_of_node[i]);
        }
        let mut load = [0u32; BATCH];
        for ((l, &(region, local)), &v) in load.iter_mut().zip(&slot).zip(ids) {
            *l = self.load_in(v, region, local);
        }
        let (pu, pdst, t_s) = (scan.pu, scan.pdst, secs(scan.now));
        for ((&v, p), &l) in ids.iter().zip(&params).zip(&load) {
            if !st.is_up(v, scan.now) {
                continue;
            }
            let pv = p.at(t_s);
            if dist(pu, pv) > RX_RANGE_M {
                continue;
            }
            let progress = scan.d_u - dist(pv, pdst);
            if progress <= 1.0 {
                continue;
            }
            let score = progress / (1.0 + l as f64);
            let better = match *best {
                None => true,
                Some((bs, bv)) => score > bs || (score == bs && v < bv),
            };
            if better {
                *best = Some((score, v));
            }
        }
    }

    /// The definition [`next_hop`](RegionNet::next_hop) must reproduce:
    /// the same rule evaluated over every node of the world.
    #[cfg(test)]
    fn next_hop_all_nodes(&self, u: u32, dst: u32, now: SimTime) -> Option<u32> {
        let st = &*self.st;
        let pu = st.pos(u, now);
        let pdst = st.pos(dst, now);
        if dist(pu, pdst) <= RX_RANGE_M && st.is_up(dst, now) {
            return Some(dst);
        }
        let d_u = dist(pu, pdst);
        let mut best: Option<(f64, u32)> = None;
        for v in 0..st.params.len() as u32 {
            if v == u || !st.is_up(v, now) {
                continue;
            }
            let pv = st.pos(v, now);
            if dist(pu, pv) > RX_RANGE_M {
                continue;
            }
            let progress = d_u - dist(pv, pdst);
            if progress <= 1.0 {
                continue;
            }
            let score = progress / (1.0 + self.load_of(v) as f64);
            let better = match best {
                None => true,
                Some((bs, bv)) => score > bs || (score == bs && v < bv),
            };
            if better {
                best = Some((score, v));
            }
        }
        best.map(|(_, v)| v)
    }

    fn transmit(&mut self, pkt: Packet, ctx: &mut RegionCtx<'_, PmEvent>) {
        let now = ctx.now();
        let Some(next) = self.next_hop(pkt.node, pkt.dst, now) else {
            self.stats.dropped_no_route += 1;
            self.tel.emit_at(
                pkt.node,
                now,
                EventKind::DataDrop {
                    reason: DropReason::NoRoute,
                    flow: pkt.flow,
                    seq: pkt.seq,
                },
            );
            return;
        };
        // The transmitting node is always owned here; account its work.
        self.own_load(pkt.node).recent += 1;
        let latency = HOP_FLOOR + SimDuration::from_micros(self.rng.below(HOP_JITTER_US + 1));
        let dst_region = self.st.region_of_node[next as usize];
        ctx.send(
            dst_region,
            now + latency,
            PmEvent::Forward(Packet {
                node: next,
                ttl: pkt.ttl - 1,
                ..pkt
            }),
        );
    }

    fn handle_forward(&mut self, pkt: Packet, ctx: &mut RegionCtx<'_, PmEvent>) {
        let now = ctx.now();
        if !self.st.is_up(pkt.node, now) {
            self.stats.dropped_node_down += 1;
            self.tel.emit_at(
                pkt.node,
                now,
                EventKind::DataDrop {
                    reason: DropReason::NodeDown,
                    flow: pkt.flow,
                    seq: pkt.seq,
                },
            );
            return;
        }
        if pkt.node == pkt.dst {
            self.stats.delivered += 1;
            self.stats.delay_sum_ns += now.as_nanos() - pkt.origin_ns;
            self.stats.hops_sum += (TTL_INIT - pkt.ttl) as u64;
            self.tel.emit_at(
                pkt.node,
                now,
                EventKind::DataDeliver {
                    flow: pkt.flow,
                    seq: pkt.seq,
                },
            );
            return;
        }
        if pkt.ttl == 0 {
            self.stats.dropped_expired += 1;
            self.tel.emit_at(
                pkt.node,
                now,
                EventKind::DataDrop {
                    reason: DropReason::Expired,
                    flow: pkt.flow,
                    seq: pkt.seq,
                },
            );
            return;
        }
        self.stats.forwards += 1;
        self.tel.emit_at(
            pkt.node,
            now,
            EventKind::DataForward {
                flow: pkt.flow,
                seq: pkt.seq,
            },
        );
        self.transmit(pkt, ctx);
    }
}

impl RegionWorld for RegionNet {
    type Event = PmEvent;

    fn handle(&mut self, event: PmEvent, ctx: &mut RegionCtx<'_, PmEvent>) {
        match event {
            PmEvent::HelloTick => {
                let now = ctx.now();
                self.hello_seq += 1;
                // EWMA load refresh for owned nodes; digest the busy ones.
                let digest = Arc::make_mut(&mut self.digest);
                digest.clear();
                let probing = self.tel.on();
                for (i, &node) in self.own.iter().enumerate() {
                    let nl = &mut self.loads[i];
                    let recent = nl.recent;
                    nl.load = nl.load / 2 + nl.recent;
                    nl.recent = 0;
                    let load = nl.load;
                    if load > 0 {
                        digest.push((node, load));
                    }
                    if probing && self.st.is_up(node, now) {
                        // 1 Hz cross-layer probe, from region-local integer
                        // state only (thread-count invisible): `busy` is the
                        // share of a ~100 pkt/s nominal relay capacity used
                        // this tick, `load` squashes the EWMA into [0, 1].
                        // ParMesh has no interface queue and greedy
                        // forwarding always relays, so those signals are
                        // honest constants.
                        self.tel.emit_at(
                            node,
                            now,
                            EventKind::NodeProbe {
                                queue: 0.0,
                                busy: (recent as f64 / 100.0).min(1.0),
                                load: load as f64 / (load as f64 + 8.0),
                                fwd_p: 1.0,
                            },
                        );
                    }
                }
                if let Some(&first) = self.own.first() {
                    self.tel.emit_at(
                        first,
                        now,
                        EventKind::HelloSend {
                            seq: self.hello_seq,
                        },
                    );
                }
                if !self.digest.is_empty() {
                    for &r in self.st.adjacent_regions(self.id) {
                        ctx.send(r, now + HOP_FLOOR, PmEvent::Digest(self.digest.clone()));
                    }
                }
                let next = now + HELLO_INTERVAL;
                if next <= ctx.horizon() {
                    ctx.at(next, PmEvent::HelloTick);
                }
            }
            PmEvent::Digest(loads) => {
                for &(node, load) in loads.iter() {
                    self.remote.insert(node, load);
                }
            }
            PmEvent::Originate { flow } => {
                let now = ctx.now();
                let f = self.st.flows[flow as usize];
                // Schedule the next packet first so a down source keeps
                // its cadence.
                let next = now + self.st.interval;
                if next <= self.st.horizon {
                    ctx.at(next, PmEvent::Originate { flow });
                }
                if !self.st.is_up(f.src, now) {
                    return;
                }
                let seq = self.flow_seq.entry(flow).or_insert(0);
                *seq += 1;
                let seq = *seq;
                self.stats.originated += 1;
                self.tel
                    .emit_at(f.src, now, EventKind::DataOriginate { flow, seq });
                self.transmit(
                    Packet {
                        flow,
                        seq,
                        node: f.src,
                        dst: f.dst,
                        ttl: TTL_INIT,
                        origin_ns: now.as_nanos(),
                    },
                    ctx,
                );
            }
            PmEvent::Forward(pkt) => self.handle_forward(pkt, ctx),
            PmEvent::ChurnDown { node } => {
                // Churn events are primed at the owner region.
                *self.own_load(node) = NodeLoad::default();
                self.tel
                    .emit_at(node, ctx.now(), EventKind::NodeDown { incarnation: 0 });
            }
            PmEvent::ChurnUp { node } => {
                self.tel
                    .emit_at(node, ctx.now(), EventKind::NodeUp { incarnation: 1 });
            }
        }
    }
}

impl CheckpointState for RegionNet {
    fn encode_event(event: &PmEvent, out: &mut ByteWriter) {
        match event {
            PmEvent::HelloTick => out.u8(0),
            PmEvent::Digest(loads) => {
                out.u8(1);
                out.u32(loads.len() as u32);
                for &(node, load) in loads.iter() {
                    out.u32(node);
                    out.u32(load);
                }
            }
            PmEvent::Originate { flow } => {
                out.u8(2);
                out.u32(*flow);
            }
            PmEvent::Forward(p) => {
                out.u8(3);
                out.u32(p.flow);
                out.u32(p.seq);
                out.u32(p.node);
                out.u32(p.dst);
                out.u32(p.ttl);
                out.u64(p.origin_ns);
            }
            PmEvent::ChurnDown { node } => {
                out.u8(4);
                out.u32(*node);
            }
            PmEvent::ChurnUp { node } => {
                out.u8(5);
                out.u32(*node);
            }
        }
    }

    fn decode_event(r: &mut ByteReader<'_>) -> Result<PmEvent, CheckpointError> {
        Ok(match r.u8()? {
            0 => PmEvent::HelloTick,
            1 => {
                let n = r.u32()? as usize;
                let mut loads = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    loads.push((r.u32()?, r.u32()?));
                }
                PmEvent::Digest(Arc::new(loads))
            }
            2 => PmEvent::Originate { flow: r.u32()? },
            3 => PmEvent::Forward(Packet {
                flow: r.u32()?,
                seq: r.u32()?,
                node: r.u32()?,
                dst: r.u32()?,
                ttl: r.u32()?,
                origin_ns: r.u64()?,
            }),
            4 => PmEvent::ChurnDown { node: r.u32()? },
            5 => PmEvent::ChurnUp { node: r.u32()? },
            other => {
                return Err(CheckpointError::Corrupt(format!(
                    "unknown ParMesh event tag {other}"
                )))
            }
        })
    }

    fn encode_state(&self, out: &mut ByteWriter) {
        let (s, cached) = self.rng.save_state();
        for word in s {
            out.u64(word);
        }
        match cached {
            Some(bits) => {
                out.u8(1);
                out.u64(bits);
            }
            None => out.u8(0),
        }
        out.u32(self.hello_seq);
        // Owned loads are dense and parallel to the sorted `own` list, so
        // the node ids are implicit; hash maps go in sorted key order — the
        // encoding must be a pure function of logical state, never of map
        // iteration order.
        out.u32(self.loads.len() as u32);
        for nl in &self.loads {
            out.u32(nl.load);
            out.u32(nl.recent);
        }
        let mut remote: Vec<(u32, u32)> = self.remote.iter().map(|(&k, &v)| (k, v)).collect();
        remote.sort_by_key(|&(k, _)| k);
        out.u32(remote.len() as u32);
        for (node, load) in remote {
            out.u32(node);
            out.u32(load);
        }
        let mut flow_seq: Vec<(u32, u32)> = self.flow_seq.iter().map(|(&k, &v)| (k, v)).collect();
        flow_seq.sort_by_key(|&(k, _)| k);
        out.u32(flow_seq.len() as u32);
        for (flow, seq) in flow_seq {
            out.u32(flow);
            out.u32(seq);
        }
        out.u64(self.stats.originated);
        out.u64(self.stats.delivered);
        out.u64(self.stats.dropped_no_route);
        out.u64(self.stats.dropped_expired);
        out.u64(self.stats.dropped_node_down);
        out.u64(self.stats.forwards);
        out.u64(self.stats.delay_sum_ns);
        out.u64(self.stats.hops_sum);
        // Buffered telemetry: the trace accumulated so far, so a resumed
        // run reproduces the full JSONL output from t = 0 byte-for-byte.
        match &self.sink {
            Some(sink) => {
                let events = &sink.lock().unwrap().events;
                out.u32(events.len() as u32);
                for ev in events {
                    ev.encode_binary(out);
                }
            }
            None => out.u32(0),
        }
    }

    fn decode_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CheckpointError> {
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = r.u64()?;
        }
        let cached = if r.u8()? == 1 { Some(r.u64()?) } else { None };
        self.rng.restore_state(s, cached);
        self.hello_seq = r.u32()?;
        let n_loads = r.u32()? as usize;
        if n_loads != self.own.len() {
            return Err(CheckpointError::Corrupt(format!(
                "checkpoint carries {n_loads} owned loads, region has {}",
                self.own.len()
            )));
        }
        for nl in self.loads.iter_mut() {
            nl.load = r.u32()?;
            nl.recent = r.u32()?;
        }
        self.remote.clear();
        for _ in 0..r.u32()? {
            let node = r.u32()?;
            let load = r.u32()?;
            self.remote.insert(node, load);
        }
        self.flow_seq.clear();
        for _ in 0..r.u32()? {
            let flow = r.u32()?;
            let seq = r.u32()?;
            self.flow_seq.insert(flow, seq);
        }
        self.stats = RegionStats {
            originated: r.u64()?,
            delivered: r.u64()?,
            dropped_no_route: r.u64()?,
            dropped_expired: r.u64()?,
            dropped_node_down: r.u64()?,
            forwards: r.u64()?,
            delay_sum_ns: r.u64()?,
            hops_sum: r.u64()?,
        };
        let n_events = r.u32()? as usize;
        match &self.sink {
            Some(sink) => {
                let mut events = Vec::with_capacity(n_events);
                for _ in 0..n_events {
                    events.push(TelemetryEvent::decode_binary(r)?);
                }
                sink.lock().unwrap().events = events;
            }
            None if n_events > 0 => {
                return Err(CheckpointError::Corrupt(
                    "checkpoint carries telemetry but this run has it off".into(),
                ));
            }
            None => {}
        }
        Ok(())
    }
}

/// Resolve the region grid for a `side` × `side` field: near-square, sides
/// at least [`MIN_REGION_SIDE_M`], honouring an explicit request when
/// geometry allows. With no request the tuner targets one region per ~384
/// nodes with **no upper cap** — a million-node field resolves to a
/// 51 × 51 grid (2601 regions), far past the 256 regions older revisions
/// silently clamped to. Deliberately *not* a function of the worker thread
/// count: the grid is part of the scenario and must stay identical when a
/// run (or a checkpoint resume) changes its thread count.
pub fn region_grid(side: f64, nodes: usize, requested: Option<usize>) -> (usize, usize) {
    let max_axis = ((side / MIN_REGION_SIDE_M).floor() as usize).max(1);
    let target = requested.unwrap_or_else(|| (nodes / 384).max(1)).max(1);
    let mut rx = (target as f64).sqrt().floor() as usize;
    rx = rx.clamp(1, max_axis);
    let mut ry = (target / rx).max(1);
    ry = ry.clamp(1, max_axis);
    (rx, ry)
}

/// Place the scenario's world: homes, drift, churn, indexes and flows — a
/// pure function of the scenario, drawn from the master seed.
fn build_statics(cfg: &ParMesh) -> Statics {
    let n = cfg.nodes;
    let cols = (n as f64).sqrt().ceil() as usize;
    let side = cols as f64 * PITCH_M;
    let horizon = SimTime::ZERO + cfg.duration;

    // --- placement + mobility parameters (master RNG, build thread) ---
    // Jittered grid at the scale presets' pitch: same density as the
    // classic topology, but no geographic voids for greedy forwarding to
    // fall into.
    let mut params = Vec::with_capacity(n);
    for i in 0..n {
        let mut rng = SimRng::derive(cfg.seed, DOMAIN_PLACE, i as u64);
        let gx = (i % cols) as f64 * PITCH_M + PITCH_M / 2.0;
        let gy = (i / cols) as f64 * PITCH_M + PITCH_M / 2.0;
        let home = (
            (gx + rng.range_f64(-40.0, 40.0)).clamp(0.0, side),
            (gy + rng.range_f64(-40.0, 40.0)).clamp(0.0, side),
        );
        let mut drift = SimRng::derive(cfg.seed, DOMAIN_DRIFT, i as u64);
        let (amp, omega, phase) = if cfg.mobility {
            (
                drift.range_f64(5.0, DRIFT_AMP_M),
                drift.range_f64(0.05, 0.3),
                drift.range_f64(0.0, std::f64::consts::TAU),
            )
        } else {
            (0.0, 0.0, 0.0)
        };
        params.push(NodeParams {
            home,
            amp,
            omega,
            phase,
        });
    }

    // --- churn schedule (pure function of the seed) ---
    let dur_ns = cfg.duration.as_nanos();
    let mut churn: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n];
    if cfg.churn {
        for (i, intervals) in churn.iter_mut().enumerate() {
            let mut rng = SimRng::derive(cfg.seed, DOMAIN_CHURN, i as u64);
            if rng.chance(0.04) {
                let start = (rng.range_f64(0.15, 0.7) * dur_ns as f64) as u64;
                let len = (rng.range_f64(0.05, 0.2) * dur_ns as f64) as u64;
                intervals.push((start, (start + len).min(dur_ns)));
            }
        }
    }

    // --- region grid, ownership, spatial hash ---
    let (rx, ry) = region_grid(side, n, cfg.regions);
    let regions = rx * ry;
    if let Some(req) = cfg.regions {
        if regions != req {
            eprintln!(
                "wmn: --regions {req} cannot be honoured on a {side:.0} m field \
                 (region sides must stay >= {MIN_REGION_SIDE_M:.0} m); \
                 granted {rx}x{ry} = {regions} regions"
            );
        }
    }
    let mut st = Statics::new(params, &churn, side, (rx, ry), cfg.interval, horizon);
    drop(churn);

    // --- flows: local destinations a few hops away ---
    let mut flow_rng = SimRng::derive(cfg.seed, DOMAIN_FLOWS, 0);
    let nearest_to = |x: f64, y: f64, exclude: u32| -> Option<u32> {
        let (ncx, ncy) = (st.ncx, st.ncy);
        let (cx, cy) = st.cell_of(x, y);
        let mut best: Option<(f64, u32)> = None;
        for ring in 0..ncx.max(ncy) {
            let r = ring as i64;
            for dy in -r..=r {
                for dx in -r..=r {
                    if dx.abs() != r && dy.abs() != r {
                        continue; // ring boundary only
                    }
                    let nx = cx as i64 + dx;
                    let ny = cy as i64 + dy;
                    if nx < 0 || ny < 0 || nx >= ncx as i64 || ny >= ncy as i64 {
                        continue;
                    }
                    for &v in st.cell_members(ny as usize * ncx + nx as usize) {
                        if v == exclude {
                            continue;
                        }
                        let d = dist(st.params[v as usize].home, (x, y));
                        let better = match best {
                            None => true,
                            Some((bd, bv)) => d < bd || (d == bd && v < bv),
                        };
                        if better {
                            best = Some((d, v));
                        }
                    }
                }
            }
            // One extra ring after the first hit guarantees the true
            // nearest (a closer node can live one ring out at most).
            if best.is_some() && ring > 0 {
                break;
            }
        }
        best.map(|(_, v)| v)
    };
    let mut flows = Vec::with_capacity(cfg.flows);
    for _ in 0..cfg.flows {
        let src = flow_rng.below(n as u64) as u32;
        let angle = flow_rng.range_f64(0.0, std::f64::consts::TAU);
        let reach = flow_rng.range_f64(500.0, 2_500.0);
        let tx = (st.params[src as usize].home.0 + reach * angle.cos()).clamp(0.0, side);
        let ty = (st.params[src as usize].home.1 + reach * angle.sin()).clamp(0.0, side);
        let Some(dst) = nearest_to(tx, ty, src) else {
            continue;
        };
        let start = SimTime::from_secs_f64(flow_rng.range_f64(0.5, 1.5));
        flows.push(Flow { src, dst, start });
    }

    st.flows = flows;
    st
}

fn run_parmesh(cfg: &ParMesh) -> Result<ParMeshOutcome, CheckpointError> {
    assert!(
        !(cfg.trace_hash && cfg.supervised()),
        "trace_hash folds events away as they are emitted; checkpoints need \
         the buffered trace, so the two are incompatible"
    );
    let n = cfg.nodes;
    let horizon = SimTime::ZERO + cfg.duration;
    let dur_ns = cfg.duration.as_nanos();
    let st = Arc::new(build_statics(cfg));
    let regions = st.regions();

    // --- per-region worlds, sinks, RNG streams ---
    let mut owned = vec![0usize; regions];
    for &r in &st.region_of_node {
        owned[r as usize] += 1;
    }
    let mut own: Vec<Vec<u32>> = owned.iter().map(|&c| Vec::with_capacity(c)).collect();
    for (i, &r) in st.region_of_node.iter().enumerate() {
        own[r as usize].push(i as u32);
    }
    let mut sinks: Vec<Option<Arc<Mutex<MemorySink>>>> = Vec::with_capacity(regions);
    let mut hash_sinks: Vec<Arc<Mutex<HashSink>>> = Vec::new();
    let worlds: Vec<RegionNet> = own
        .into_iter()
        .enumerate()
        .map(|(r, own)| {
            let (tel, sink) = if cfg.telemetry {
                let inner = Arc::new(Mutex::new(MemorySink::default()));
                sinks.push(Some(inner.clone()));
                (Tel::new(inner.clone() as SharedSink, 0), Some(inner))
            } else if cfg.trace_hash {
                let inner = Arc::new(Mutex::new(HashSink::new()));
                hash_sinks.push(inner.clone());
                sinks.push(None);
                (Tel::new(inner as SharedSink, 0), None)
            } else {
                sinks.push(None);
                (Tel::off(), None)
            };
            RegionNet::new(r as RegionId, st.clone(), own, cfg.seed, tel, sink)
        })
        .collect();

    // Ring-1 regions interact with HOP_FLOOR lookahead; farther regions
    // only transitively (the engine's horizon sweep derives the multi-hop
    // bounds). Geometry (MIN_REGION_SIDE_M > max hop) guarantees no direct
    // send ever spans more than one ring.
    let lookahead = Lookahead::from_fn(regions, |a, b| {
        if st.adjacent_regions(a).contains(&b) {
            HOP_FLOOR
        } else {
            wmn_sim::shard::NEVER
        }
    });

    // The event budget is a runaway guard, not a scenario knob; scale it
    // with the world so million-node runs don't trip it.
    let budget = 500_000_000u64.max(n as u64 * 1_000);
    let mut engine = ShardedEngine::new(worlds, lookahead, horizon)
        .with_event_budget(budget)
        .with_stealing(cfg.steal);

    // Pre-size region queues from the event plan — the pending set holds
    // one HELLO timer, one Originate timer per sourced flow, the scheduled
    // churn transitions, plus in-flight packets (a few per flow routed
    // through); reserving up front keeps the steady state reallocation-free.
    let mut plan: Vec<usize> = owned.iter().map(|&c| 1 + c / 16).collect();
    for flow in &st.flows {
        plan[st.region_of_node[flow.src as usize] as usize] += 4;
    }
    for (i, &r) in st.region_of_node.iter().enumerate() {
        plan[r as usize] += st.churn_of(i as u32).len() * 2;
    }
    for (r, extra) in plan.into_iter().enumerate() {
        engine.reserve_region(r as RegionId, extra);
    }

    // --- prime: hellos, flows, churn transitions ---
    for (r, &c) in owned.iter().enumerate() {
        if c > 0 {
            engine.prime(
                r as RegionId,
                SimTime::ZERO + HELLO_INTERVAL,
                PmEvent::HelloTick,
            );
        }
    }
    for (f, flow) in st.flows.iter().enumerate() {
        let r = st.region_of_node[flow.src as usize];
        engine.prime(r, flow.start, PmEvent::Originate { flow: f as u32 });
    }
    for i in 0..n {
        let r = st.region_of_node[i];
        for &(down, up) in st.churn_of(i as u32) {
            engine.prime(r, SimTime(down), PmEvent::ChurnDown { node: i as u32 });
            if up < dur_ns {
                engine.prime(r, SimTime(up), PmEvent::ChurnUp { node: i as u32 });
            }
        }
    }

    // Robustness path: resume from the newest checkpoint if asked. A run
    // with no robustness feature gets the default supervisor config, under
    // which the engine keeps no anchor and writes nothing.
    let scenario = cfg.scenario_fingerprint();
    if cfg.resume {
        let dir = cfg
            .checkpoint_dir
            .as_ref()
            .ok_or_else(|| CheckpointError::NotFound("--resume needs a checkpoint dir".into()))?;
        let newest = checkpoint::list_dir(dir)
            .unwrap_or_default()
            .into_iter()
            .filter(|(epoch, _)| epoch.is_some())
            .max_by_key(|&(epoch, _)| epoch);
        if let Some((_, path)) = newest {
            let bytes = checkpoint::read_file(&path)?;
            engine.restore(&bytes, scenario)?;
        }
        // No checkpoints yet: start fresh (first leg of a resumable run).
    }
    let scfg = SupervisorConfig {
        scenario,
        checkpoint_dir: cfg.checkpoint_dir.clone(),
        checkpoint_every: cfg.checkpoint_every.or_else(|| {
            cfg.checkpoint_dir
                .is_some()
                .then(|| SimDuration::from_secs(1))
        }),
        crash_plan: cfg.crash_plan.clone(),
        interrupt: cfg.interrupt.clone(),
    };
    let mut profiler = cfg.profile.then(|| ShardProfiler::new(cfg.threads));
    let probe = profiler.as_mut().map(|p| p as &mut dyn ShardProbe);
    let (report, worlds, sup) = engine.run_supervised(cfg.threads, probe, &scfg)?;
    let profile = profiler.map(ShardProfiler::finish);
    let supervisor = cfg.supervised().then_some(sup);

    // --- aggregate ---
    let mut agg = ParMeshReport {
        nodes: n,
        regions,
        events: report.events_processed,
        epochs: report.epochs,
        cross_region: report.cross_region,
        end_time: report.end_time,
        ..ParMeshReport::default()
    };
    let mut delay_sum = 0u64;
    let mut hops_sum = 0u64;
    for w in &worlds {
        agg.originated += w.stats.originated;
        agg.delivered += w.stats.delivered;
        agg.dropped_no_route += w.stats.dropped_no_route;
        agg.dropped_expired += w.stats.dropped_expired;
        agg.dropped_node_down += w.stats.dropped_node_down;
        agg.forwards += w.stats.forwards;
        delay_sum += w.stats.delay_sum_ns;
        hops_sum += w.stats.hops_sum;
    }
    if agg.delivered > 0 {
        agg.mean_delay_s = delay_sum as f64 / 1e9 / agg.delivered as f64;
        agg.mean_hops = hops_sum as f64 / agg.delivered as f64;
    }

    let (trace, trace_fp) = if cfg.telemetry {
        let per_region: Vec<Vec<TelemetryEvent>> = sinks
            .into_iter()
            .map(|s| match s {
                Some(inner) => std::mem::take(&mut inner.lock().unwrap().events),
                None => Vec::new(),
            })
            .collect();
        // With both telemetry and trace_hash on, fold the buffered traces
        // through the same per-region hashing a hash-only run streams, so
        // the two modes cross-validate each other.
        let fp = cfg.trace_hash.then(|| {
            let fps: Vec<(u64, u64)> = per_region
                .iter()
                .map(|evs| {
                    let mut h = HashSink::new();
                    for ev in evs {
                        h.record(ev);
                    }
                    h.fingerprint()
                })
                .collect();
            combine_region_fps(&fps)
        });
        (merge_region_traces(per_region), fp)
    } else if cfg.trace_hash {
        let fps: Vec<(u64, u64)> = hash_sinks
            .iter()
            .map(|s| s.lock().unwrap().fingerprint())
            .collect();
        (Vec::new(), Some(combine_region_fps(&fps)))
    } else {
        (Vec::new(), None)
    };

    // Rebuild the 1 Hz cross-layer probe feed from the merged trace; the
    // merge order makes the series independent of region/thread layout.
    let mut probes = ProbeSeries::new(HELLO_INTERVAL);
    for ev in &trace {
        if let EventKind::NodeProbe {
            queue,
            busy,
            load,
            fwd_p,
        } = ev.kind
        {
            probes.record(SimTime(ev.t_ns), queue, busy, load, fwd_p);
        }
    }

    Ok(ParMeshOutcome {
        report: agg,
        trace,
        trace_fp,
        profile,
        probes,
        supervisor,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small(threads: usize) -> ParMeshOutcome {
        ParMesh::new(400)
            .seed(7)
            .flows(40)
            .regions(9) // force a real grid; 400 nodes would default to 1
            .duration(SimDuration::from_secs(5))
            .threads(threads)
            .telemetry(true)
            .run()
    }

    #[test]
    fn delivers_most_packets() {
        let out = small(1);
        assert!(out.report.originated > 500, "{:?}", out.report);
        assert!(
            out.report.pdr() > 0.5,
            "pdr {} report {:?}",
            out.report.pdr(),
            out.report
        );
        assert!(out.report.mean_hops >= 1.0);
        assert!(out.report.regions >= 1);
    }

    #[test]
    fn thread_count_is_invisible_in_results_and_trace() {
        let base = small(1);
        for threads in [2, 8] {
            let out = small(threads);
            assert_eq!(base.report.originated, out.report.originated);
            assert_eq!(base.report.delivered, out.report.delivered);
            assert_eq!(base.report.forwards, out.report.forwards);
            assert_eq!(base.report.events, out.report.events);
            assert_eq!(base.report.epochs, out.report.epochs);
            assert_eq!(base.trace.len(), out.trace.len());
            for (i, (a, b)) in base.trace.iter().zip(&out.trace).enumerate() {
                assert_eq!(a, b, "trace diverges at event {i} with {threads} threads");
            }
        }
    }

    #[test]
    fn seed_changes_results() {
        let a = ParMesh::new(300)
            .seed(1)
            .duration(SimDuration::from_secs(3))
            .run();
        let b = ParMesh::new(300)
            .seed(2)
            .duration(SimDuration::from_secs(3))
            .run();
        assert_ne!(
            (a.report.delivered, a.report.forwards),
            (b.report.delivered, b.report.forwards)
        );
    }

    #[test]
    fn churn_drops_packets_somewhere() {
        // With churn on, a large enough scenario sees node-down drops or at
        // least some crashed nodes in the schedule.
        let out = ParMesh::new(800)
            .seed(3)
            .flows(200)
            .duration(SimDuration::from_secs(6))
            .telemetry(true)
            .run();
        let downs = out
            .trace
            .iter()
            .filter(|e| matches!(e.kind, EventKind::NodeDown { .. }))
            .count();
        assert!(downs > 0, "churn schedule produced no crashes");
    }

    #[test]
    fn trace_is_time_ordered() {
        let out = small(2);
        assert!(!out.trace.is_empty());
        assert!(out.trace.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
    }

    #[test]
    fn probes_fire_at_one_hertz() {
        let out = small(2);
        assert!(!out.probes.is_empty());
        let n_probes = out
            .trace
            .iter()
            .filter(|e| matches!(e.kind, EventKind::NodeProbe { .. }))
            .count();
        // 400 nodes × ~4 in-horizon ticks, minus nodes down during churn.
        assert!(n_probes > 1000, "only {n_probes} probe events");
        // Probe events land exactly on HELLO ticks.
        assert!(out
            .trace
            .iter()
            .filter(|e| matches!(e.kind, EventKind::NodeProbe { .. }))
            .all(|e| e.t_ns % HELLO_INTERVAL.as_nanos() == 0));
    }

    #[test]
    fn profiling_changes_nothing_and_fingerprint_is_thread_invariant() {
        let profiled = |threads: usize| {
            ParMesh::new(400)
                .seed(7)
                .flows(40)
                .regions(9)
                .duration(SimDuration::from_secs(5))
                .threads(threads)
                .telemetry(true)
                .profile(true)
                .run()
        };
        let base = small(2);
        let a = profiled(2);
        assert!(base.profile.is_none());
        assert_eq!(base.report.events, a.report.events);
        assert_eq!(base.trace, a.trace);
        let pa = a.profile.as_ref().expect("profile present");
        assert_eq!(pa.events, a.report.events);
        assert_eq!(pa.epochs, a.report.epochs);
        assert_eq!(pa.regions as usize, a.report.regions);
        let b = profiled(8);
        let pb = b.profile.as_ref().expect("profile present");
        assert_eq!(pa.sim_fingerprint(), pb.sim_fingerprint());
    }

    #[test]
    fn injected_crashes_recover_to_identical_results() {
        let base = small(2);
        for threads in [1, 4] {
            let out = ParMesh::new(400)
                .seed(7)
                .flows(40)
                .regions(9)
                .duration(SimDuration::from_secs(5))
                .threads(threads)
                .telemetry(true)
                .crash_plan(CrashPlan {
                    scripted: Vec::new(),
                    stochastic: Some(wmn_sim::shard::StochasticCrash {
                        rate: 0.002,
                        seed: 5,
                        max: 3,
                    }),
                })
                .run();
            let sup = out.supervisor.as_ref().expect("supervised run");
            // Crash decisions are coordinator-side and consumed, so the
            // number of recoveries is a pure function of the scenario.
            assert!(sup.recoveries >= 1, "stochastic plan never fired");
            assert_eq!(sup.recoveries, 3, "{threads} threads");
            assert!(!sup.interrupted);
            assert_eq!(base.report.delivered, out.report.delivered);
            assert_eq!(base.report.events, out.report.events);
            assert_eq!(base.trace, out.trace, "{threads} threads");
        }
    }

    #[test]
    fn checkpoint_resume_reproduces_uninterrupted_run() {
        let dir = std::env::temp_dir().join(format!("wmn_parmesh_ckpt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let scenario = |threads: usize| {
            ParMesh::new(400)
                .seed(7)
                .flows(40)
                .regions(9)
                .duration(SimDuration::from_secs(5))
                .threads(threads)
                .telemetry(true)
        };
        let base = small(1);

        // Leg 1: run to completion while writing checkpoints.
        let full = scenario(2)
            .checkpoint_dir(&dir)
            .checkpoint_every(SimDuration::from_secs(1))
            .run();
        let sup = full.supervisor.as_ref().expect("supervised");
        assert!(sup.checkpoints_written >= 2, "{sup:?}");
        assert_eq!(
            base.trace, full.trace,
            "checkpointing must not alter results"
        );
        assert_eq!(base.report.delivered, full.report.delivered);

        // Leg 2: resume from the newest on-disk checkpoint at a different
        // thread count; the finished run must be bit-identical.
        let resumed = scenario(4)
            .checkpoint_dir(&dir)
            .checkpoint_every(SimDuration::from_secs(1))
            .resume(true)
            .run();
        let sup = resumed.supervisor.as_ref().expect("supervised");
        assert!(sup.resumed_from_epoch.is_some(), "{sup:?}");
        assert_eq!(base.trace, resumed.trace);
        assert_eq!(base.report.delivered, resumed.report.delivered);
        assert_eq!(base.report.events, resumed.report.events);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_with_corrupt_checkpoint_is_a_structured_error() {
        let dir = std::env::temp_dir().join(format!("wmn_parmesh_bad_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("ckpt_epoch_5.wmnckpt"), b"not a checkpoint").unwrap();
        let err = ParMesh::new(100)
            .duration(SimDuration::from_secs(1))
            .checkpoint_dir(&dir)
            .resume(true)
            .try_run()
            .expect_err("corrupt checkpoint must refuse");
        assert!(
            matches!(err, CheckpointError::Corrupt(_)),
            "unexpected error: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn region_grid_respects_geometry() {
        // 400 nodes: side = 3.6 km; minimum side 560 m allows at most 6
        // regions per axis even when far more are requested.
        let side = (400f64).sqrt() * PITCH_M;
        let (rx, ry) = region_grid(side, 400, Some(10_000));
        assert!(rx as f64 * MIN_REGION_SIDE_M <= side);
        assert!(ry as f64 * MIN_REGION_SIDE_M <= side);
    }

    #[test]
    fn region_grid_auto_tunes_past_the_old_256_cap() {
        // A million-node field used to be silently clamped to 256 regions;
        // the auto-tuner now grants the density-derived grid.
        let side = 1000.0 * PITCH_M;
        let (rx, ry) = region_grid(side, 1_000_000, None);
        assert_eq!((rx, ry), (51, 51));
        assert!(rx * ry > 256);
        // The grids behind the committed fig12/fig13 CSVs must not move.
        assert_eq!(
            region_grid((10_000f64).sqrt() * PITCH_M, 10_000, None),
            (5, 5)
        );
        assert_eq!(region_grid(317.0 * PITCH_M, 100_000, None), (16, 16));
    }

    #[test]
    fn steal_setting_is_invisible_in_results_and_trace() {
        let run = |threads: usize, steal: bool| {
            ParMesh::new(400)
                .seed(7)
                .flows(40)
                .regions(9)
                .duration(SimDuration::from_secs(5))
                .threads(threads)
                .steal(steal)
                .telemetry(true)
                .run()
        };
        let base = run(1, false);
        for (threads, steal) in [(1, true), (2, true), (8, true), (8, false)] {
            let out = run(threads, steal);
            assert_eq!(base.report.delivered, out.report.delivered);
            assert_eq!(base.report.events, out.report.events);
            assert_eq!(
                base.trace, out.trace,
                "trace diverges at {threads} threads, steal={steal}"
            );
        }
    }

    #[test]
    fn trace_hash_matches_full_telemetry_and_is_schedule_invariant() {
        let run = |threads: usize, steal: bool, telemetry: bool| {
            ParMesh::new(400)
                .seed(7)
                .flows(40)
                .regions(9)
                .duration(SimDuration::from_secs(5))
                .threads(threads)
                .steal(steal)
                .telemetry(telemetry)
                .trace_hash(true)
                .run()
        };
        // Hash-only run vs full-telemetry run: same per-region streams,
        // same fingerprint — and a real trace only in the latter.
        let hashed = run(1, true, false);
        let full = run(1, true, true);
        assert!(hashed.trace.is_empty());
        assert!(!full.trace.is_empty());
        let fp = hashed.trace_fp.expect("fingerprint present");
        assert!(fp.0 > 0, "fingerprint counted no events");
        assert_eq!(Some(fp), full.trace_fp);
        // Threads and steal schedule are invisible to the fingerprint.
        for (threads, steal) in [(2, true), (8, true), (4, false)] {
            assert_eq!(Some(fp), run(threads, steal, false).trace_fp);
        }
    }

    /// A region world over `st` with arbitrary small loads — exact ones for
    /// the nodes it owns, digested ones for half of the others — so that
    /// load-weighted scores differ and tie.
    fn loaded_region(st: &Arc<Statics>, region: RegionId, rng: &mut SimRng) -> RegionNet {
        let nodes = 0..st.params.len() as u32;
        let own: Vec<u32> = nodes
            .clone()
            .filter(|&v| st.region_of_node[v as usize] == region)
            .collect();
        let mut net = RegionNet::new(region, st.clone(), own, 1, Tel::off(), None);
        for nl in &mut net.loads {
            *nl = NodeLoad {
                load: rng.below(3) as u32,
                recent: rng.below(2) as u32,
            };
        }
        for v in nodes {
            if st.region_of_node[v as usize] != region && rng.chance(0.5) {
                net.remote.insert(v, rng.below(4) as u32);
            }
        }
        net
    }

    /// A hand-placed world around one `u → dst` pair near `corner` of a
    /// 60 km field (where `f32` homes are 4 mm coarse): candidates whose
    /// reach from `u` and whose progress towards `dst` sit on, just inside
    /// and just outside the two thresholds, mirrored relays (equal scores),
    /// some of them down. Node 0 is `u`, node 1 is `dst`.
    fn threshold_world(corner: u8, mobile: bool, rng: &mut SimRng) -> Statics {
        const SIDE: f64 = 60_000.0;
        const NUDGES: [f64; 9] = [0.0, 1e-9, -1e-9, 1e-4, -1e-4, 0.004, -0.004, 0.5, -0.5];
        let (u, towards) = match corner {
            0 => ((3.0, 7.0), 0.6),
            1 => ((SIDE - 3.0, SIDE - 7.0), 0.6 + std::f64::consts::PI),
            _ => ((31_250.0, 29_750.0), 0.0),
        };
        let d_u = rng.range_f64(240.0, 2_500.0);
        let dst = (u.0 + d_u * towards.cos(), u.1 + d_u * towards.sin());
        let mut homes = vec![u, dst];
        for &nudge in &NUDGES {
            // On the range circle around u, anywhere ahead of it.
            let a = towards + rng.range_f64(-1.5, 1.5);
            let amp = if mobile {
                rng.range_f64(0.0, DRIFT_AMP_M)
            } else {
                0.0
            };
            let r = RX_RANGE_M + amp + nudge;
            homes.push((u.0 + r * a.cos(), u.1 + r * a.sin()));
            // On the circle of one metre's progress around dst, near u.
            let b = towards + std::f64::consts::PI + rng.range_f64(-0.05, 0.05);
            let r = d_u - 1.0 + amp + nudge;
            homes.push((dst.0 + r * b.cos(), dst.1 + r * b.sin()));
        }
        // Plain relays part of the way, in pairs mirrored about the u–dst
        // axis. In the mid-field world that axis is a cell boundary along
        // x, so a static pair makes bit-equal progress from two cell rows.
        let (tx, ty) = (towards.cos(), towards.sin());
        for _ in 0..6 {
            let (a, h) = (80.0 + rng.below(150) as f64, rng.below(80) as f64);
            homes.push((u.0 + a * tx - h * ty, u.1 + a * ty + h * tx));
            homes.push((u.0 + a * tx + h * ty, u.1 + a * ty - h * tx));
        }
        let params: Vec<NodeParams> = homes
            .into_iter()
            .map(|(x, y)| NodeParams {
                home: (x.clamp(0.0, SIDE), y.clamp(0.0, SIDE)),
                amp: if mobile {
                    rng.range_f64(0.0, DRIFT_AMP_M)
                } else {
                    0.0
                },
                omega: rng.range_f64(0.05, 0.3),
                phase: rng.range_f64(0.0, std::f64::consts::TAU),
            })
            .collect();
        let churn: Vec<Vec<(u64, u64)>> = (0..params.len())
            .map(|_| {
                if rng.chance(0.15) {
                    vec![(2_000_000_000, 6_000_000_000)]
                } else {
                    Vec::new()
                }
            })
            .collect();
        let horizon = SimTime::from_secs(10);
        Statics::new(
            params,
            &churn,
            SIDE,
            (2, 2),
            SimDuration::from_millis(100),
            horizon,
        )
    }

    /// Homes scattered within 275 m of node 0, which sits where four
    /// regions and four spatial-hash cells meet in the middle of a 4 km
    /// field; nodes 1–4 are destinations 700 m away along the axes. A scan
    /// from inside the crowd has several buffers of survivors.
    fn crowded_world(mobile: bool, rng: &mut SimRng) -> Statics {
        const SIDE: f64 = 4_000.0;
        const CROWD: usize = 200;
        let c = SIDE / 2.0;
        let mut homes = vec![
            (c, c),
            (c + 700.0, c),
            (c, c + 700.0),
            (c - 700.0, c),
            (c, c - 700.0),
        ];
        for _ in 0..CROWD {
            let r = 275.0 * rng.range_f64(0.0, 1.0).sqrt();
            let a = rng.range_f64(0.0, std::f64::consts::TAU);
            homes.push((c + r * a.cos(), c + r * a.sin()));
        }
        let params: Vec<NodeParams> = homes
            .into_iter()
            .map(|home| NodeParams {
                home,
                amp: if mobile {
                    rng.range_f64(0.0, DRIFT_AMP_M)
                } else {
                    0.0
                },
                omega: rng.range_f64(0.05, 0.3),
                phase: rng.range_f64(0.0, std::f64::consts::TAU),
            })
            .collect();
        let churn: Vec<Vec<(u64, u64)>> = (0..params.len())
            .map(|_| {
                if rng.chance(0.15) {
                    vec![(2_000_000_000, 6_000_000_000)]
                } else {
                    Vec::new()
                }
            })
            .collect();
        Statics::new(
            params,
            &churn,
            SIDE,
            (2, 2),
            SimDuration::from_millis(100),
            SimTime::from_secs(10),
        )
    }

    #[test]
    fn churny_marks_exactly_the_nodes_with_down_intervals() {
        for churn in [true, false] {
            let st = build_statics(&ParMesh::new(700).seed(5).churn(churn));
            let mut instants: Vec<u64> = (0..=200).map(|k| k * 50_000_000).collect();
            for &(down, up) in &st.churn_iv {
                instants.extend([down - 1, down, up - 1, up]);
            }
            let mut churny = 0;
            for v in 0..st.params.len() as u32 {
                let row = st.churn_of(v);
                let bit = st.churny[v as usize / 64] >> (v % 64) & 1 == 1;
                assert_eq!(bit, !row.is_empty(), "node {v}, churn {churn}");
                churny += usize::from(bit);
                for &ns in &instants {
                    let by_row = row.iter().all(|&(down, up)| ns < down || ns >= up);
                    assert_eq!(st.is_up(v, SimTime(ns)), by_row, "node {v} at {ns} ns");
                }
            }
            // No bit past the last node.
            assert_eq!(
                st.churny
                    .iter()
                    .map(|w| w.count_ones() as usize)
                    .sum::<usize>(),
                churny
            );
            assert_eq!(churny > 0, churn, "700 nodes at 4 % churn");
        }
    }

    proptest! {
        /// The kernel's buffer fills and is flushed: in a crowd of 200 homes
        /// a scan has far more survivors than one buffer holds, and the hop
        /// from every node of it still equals the all-nodes rule.
        #[test]
        fn next_hop_flushes_a_full_buffer(
            seed in any::<u64>(),
            mobile in any::<bool>(),
            region in 0u32..4,
            t_ms in 0u64..10_000,
        ) {
            let mut rng = SimRng::derive(seed, 0x666C, 0);
            let st = Arc::new(crowded_world(mobile, &mut rng));
            let now = SimTime::from_millis(t_ms);
            let (p0, p1) = (st.pos(0, now), st.pos(1, now));
            let qualifying = (5..st.params.len() as u32)
                .filter(|&v| {
                    let pv = st.pos(v, now);
                    st.is_up(v, now) && dist(p0, pv) <= RX_RANGE_M && dist(p0, p1) - dist(pv, p1) > 1.0
                })
                .count();
            prop_assert!(qualifying > BATCH, "only {qualifying} relays qualify from node 0");
            let net = loaded_region(&st, region, &mut rng);
            for u in 0..st.params.len() as u32 {
                for dst in (1..5).filter(|&d| d != u) {
                    let (got, want) = (net.next_hop(u, dst, now), net.next_hop_all_nodes(u, dst, now));
                    prop_assert!(got == want, "{u} -> {dst} at {now}: {got:?}, all-nodes scan {want:?}");
                }
            }
        }

        /// The prefiltered cell scan picks the hop the rule defines over
        /// all nodes, on generated worlds of every size: field corners and
        /// edges as sources, mobility and churn on and off, any instant.
        #[test]
        fn next_hop_equals_the_all_nodes_scan(
            seed in any::<u64>(),
            nodes in 2usize..700,
            mobility in any::<bool>(),
            churn in any::<bool>(),
            regions in 1usize..12,
            t_ms in 0u64..10_000,
        ) {
            let cfg = ParMesh::new(nodes)
                .seed(seed)
                .mobility(mobility)
                .churn(churn)
                .regions(regions);
            let st = Arc::new(build_statics(&cfg));
            let now = SimTime::from_millis(t_ms);
            let mut rng = SimRng::derive(seed, 0x6E68, 0);
            let n = nodes as u32;
            let cols = (nodes as f64).sqrt().ceil() as u32;
            let mut sources = vec![0, (cols - 1).min(n - 1), n - 1, n - n.min(cols), n / 2];
            sources.extend((0..10).map(|_| rng.below(n as u64) as u32));
            for u in sources {
                let net = loaded_region(&st, st.region_of_node[u as usize], &mut rng);
                for _ in 0..4 {
                    let dst = rng.below(n as u64) as u32;
                    let (got, want) = (net.next_hop(u, dst, now), net.next_hop_all_nodes(u, dst, now));
                    prop_assert!(dst == u || got == want, "{u} -> {dst} at {now}: {got:?}, all-nodes scan {want:?}");
                }
            }
        }

        /// … and on worlds built to sit on the range and progress
        /// thresholds, at the field's corners, from every node of them.
        #[test]
        fn next_hop_agrees_on_the_thresholds(
            seed in any::<u64>(),
            corner in 0u8..3,
            mobile in any::<bool>(),
            t_ms in 0u64..10_000,
        ) {
            let mut rng = SimRng::derive(seed, 0x7468, 0);
            let st = Arc::new(threshold_world(corner, mobile, &mut rng));
            let now = SimTime::from_millis(t_ms);
            for region in 0..4 {
                let net = loaded_region(&st, region, &mut rng);
                for u in 0..st.params.len() as u32 {
                    let (got, want) = (net.next_hop(u, 1, now), net.next_hop_all_nodes(u, 1, now));
                    prop_assert!(u == 1 || got == want, "{u} -> 1 at {now}: {got:?}, all-nodes scan {want:?}");
                }
            }
        }
    }

    #[test]
    fn hello_adjacency_is_the_chebyshev_ring() {
        let st = build_statics(&ParMesh::new(10_000).regions(9));
        assert_eq!(st.regions(), 9);
        assert_eq!(st.adjacent_regions(0), [1, 3, 4]);
        assert_eq!(st.adjacent_regions(4), [0, 1, 2, 3, 5, 6, 7, 8]);
        assert_eq!(st.adjacent_regions(5), [1, 2, 4, 7, 8]);
        // `local_of_node` indexes the owner's ascending id list.
        let mut seen = [0u32; 9];
        for (v, &r) in st.region_of_node.iter().enumerate() {
            assert_eq!(st.local_of_node[v], seen[r as usize]);
            seen[r as usize] += 1;
        }
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn trace_hash_refuses_checkpointing() {
        let dir = std::env::temp_dir().join("wmn_parmesh_hash_ckpt");
        let _ = ParMesh::new(100)
            .duration(SimDuration::from_secs(1))
            .trace_hash(true)
            .checkpoint_dir(&dir)
            .run();
    }
}
