//! Scenario construction — the library's main entry point.
//!
//! ```
//! use cnlr::{Scheme, ScenarioBuilder};
//! use wmn_sim::SimDuration;
//!
//! let results = ScenarioBuilder::new()
//!     .seed(1)
//!     .grid(4, 4, 180.0)
//!     .scheme(Scheme::Flooding)
//!     .flows(2, 2.0, 512)
//!     .duration(SimDuration::from_secs(15))
//!     .warmup(SimDuration::from_secs(3))
//!     .build()
//!     .expect("valid scenario")
//!     .run();
//! assert!(results.summary.sent > 0);
//! ```

use crate::event::Event;
use crate::medium::{LinkCacheSnapshot, Medium};
use crate::network::{Network, RebootKit};
use crate::node::{rng_domain, Node};
use crate::results::RunResults;
use crate::scheme::Scheme;
use wmn_faults::FaultPlan;
use wmn_mac::MacParams;
use wmn_mobility::MobilityConfig;
use wmn_radio::PhyParams;
use wmn_routing::{FlowId, NodeId, RoutingAction, RoutingConfig};
use wmn_sim::{Engine, SimDuration, SimRng, SimTime};
use wmn_telemetry::{next_run_id, SharedSink, Tel, TelemetryConfig};
use wmn_topology::{ConnectivityGraph, Placement, Region, SpatialIndex, Vec2};
use wmn_traffic::{FlowSpec, FlowState, FlowTracker, TrafficPattern};

/// Scenario-construction errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// The generated topology was not connected after all retries.
    Disconnected,
    /// Fewer than two nodes — no flows possible.
    TooSmall,
    /// Could not find enough flow endpoint pairs with the requested
    /// separation.
    NoFlowPairs,
    /// [`ScenarioBuilder::build_with_prefix`] was handed a prefix built
    /// from different prefix-relevant settings (see
    /// [`ScenarioBuilder::prefix_fingerprint`]).
    PrefixMismatch,
    /// A scripted fault acts on `node`, but the scenario has only `nodes`
    /// nodes (ids `0..nodes`).
    FaultTarget {
        /// The out-of-range node id.
        node: u32,
        /// The scenario's node count.
        nodes: usize,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Disconnected => write!(f, "topology not connected"),
            BuildError::TooSmall => write!(f, "need at least 2 nodes"),
            BuildError::NoFlowPairs => write!(f, "could not draw flow endpoints"),
            BuildError::PrefixMismatch => {
                write!(f, "scenario prefix built from different settings")
            }
            BuildError::FaultTarget { node, nodes } => {
                write!(
                    f,
                    "a scripted fault targets node {node}, but the scenario has {nodes} nodes"
                )
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// An explicit sink override — opaque so the builder stays `Debug`.
#[derive(Clone)]
struct SinkOverride(SharedSink);

impl std::fmt::Debug for SinkOverride {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SinkOverride(..)")
    }
}

/// How flows are chosen.
#[derive(Clone, Debug)]
enum FlowPlan {
    Random {
        count: usize,
        pps: f64,
        payload: usize,
        min_hops: u32,
    },
    Explicit(Vec<FlowSpec>),
}

/// Fluent scenario builder.
#[derive(Clone, Debug)]
pub struct ScenarioBuilder {
    seed: u64,
    region: Region,
    placement: Placement,
    scheme: Scheme,
    phy: PhyParams,
    mac: MacParams,
    routing: RoutingConfig,
    backbone_mobility: MobilityConfig,
    mobile_clients: Option<(usize, MobilityConfig)>,
    flow_plan: FlowPlan,
    duration: SimDuration,
    warmup: SimDuration,
    require_connected: bool,
    position_sample: SimDuration,
    event_budget: u64,
    link_cache: bool,
    telemetry: Option<TelemetryConfig>,
    telemetry_sink: Option<SinkOverride>,
    faults: Option<FaultPlan>,
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ScenarioBuilder {
    /// A 1000 m × 1000 m field with a 10×10 lightly-perturbed router grid,
    /// classic 802.11b PHY, flooding, no traffic.
    pub fn new() -> Self {
        ScenarioBuilder {
            seed: 1,
            region: Region::square(1000.0),
            placement: Placement::Grid {
                rows: 10,
                cols: 10,
                jitter_frac: 0.15,
            },
            scheme: Scheme::Flooding,
            phy: PhyParams::classic_802_11b(),
            mac: MacParams::default(),
            routing: RoutingConfig::default(),
            backbone_mobility: MobilityConfig::Static,
            mobile_clients: None,
            flow_plan: FlowPlan::Random {
                count: 0,
                pps: 4.0,
                payload: 512,
                min_hops: 2,
            },
            duration: SimDuration::from_secs(60),
            warmup: SimDuration::from_secs(10),
            require_connected: true,
            position_sample: SimDuration::from_millis(250),
            event_budget: u64::MAX,
            link_cache: true,
            telemetry: None,
            telemetry_sink: None,
            faults: None,
        }
    }

    /// Master seed (replications vary this).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Deployment field.
    pub fn region(mut self, region: Region) -> Self {
        self.region = region;
        self
    }

    /// `rows × cols` router grid scaled so that the grid pitch equals
    /// `pitch_m` (the field is resized accordingly).
    pub fn grid(mut self, rows: usize, cols: usize, pitch_m: f64) -> Self {
        self.region = Region::new(cols as f64 * pitch_m, rows as f64 * pitch_m);
        self.placement = Placement::Grid {
            rows,
            cols,
            jitter_frac: 0.15,
        };
        self
    }

    /// Arbitrary placement inside the current region.
    pub fn placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Route-discovery scheme.
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// PHY parameter overrides.
    pub fn phy(mut self, phy: PhyParams) -> Self {
        self.phy = phy;
        self
    }

    /// MAC parameter overrides.
    pub fn mac(mut self, mac: MacParams) -> Self {
        self.mac = mac;
        self
    }

    /// Routing parameter overrides.
    pub fn routing(mut self, routing: RoutingConfig) -> Self {
        self.routing = routing;
        self
    }

    /// Make the backbone itself mobile (ad-hoc style scenarios).
    pub fn backbone_mobility(mut self, m: MobilityConfig) -> Self {
        self.backbone_mobility = m;
        self
    }

    /// Add `count` mobile client nodes with the given model.
    pub fn mobile_clients(mut self, count: usize, m: MobilityConfig) -> Self {
        self.mobile_clients = Some((count, m));
        self
    }

    /// `count` random CBR flows at `pps` packets/s with `payload`-byte
    /// packets between endpoints at least 2 hops apart.
    pub fn flows(mut self, count: usize, pps: f64, payload: usize) -> Self {
        self.flow_plan = FlowPlan::Random {
            count,
            pps,
            payload,
            min_hops: 2,
        };
        self
    }

    /// Like [`ScenarioBuilder::flows`] with an explicit hop-separation
    /// requirement.
    pub fn flows_min_hops(mut self, count: usize, pps: f64, payload: usize, min_hops: u32) -> Self {
        self.flow_plan = FlowPlan::Random {
            count,
            pps,
            payload,
            min_hops,
        };
        self
    }

    /// Fully explicit flow list.
    pub fn explicit_flows(mut self, flows: Vec<FlowSpec>) -> Self {
        self.flow_plan = FlowPlan::Explicit(flows);
        self
    }

    /// Total simulated time.
    pub fn duration(mut self, d: SimDuration) -> Self {
        self.duration = d;
        self
    }

    /// Statistics warm-up (flows start inside this window).
    pub fn warmup(mut self, w: SimDuration) -> Self {
        self.warmup = w;
        self
    }

    /// Whether to reject disconnected topologies (default true).
    pub fn require_connected(mut self, yes: bool) -> Self {
        self.require_connected = yes;
        self
    }

    /// Cap engine events (runaway protection in tests).
    pub fn event_budget(mut self, budget: u64) -> Self {
        self.event_budget = budget;
        self
    }

    /// Enable/disable the medium's link-budget cache (default enabled).
    ///
    /// Runs are bit-identical either way for the same seed — disabling only
    /// exists so the equivalence tests can prove exactly that.
    pub fn link_cache(mut self, enabled: bool) -> Self {
        self.link_cache = enabled;
        self
    }

    /// Explicit telemetry configuration. Default: resolved from the
    /// `WMN_TELEMETRY` family of environment variables at build time.
    pub fn telemetry(mut self, cfg: TelemetryConfig) -> Self {
        self.telemetry = Some(cfg);
        self
    }

    /// Route telemetry events into `sink` instead of the file named by the
    /// configuration (in-memory sinks for tests and in-process analysis).
    /// Implies nothing about enablement — the configuration still decides.
    pub fn telemetry_sink(mut self, sink: SharedSink) -> Self {
        self.telemetry_sink = Some(SinkOverride(sink));
        self
    }

    /// Inject a fault plan (node churn, noise bursts, link shifts). A plan
    /// that expands to no events leaves the run byte-identical to a build
    /// without one.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// FNV-1a over the prefix-relevant settings: everything that determines
    /// node positions and flow endpoints — seed, field, placement, PHY
    /// (its nominal range gates connectivity), mobile-client *count*,
    /// flow plan, duration/warmup (flow start/stop times) and the
    /// connectivity requirement. Deliberately excluded: the scheme, MAC /
    /// routing parameters, mobility models, faults, telemetry and cache
    /// settings — none of them are consulted before the world is assembled,
    /// so two builders that agree on this fingerprint draw bit-identical
    /// topologies and flows and may share one [`ScenarioPrefix`].
    pub fn prefix_fingerprint(&self) -> u64 {
        fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            h
        }
        let key = format!(
            "seed={};region={:?}x{:?};placement={:?};phy={:?};clients={};\
             flows={:?};dur={};warm={};conn={}",
            self.seed,
            self.region.width,
            self.region.height,
            self.placement,
            self.phy,
            self.mobile_clients.as_ref().map_or(0, |(c, _)| *c),
            self.flow_plan,
            self.duration.as_nanos(),
            self.warmup.as_nanos(),
            self.require_connected,
        );
        fnv(0xCBF2_9CE4_8422_2325, key.as_bytes())
    }

    /// Build only the scheme-independent prefix: run the topology retry
    /// loop and draw the flow endpoints. The scenario RNG is consumed
    /// exclusively here, so [`ScenarioBuilder::build_with_prefix`] over the
    /// result is bit-identical to a direct [`ScenarioBuilder::build`] —
    /// that identity is what lets a batch scheduler build the prefix once
    /// and fan many schemes out over it.
    pub fn build_prefix(&self) -> Result<ScenarioPrefix, BuildError> {
        let mut scen_rng = SimRng::derive(self.seed, rng_domain::SCENARIO, 0);

        // --- Topology -------------------------------------------------
        let range = self.phy.nominal_range_m();
        let backbone_count = self.placement.count();
        let client_count = self.mobile_clients.as_ref().map_or(0, |(c, _)| *c);
        let total = backbone_count + client_count;
        if total < 2 {
            return Err(BuildError::TooSmall);
        }

        let mut positions = Vec::new();
        let mut graph = None;
        for _attempt in 0..50 {
            positions = self.placement.generate(self.region, &mut scen_rng);
            for _ in 0..client_count {
                positions.push(Vec2::new(
                    scen_rng.range_f64(0.0, self.region.width),
                    scen_rng.range_f64(0.0, self.region.height),
                ));
            }
            let g = ConnectivityGraph::from_positions(self.region, &positions, range);
            if !self.require_connected || g.is_connected() {
                graph = Some(g);
                break;
            }
            positions.clear();
        }
        let graph = graph.ok_or(BuildError::Disconnected)?;

        // --- Flows ----------------------------------------------------
        let flow_specs: Vec<FlowSpec> = match &self.flow_plan {
            FlowPlan::Explicit(fs) => fs.clone(),
            FlowPlan::Random {
                count,
                pps,
                payload,
                min_hops,
            } => {
                // At most one flow per attempt, so a count from outside the
                // program cannot size the allocation beyond the attempt cap.
                let mut specs = Vec::with_capacity((*count).min(5000));
                let mut attempts = 0u32;
                while specs.len() < *count {
                    attempts += 1;
                    if attempts > 5000 {
                        return Err(BuildError::NoFlowPairs);
                    }
                    let src = scen_rng.below_usize(total);
                    let dst = scen_rng.below_usize(total);
                    if src == dst {
                        continue;
                    }
                    match graph.hop_distance(src, dst) {
                        Some(h) if h >= *min_hops => {}
                        _ => continue,
                    }
                    // Stagger starts across the first part of the warm-up.
                    let start = SimTime::ZERO
                        + SimDuration::from_millis(500)
                        + SimDuration(
                            scen_rng
                                .below(self.warmup.as_nanos().saturating_sub(500_000_000).max(1)),
                        );
                    specs.push(FlowSpec {
                        id: FlowId(specs.len() as u32),
                        src: NodeId(src as u32),
                        dst: NodeId(dst as u32),
                        payload: *payload,
                        start,
                        stop: SimTime::ZERO + self.duration,
                        pattern: TrafficPattern::cbr_pps(*pps),
                    });
                }
                specs
            }
        };

        Ok(ScenarioPrefix {
            fingerprint: self.prefix_fingerprint(),
            positions,
            flow_specs,
        })
    }

    /// Construct the simulation.
    pub fn build(self) -> Result<Simulation, BuildError> {
        let prefix = self.build_prefix()?;
        self.build_with_prefix(&prefix)
    }

    /// Assemble the world on top of a previously built prefix. The prefix
    /// must come from a builder that agrees on every prefix-relevant
    /// setting (same [`ScenarioBuilder::prefix_fingerprint`]); the scheme,
    /// MAC/routing parameters, mobility models, faults and telemetry may
    /// differ freely.
    pub fn build_with_prefix(self, prefix: &ScenarioPrefix) -> Result<Simulation, BuildError> {
        if prefix.fingerprint != self.prefix_fingerprint() {
            return Err(BuildError::PrefixMismatch);
        }
        let backbone_count = self.placement.count();
        let positions = &prefix.positions;
        let flow_specs = &prefix.flow_specs;
        let total = positions.len();
        // The fault would index the node tables when it fires, mid-run.
        if let Some(node) = self.faults.as_ref().and_then(FaultPlan::max_scripted_node) {
            if node as usize >= total {
                return Err(BuildError::FaultTarget { node, nodes: total });
            }
        }

        // --- Nodes ----------------------------------------------------
        let mut nodes = Vec::with_capacity(total);
        for (i, &pos) in positions.iter().enumerate() {
            let mobility = if i < backbone_count {
                self.backbone_mobility
            } else {
                self.mobile_clients
                    .as_ref()
                    .expect("client without config")
                    .1
            };
            nodes.push(Node::new(
                i as u32,
                self.seed,
                self.mac.clone(),
                self.routing.clone(),
                self.scheme.build(),
                mobility,
                pos,
                self.region,
                SimTime::ZERO,
            ));
        }

        // --- Assembly ---------------------------------------------------
        let interference = self.phy.interference_range_m();
        let spatial = SpatialIndex::new(self.region, interference.max(50.0) / 2.0, positions);
        let medium = Medium::new(
            self.phy.clone(),
            total,
            SimRng::derive(self.seed, rng_domain::MEDIUM, 0),
            25.0,
        )
        .with_link_cache(self.link_cache);
        let tracker = FlowTracker::new(SimTime::ZERO + self.warmup);
        let flows: Vec<FlowState> = flow_specs.iter().copied().map(FlowState::new).collect();
        let traffic_rng = SimRng::derive(self.seed, rng_domain::TRAFFIC, 0);
        let mut network = Network::new(
            nodes,
            medium,
            spatial,
            tracker,
            flows,
            traffic_rng,
            self.position_sample,
        );

        // --- Engine priming --------------------------------------------
        let mut engine =
            Engine::new(SimTime::ZERO + self.duration).with_event_budget(self.event_budget);
        let mut acts = Vec::new();
        for i in 0..network.nodes.len() {
            acts.clear();
            network.nodes[i].routing.start(SimTime::ZERO, &mut acts);
            for a in acts.drain(..) {
                if let RoutingAction::SetTimer { timer, at } = a {
                    engine.prime(
                        at,
                        Event::RoutingTimer {
                            node: i as u32,
                            timer,
                            inc: 0,
                        },
                    );
                }
            }
            if network.nodes[i].mobility.is_mobile() {
                let next = network.nodes[i].mobility.next_update();
                if next != SimTime::MAX {
                    engine.prime(next, Event::MobilityUpdate { node: i as u32 });
                }
            }
        }
        if network.any_mobile() {
            engine.prime(SimTime::ZERO + self.position_sample, Event::PositionSample);
        }
        for (idx, spec) in flow_specs.iter().enumerate() {
            engine.prime(spec.start, Event::TrafficEmit { flow_idx: idx });
        }

        // --- Faults -----------------------------------------------------
        // A plan that expands to nothing primes nothing and installs
        // nothing, so fault-free runs stay byte-identical to a build
        // without fault support.
        if let Some(plan) = &self.faults {
            let horizon = SimTime::ZERO + self.duration;
            let schedule = plan.expand(
                self.seed,
                total as u32,
                self.region.width,
                self.region.height,
                horizon,
            );
            if !schedule.is_empty() {
                for (idx, f) in schedule.iter().enumerate() {
                    engine.prime(f.at, Event::Fault { idx: idx as u32 });
                }
                network.set_faults(
                    schedule,
                    RebootKit {
                        master_seed: self.seed,
                        mac: self.mac.clone(),
                        routing: self.routing.clone(),
                        scheme: self.scheme.clone(),
                    },
                );
            }
        }

        // --- Telemetry --------------------------------------------------
        // Wired last so the probe event is only ever primed for enabled
        // runs: a disabled run's event sequence is untouched and therefore
        // byte-identical to a build without telemetry support.
        let tel_cfg = self
            .telemetry
            .clone()
            .unwrap_or_else(TelemetryConfig::from_env);
        if tel_cfg.enabled {
            let sink = self
                .telemetry_sink
                .as_ref()
                .map(|s| s.0.clone())
                .or_else(|| tel_cfg.open_sink());
            if let Some(sink) = sink {
                let tel = Tel::new(sink, next_run_id());
                network.set_telemetry(tel, tel_cfg.probe_interval, tel_cfg.profile);
                if let Some(tick) = tel_cfg.probe_interval {
                    engine.prime(SimTime::ZERO + tick, Event::TelemetryProbe);
                }
            }
        }

        let scheme_label = self.scheme.label();
        let measured = self.duration.saturating_sub(self.warmup);
        Ok(Simulation {
            engine,
            network,
            scheme_label,
            measured,
        })
    }
}

/// The scheme-independent prefix of a scenario: the accepted topology
/// (backbone + client positions) and the drawn flow specs. Everything the
/// scenario RNG ever produces lives here, so any builder with the same
/// [`ScenarioBuilder::prefix_fingerprint`] can assemble a bit-identical
/// world from one shared prefix — the dedup unit of the batch scheduler.
#[derive(Clone, Debug)]
pub struct ScenarioPrefix {
    fingerprint: u64,
    positions: Vec<Vec2>,
    flow_specs: Vec<FlowSpec>,
}

impl ScenarioPrefix {
    /// The fingerprint of the builder settings this prefix was drawn from.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Total node count (backbone + clients).
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// Number of flows drawn.
    pub fn flow_count(&self) -> usize {
        self.flow_specs.len()
    }
}

/// A fully-primed simulation, ready to run.
pub struct Simulation {
    engine: Engine<Event>,
    /// The network world (public for white-box integration tests).
    pub network: Network,
    scheme_label: String,
    measured: SimDuration,
}

impl Simulation {
    /// Install a cooperative cancellation flag (see
    /// [`Engine::with_interrupt`]): once set, the run stops within 1024
    /// events and [`Simulation::run_full`] reports
    /// [`wmn_sim::StopReason::Interrupted`]. A flag that is never raised
    /// leaves the run byte-identical.
    pub fn interrupt(mut self, flag: std::sync::Arc<std::sync::atomic::AtomicBool>) -> Self {
        self.engine = self.engine.with_interrupt(flag);
        self
    }

    /// Import a warm link-budget cache exported from an identical-topology
    /// run (see [`Medium::import_link_cache`]). Returns whether the import
    /// was accepted. Purely a performance hand-off: accepted or not, the
    /// run's results are bit-identical.
    pub fn import_link_cache(&mut self, snap: &LinkCacheSnapshot) -> bool {
        self.network
            .medium
            .import_link_cache(snap, &self.network.spatial)
    }

    /// Run to the horizon and collect results.
    pub fn run(self) -> RunResults {
        self.run_with_network().0
    }

    /// Run to the horizon, returning both the aggregate results and the
    /// final network state (per-flow trackers, per-node tables and stats —
    /// for white-box analysis and the per-flow examples).
    pub fn run_with_network(self) -> (RunResults, Network) {
        let (results, network, _) = self.run_full();
        (results, network)
    }

    /// Like [`Simulation::run_with_network`], additionally reporting why
    /// the engine stopped — the scheduler uses this to distinguish a
    /// cancelled run (results must be discarded) from a completed one.
    pub fn run_full(mut self) -> (RunResults, Network, wmn_sim::StopReason) {
        let report = self.engine.run(&mut self.network);
        self.network.flush_telemetry();
        let results = RunResults::collect(&self.network, &report, self.scheme_label, self.measured);
        let reason = report.reason;
        (results, self.network, reason)
    }
}
