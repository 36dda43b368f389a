//! Run-level result collection.

use crate::medium::MediumStats;
use crate::network::{DropCounters, FaultCounters, Network};
use wmn_mac::MacStats;
use wmn_metrics::{hotspot_factor, jain_index, pdr_during_outages, time_to_reconverge};
use wmn_routing::RoutingStats;
use wmn_sim::{RunReport, SimDuration};
use wmn_telemetry::Counters;
use wmn_traffic::TrackerSummary;

/// Everything a single simulation run produces, aggregated network-wide.
#[derive(Clone, Debug)]
pub struct RunResults {
    /// Scheme label.
    pub scheme: String,
    /// Node count.
    pub nodes: usize,
    /// Flow count.
    pub flows: usize,
    /// Flow-level delivery summary.
    pub summary: TrackerSummary,
    /// Aggregate goodput over the measured interval, kb/s.
    pub goodput_kbps: f64,
    /// Total RREQ transmissions (originated + forwarded).
    pub rreq_tx: u64,
    /// RREQ transmissions per discovery attempt.
    pub rreq_tx_per_discovery: f64,
    /// Saved-rebroadcast ratio: `1 − forwarded / first_copies_received`
    /// (0 for blind flooding by construction, higher = fewer rebroadcasts).
    pub saved_rebroadcast: f64,
    /// Fraction of discoveries that found a route.
    pub discovery_success: f64,
    /// All control transmissions (RREQ + RREP + RERR + HELLO).
    pub control_tx: u64,
    /// Normalised routing load: control transmissions per delivered packet.
    pub normalized_routing_load: f64,
    /// Jain fairness of per-node forwarded-data counts.
    pub jain_forwarding: f64,
    /// Max/mean ratio of per-node forwarded-data counts.
    pub hotspot: f64,
    /// Highest interface-queue occupancy seen anywhere.
    pub max_queue_peak: usize,
    /// Data losses by cause.
    pub drops: DropCounters,
    /// Fault injections applied (all zero without a fault plan).
    pub faults: FaultCounters,
    /// Node outages as `(node, down_s, up_s)`; an outage still open at the
    /// end of the run is closed at the horizon.
    pub outages_s: Vec<(u32, f64, f64)>,
    /// Route-repair latencies (crash → next end-to-end delivery), seconds.
    pub repair_latency_s: Vec<f64>,
    /// Delivery ratio restricted to outage windows (`None` without faults).
    pub pdr_during_outage: Option<f64>,
    /// Seconds from the first crash until the delivery rate sustains 80 %
    /// of its pre-fault baseline (`None` without faults, or if it never
    /// re-converges within the run).
    pub reconverge_s: Option<f64>,
    /// Network-wide routing counters.
    pub routing: RoutingStats,
    /// Network-wide MAC counters.
    pub mac: MacStats,
    /// Medium loss counters.
    pub medium: MediumStats,
    /// Engine events processed.
    pub events: u64,
    /// Delivered packets per second, per 1-second bin from t = 0 (includes
    /// the warm-up, so the discovery transient is visible).
    pub delivery_rate_pps: Vec<f64>,
    /// Total radio energy consumed network-wide, joules.
    pub energy_total_j: f64,
    /// Communication-only (tx + rx) energy per delivered packet,
    /// millijoules — the scheme-discriminating efficiency metric (idle
    /// draw is identical across schemes).
    pub comm_energy_per_delivered_mj: f64,
    /// Highest single-node energy consumption, joules.
    pub energy_max_node_j: f64,
}

impl RunResults {
    /// Harvest results from a finished network.
    pub fn collect(
        network: &Network,
        report: &RunReport,
        scheme: String,
        measured: SimDuration,
    ) -> Self {
        let mut routing = RoutingStats::default();
        let mut mac = MacStats::default();
        let mut per_node_forwarded = Vec::with_capacity(network.nodes.len());
        let mut max_queue_peak = 0usize;
        for node in &network.nodes {
            routing.accumulate(node.routing.stats());
            mac.accumulate(node.mac.stats());
            let mut forwarded = node.routing.stats().data_forwarded;
            // Stats retired by reboots: counters from previous incarnations
            // must still reconcile with the trace.
            if let Some(retired) = &node.retired {
                let (retired_mac, retired_routing) = &**retired;
                routing.accumulate(retired_routing);
                mac.accumulate(retired_mac);
                forwarded += retired_routing.data_forwarded;
            }
            per_node_forwarded.push(forwarded as f64);
            max_queue_peak = max_queue_peak.max(node.mac.queue().peak());
        }
        let mut energy_total = 0.0f64;
        let mut energy_max = 0.0f64;
        let mut comm_energy = 0.0f64;
        for i in 0..network.nodes.len() {
            let e = network.medium.energy_joules(i as u32, report.end_time);
            energy_total += e;
            energy_max = energy_max.max(e);
            comm_energy += network.medium.comm_energy_joules(i as u32, report.end_time);
        }
        let horizon = report.end_time.as_secs_f64();
        let outages_s: Vec<(u32, f64, f64)> = network
            .outages
            .iter()
            .map(|&(node, down, up)| (node, down, up.unwrap_or(horizon)))
            .collect();
        let windows: Vec<(f64, f64)> = outages_s.iter().map(|&(_, a, b)| (a, b)).collect();
        let pdr_during_outage =
            pdr_during_outages(&network.sent_timeline, &network.delivery_timeline, &windows);
        let reconverge_s = outages_s
            .first()
            .and_then(|&(_, down, _)| time_to_reconverge(&network.delivery_timeline, down, 0.8, 2));
        let summary = network.tracker.summary();
        let rreq_tx = routing.rreq_originated + routing.rreq_forwarded;
        let first_copies = routing
            .rreq_received
            .saturating_sub(routing.rreq_duplicates);
        let discoveries = routing.discoveries_started.max(1);
        let finished = routing.discoveries_succeeded + routing.discoveries_failed;
        RunResults {
            scheme,
            nodes: network.nodes.len(),
            flows: network.flows.len(),
            goodput_kbps: network.tracker.goodput_bps(measured) / 1000.0,
            rreq_tx,
            rreq_tx_per_discovery: rreq_tx as f64 / discoveries as f64,
            saved_rebroadcast: if first_copies == 0 {
                0.0
            } else {
                1.0 - (routing.rreq_forwarded as f64 / first_copies as f64).min(1.0)
            },
            discovery_success: if finished == 0 {
                1.0
            } else {
                routing.discoveries_succeeded as f64 / finished as f64
            },
            control_tx: routing.control_tx(),
            normalized_routing_load: routing.control_tx() as f64 / summary.delivered.max(1) as f64,
            jain_forwarding: jain_index(&per_node_forwarded),
            hotspot: hotspot_factor(&per_node_forwarded),
            max_queue_peak,
            drops: network.drops,
            faults: network.faults,
            outages_s,
            repair_latency_s: network.recovery.latencies().to_vec(),
            pdr_during_outage,
            reconverge_s,
            routing,
            mac,
            medium: *network.medium.stats(),
            events: report.events_processed,
            delivery_rate_pps: network.delivery_timeline.rates().map(|(_, r)| r).collect(),
            energy_total_j: energy_total,
            comm_energy_per_delivered_mj: comm_energy * 1_000.0 / summary.delivered.max(1) as f64,
            energy_max_node_j: energy_max,
            summary,
        }
    }

    /// The unified counter registry: every routing, MAC, PHY and drop
    /// counter under its stable snake_case name. This is the single source
    /// of truth read by `tab2_summary`, run manifests and the
    /// trace-conservation test.
    pub fn counters(&self) -> Counters {
        let mut c = Counters::new();
        self.routing.visit(&mut |name, v| c.add(name, v));
        self.mac.visit(&mut |name, v| c.add(name, v));
        self.medium.visit(&mut |name, v| c.add(name, v));
        self.drops.visit(&mut |name, v| c.add(name, v));
        self.faults.visit(&mut |name, v| c.add(name, v));
        c
    }

    /// Packet delivery ratio shortcut.
    pub fn pdr(&self) -> f64 {
        self.summary.delivery_ratio
    }

    /// Mean end-to-end delay in milliseconds.
    pub fn mean_delay_ms(&self) -> f64 {
        self.summary.mean_delay_s * 1000.0
    }

    /// Mean route-repair latency, seconds (`None` before the first repair).
    pub fn mean_repair_latency_s(&self) -> Option<f64> {
        match self.repair_latency_s.len() {
            0 => None,
            n => Some(self.repair_latency_s.iter().sum::<f64>() / n as f64),
        }
    }
}
