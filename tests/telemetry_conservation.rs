//! Telemetry integration tests on the `scenario/small_5x5_10s` micro-bench
//! scenario: packet-conservation invariants over the structured event
//! trace, exact trace-vs-counter-registry agreement, and proof that
//! telemetry perturbs nothing it observes.

use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, Mutex};
use wmn::sim::{SimDuration, SimTime};
use wmn::telemetry::{
    counter_for_ctrl_drop, counter_for_drop, counter_for_event, Counters, DropReason, EventKind,
    MemorySink, SharedSink, TelemetryConfig, TelemetryEvent,
};
use wmn::{FaultPlan, RunResults, ScenarioBuilder};

/// The micro-bench scenario (benches/engine_micro.rs `small_5x5_10s`).
fn small_5x5_10s() -> ScenarioBuilder {
    ScenarioBuilder::new()
        .seed(3)
        .grid(5, 5, 180.0)
        .flows(4, 2.0, 512)
        .duration(SimDuration::from_secs(10))
        .warmup(SimDuration::from_secs(2))
}

fn trace_scenario(builder: ScenarioBuilder) -> (RunResults, Vec<TelemetryEvent>, usize) {
    let inner = Arc::new(Mutex::new(MemorySink::default()));
    let sink: SharedSink = inner.clone();
    let (results, network) = builder
        .telemetry(TelemetryConfig::enabled())
        .telemetry_sink(sink)
        .build()
        .expect("build")
        .run_with_network();
    let events = inner.lock().unwrap().events.clone();
    (results, events, network.nodes.len())
}

fn run_traced() -> (RunResults, Vec<TelemetryEvent>, usize) {
    trace_scenario(small_5x5_10s())
}

/// Assert the trace's per-kind/per-reason totals equal the counter
/// registry exactly, returning the per-kind totals for further checks.
fn assert_trace_matches_registry(
    results: &RunResults,
    events: &[TelemetryEvent],
) -> BTreeMap<&'static str, u64> {
    let counters = results.counters();
    assert!(!events.is_empty(), "enabled run must emit events");

    let mut by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
    // Pre-seed every counter-mapped kind so an instrumentation gap (counter
    // moved, event never emitted) fails instead of being skipped.
    for kind in [
        "rreq_originate",
        "rreq_recv",
        "rreq_duplicate",
        "rreq_forward",
        "rreq_suppress",
        "rrep_generate",
        "rrep_forward",
        "rrep_drop",
        "rerr_send",
        "hello_send",
        "data_originate",
        "data_forward",
        "data_deliver",
        "mac_enqueue",
        "mac_dequeue",
        "mac_backoff",
        "phy_tx_start",
        "phy_rx",
        "phy_collision",
        "phy_capture",
        "phy_noise",
        "node_down",
        "node_up",
        "fault_injected",
    ] {
        by_kind.insert(kind, 0);
    }
    let mut drops_by_reason: BTreeMap<DropReason, u64> = BTreeMap::new();
    let mut ctrl_by_reason: BTreeMap<DropReason, u64> = BTreeMap::new();
    for ev in events {
        *by_kind.entry(ev.kind.name()).or_insert(0) += 1;
        match ev.kind {
            EventKind::DataDrop { reason, .. } => {
                *drops_by_reason.entry(reason).or_insert(0) += 1;
            }
            EventKind::CtrlDrop { reason } => {
                *ctrl_by_reason.entry(reason).or_insert(0) += 1;
            }
            _ => {}
        }
    }
    // Every mapped kind's trace total equals the registry counter, and
    // every mapped counter with a nonzero value appears in the trace
    // (Counters::get returns 0 for absent names, e.g. drop_retry_limit,
    // which by design is never emitted for data packets).
    for (kind, count) in &by_kind {
        if let Some(name) = counter_for_event(kind) {
            assert_eq!(
                *count,
                counters.get(name),
                "trace kind {kind} disagrees with counter {name}"
            );
        }
    }
    for r in DropReason::ALL {
        let name = counter_for_drop(r);
        assert_eq!(
            drops_by_reason.get(&r).copied().unwrap_or(0),
            counters.get(name),
            "data_drop reason {} disagrees with counter {name}",
            r.name()
        );
        if let Some(name) = counter_for_ctrl_drop(r) {
            assert_eq!(
                ctrl_by_reason.get(&r).copied().unwrap_or(0),
                counters.get(name),
                "ctrl_drop reason {} disagrees with counter {name}",
                r.name()
            );
        }
    }
    by_kind
}

#[test]
fn trace_counts_match_counter_registry_exactly() {
    let (results, events, _) = run_traced();
    let by_kind = assert_trace_matches_registry(&results, &events);
    // Sanity: the scenario actually exercised the layers under test.
    for must in [
        "data_originate",
        "data_deliver",
        "rreq_originate",
        "phy_tx_start",
        "phy_rx",
    ] {
        assert!(
            by_kind.get(must).copied().unwrap_or(0) > 0,
            "no {must} events in trace"
        );
    }
}

/// Every data packet is accounted for exactly once: originated packets
/// either reach a terminal event (deliver or drop) or are still in flight
/// at the horizon — never more than one terminal per (flow, seq). Returns
/// (originated, delivered, dropped) trace totals.
fn assert_packet_conservation(events: &[TelemetryEvent]) -> (u64, u64, u64) {
    let mut originated: HashSet<(u32, u32)> = HashSet::new();
    let mut terminal: BTreeMap<(u32, u32), u32> = BTreeMap::new();
    let (mut n_orig, mut n_deliver, mut n_drop) = (0u64, 0u64, 0u64);
    for ev in events {
        match ev.kind {
            EventKind::DataOriginate { flow, seq } => {
                assert!(
                    originated.insert((flow, seq)),
                    "duplicate originate f{flow}#{seq}"
                );
                n_orig += 1;
            }
            EventKind::DataDeliver { flow, seq } => {
                *terminal.entry((flow, seq)).or_insert(0) += 1;
                n_deliver += 1;
            }
            EventKind::DataDrop { flow, seq, .. } => {
                *terminal.entry((flow, seq)).or_insert(0) += 1;
                n_drop += 1;
            }
            _ => {}
        }
    }
    for ((flow, seq), count) in &terminal {
        assert_eq!(*count, 1, "f{flow}#{seq} has {count} terminal events");
        assert!(
            originated.contains(&(*flow, *seq)),
            "terminal f{flow}#{seq} never originated"
        );
    }
    let residual = n_orig - (n_deliver + n_drop); // underflow here would panic
    assert!(
        residual <= n_orig,
        "negative in-flight residual: {n_orig} originated, {n_deliver} delivered, {n_drop} dropped"
    );
    (n_orig, n_deliver, n_drop)
}

#[test]
fn packet_conservation_invariants_hold() {
    let (_, events, _) = run_traced();
    let (_, n_deliver, _) = assert_packet_conservation(&events);
    assert!(n_deliver > 0, "scenario delivered nothing");

    // PHY causality: every reception outcome refers to a transmission that
    // actually started.
    let tx_ids: HashSet<u64> = events
        .iter()
        .filter_map(|ev| match ev.kind {
            EventKind::PhyTxStart { tx_id, .. } => Some(tx_id),
            _ => None,
        })
        .collect();
    for ev in &events {
        let rx = match ev.kind {
            EventKind::PhyRx { tx_id }
            | EventKind::PhyCollision { tx_id }
            | EventKind::PhyCapture { tx_id }
            | EventKind::PhyNoise { tx_id } => Some(tx_id),
            _ => None,
        };
        if let Some(tx_id) = rx {
            assert!(
                tx_ids.contains(&tx_id),
                "rx of unknown transmission #{tx_id}"
            );
        }
    }
}

/// Collapse a run to the fields that must not move when telemetry is
/// toggled: the full counter registry plus the flow-level summary.
fn fingerprint(r: &RunResults) -> (Counters, u64, u64, u64, u64) {
    (
        r.counters(),
        r.summary.sent,
        r.summary.delivered,
        r.summary.delivered_bytes,
        r.drops.total(),
    )
}

#[test]
fn disabled_sink_is_identical_to_seed_run() {
    // Explicitly disabled vs. the builder's default (disabled too): both
    // must take the exact same code path and produce the exact same
    // simulation.
    let a = small_5x5_10s()
        .telemetry(TelemetryConfig::disabled())
        .build()
        .expect("build")
        .run();
    let b = small_5x5_10s().build().expect("build").run();
    assert_eq!(fingerprint(&a), fingerprint(&b));
    assert_eq!(
        a.events, b.events,
        "disabled telemetry must schedule no events"
    );
    assert_eq!(a.pdr().to_bits(), b.pdr().to_bits());
    assert_eq!(
        a.summary.mean_delay_s.to_bits(),
        b.summary.mean_delay_s.to_bits()
    );
}

#[test]
fn enabled_telemetry_observes_without_perturbing() {
    let disabled = small_5x5_10s()
        .telemetry(TelemetryConfig::disabled())
        .build()
        .expect("build")
        .run();
    let (enabled, events, nodes) = run_traced();

    // Identical physics, routing, MAC and flow outcomes...
    assert_eq!(fingerprint(&enabled), fingerprint(&disabled));
    assert_eq!(enabled.pdr().to_bits(), disabled.pdr().to_bits());

    // ...and the only extra engine events are the probe ticks themselves
    // (one TelemetryProbe dispatch per tick, sampling every node).
    let node_probes = events
        .iter()
        .filter(|ev| matches!(ev.kind, EventKind::NodeProbe { .. }))
        .count();
    assert!(node_probes > 0, "probes must fire on the default 1 s tick");
    assert_eq!(node_probes % nodes, 0, "each tick samples every node");
    let ticks = (node_probes / nodes) as u64;
    assert_eq!(enabled.events, disabled.events + ticks);
}

#[test]
fn empty_fault_plan_is_identical_to_seed_run() {
    // Installing an empty fault plan primes nothing, so the run must stay
    // byte-identical to one built without fault support at all.
    let plain = small_5x5_10s().build().expect("build").run();
    let faulted = small_5x5_10s()
        .faults(FaultPlan::new())
        .build()
        .expect("build")
        .run();
    assert_eq!(fingerprint(&plain), fingerprint(&faulted));
    assert_eq!(plain.events, faulted.events);
    assert_eq!(plain.pdr().to_bits(), faulted.pdr().to_bits());
    assert_eq!(
        faulted.faults.node_down + faulted.faults.node_up + faulted.faults.injected,
        0
    );
}

#[test]
fn conservation_and_registry_hold_under_active_faults() {
    // Scripted crashes (one permanent, one with a reboot), a noise burst,
    // a link shift AND stochastic churn, all at once: every churn-induced
    // discard must carry exactly one DropReason, and the trace totals must
    // still reconcile exactly with the counter registry.
    let plan = FaultPlan::new()
        .fail_node(12, SimTime::from_secs_f64(3.0))
        .fail_node_for(7, SimTime::from_secs_f64(4.0), SimDuration::from_secs(2))
        .noise_burst(
            450.0,
            450.0,
            300.0,
            15.0,
            SimTime::from_secs_f64(5.0),
            SimDuration::from_secs(2),
        )
        .link_shift(8, 20.0, SimTime::from_secs_f64(6.0))
        .churn(SimDuration::from_secs(30), SimDuration::from_secs(3));
    let (results, events, _) = trace_scenario(small_5x5_10s().faults(plan));

    assert!(
        results.faults.node_down > 0,
        "schedule must crash at least one node"
    );
    assert!(
        results.faults.node_up > 0,
        "schedule must reboot at least one node"
    );
    assert!(
        results.faults.injected > 0,
        "schedule must inject noise/link faults"
    );
    assert_packet_conservation(&events);
    let by_kind = assert_trace_matches_registry(&results, &events);
    assert_eq!(by_kind["node_down"], results.faults.node_down);
    assert_eq!(by_kind["node_up"], results.faults.node_up);

    // Crash/reboot telemetry carries monotonically growing incarnations.
    let mut inc_seen: BTreeMap<u32, u32> = BTreeMap::new();
    for ev in &events {
        if let EventKind::NodeUp { incarnation } = ev.kind {
            let prev = inc_seen.insert(ev.node, incarnation);
            assert!(
                prev.is_none_or(|p| incarnation > p),
                "incarnation must grow"
            );
            assert!(incarnation > 0, "a rebooted node cannot be incarnation 0");
        }
    }
    // The outage log matches the crash/reboot counts.
    assert_eq!(results.outages_s.len() as u64, results.faults.node_down);
}

#[test]
fn schema_counters_are_registered_and_traced_kinds_are_declared() {
    // A crash with a reboot and a link shift make every fault counter
    // nonzero, so the registry of this run holds every name a layer can
    // register: each counter the event-schema table mirrors must be one of
    // them (a typo in the table would otherwise verify against a constant
    // 0), and each kind the stack emits must be a declared one.
    let plan = FaultPlan::new()
        .fail_node_for(7, SimTime::from_secs_f64(4.0), SimDuration::from_secs(2))
        .link_shift(8, 20.0, SimTime::from_secs_f64(6.0));
    let (results, events, _) = trace_scenario(small_5x5_10s().faults(plan));
    let counters = results.counters();
    for kind in EventKind::NAMES {
        if let Some(name) = counter_for_event(kind) {
            assert!(
                counters.contains(name),
                "{kind} mirrors `{name}`, which no layer registers"
            );
        }
    }
    for ev in &events {
        assert!(EventKind::NAMES.contains(&ev.kind.name()));
    }
}
