//! End-to-end fault recovery on a hand-authored topology: a relay dies
//! mid-flow, the upstream hop detects the break through MAC retry
//! exhaustion, emits a real RERR that propagates to the source, and the
//! source re-discovers a route over the surviving detour.

use std::sync::{Arc, Mutex};
use wmn::routing::{FlowId, NodeId};
use wmn::sim::{SimDuration, SimTime};
use wmn::telemetry::{EventKind, MemorySink, SharedSink, TelemetryConfig, TelemetryEvent};
use wmn::topology::{Placement, Region, Vec2};
use wmn::traffic::{FlowSpec, TrafficPattern};
use wmn::{FaultPlan, ScenarioBuilder, Scheme};

const FAIL_S: f64 = 6.0;

/// A 4-hop chain 0–1–2–3 (200 m spacing, nominal range 250 m) with a
/// 2-node detour 1–4–5–3 that survives when relay 2 dies:
///
/// ```text
///        4 ---- 5
///       /        \
/// 0 -- 1 -- 2 -- 3
/// ```
fn chain_with_detour() -> ScenarioBuilder {
    let positions = vec![
        Vec2::new(50.0, 50.0),   // 0: source
        Vec2::new(250.0, 50.0),  // 1: upstream of the victim
        Vec2::new(450.0, 50.0),  // 2: the relay that dies
        Vec2::new(650.0, 50.0),  // 3: destination
        Vec2::new(300.0, 210.0), // 4: detour
        Vec2::new(500.0, 210.0), // 5: detour
    ];
    let flow = FlowSpec {
        id: FlowId(0),
        src: NodeId(0),
        dst: NodeId(3),
        payload: 256,
        start: SimTime::from_secs_f64(1.0),
        stop: SimTime::from_secs_f64(15.0),
        pattern: TrafficPattern::cbr_pps(4.0),
    };
    ScenarioBuilder::new()
        .seed(11)
        .region(Region::new(700.0, 300.0))
        .placement(Placement::Explicit(positions))
        .scheme(Scheme::Flooding)
        .explicit_flows(vec![flow])
        .duration(SimDuration::from_secs(15))
        .warmup(SimDuration::from_secs(1))
}

fn run_traced(builder: ScenarioBuilder) -> (wmn::RunResults, Vec<TelemetryEvent>) {
    let inner = Arc::new(Mutex::new(MemorySink::default()));
    let sink: SharedSink = inner.clone();
    let results = builder
        .telemetry(TelemetryConfig {
            probe_interval: None,
            ..TelemetryConfig::enabled()
        })
        .telemetry_sink(sink)
        .build()
        .expect("build")
        .run();
    let events = inner.lock().unwrap().events.clone();
    (results, events)
}

#[test]
fn relay_death_triggers_rerr_and_rediscovery_over_the_detour() {
    let plan = FaultPlan::new().fail_node(2, SimTime::from_secs_f64(FAIL_S));
    let (results, events) = run_traced(chain_with_detour().faults(plan));
    let fail_ns = (FAIL_S * 1e9) as u64;

    // The flow delivered before the crash (over the chain)...
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::DataDeliver { .. }) && e.t_ns < fail_ns),
        "no pre-fault delivery"
    );
    // ...and the upstream hop's retry exhaustion produced a real RERR.
    let rerr_nodes: Vec<u32> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::RerrSend { .. }) && e.t_ns >= fail_ns)
        .map(|e| e.node)
        .collect();
    assert!(
        rerr_nodes.contains(&1),
        "upstream hop 1 must emit a RERR, got {rerr_nodes:?}"
    );
    assert!(
        rerr_nodes.contains(&0),
        "source must propagate the RERR, got {rerr_nodes:?}"
    );

    // The source then started a fresh discovery...
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::RreqOriginate { .. })
                && e.node == 0
                && e.t_ns > fail_ns),
        "source must re-discover after the crash"
    );
    // ...and deliveries resumed over the detour (2 s of slack for retry
    // exhaustion plus the discovery round-trip).
    let resumed_ns = fail_ns + 2_000_000_000;
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::DataDeliver { .. })
                && e.node == 3
                && e.t_ns > resumed_ns),
        "deliveries must resume on the surviving path"
    );
    // The dead relay stays silent after the crash.
    assert!(
        !events.iter().any(|e| e.node == 2
            && e.t_ns > fail_ns
            && matches!(
                e.kind,
                EventKind::PhyTxStart { .. } | EventKind::DataForward { .. }
            )),
        "a crashed node must not transmit"
    );
    // Recovery metrics observed the outage.
    assert_eq!(results.faults.node_down, 1);
    assert_eq!(results.outages_s.len(), 1);
    assert_eq!(results.outages_s[0].0, 2);
    assert_eq!(results.repair_latency_s.len(), 1);
    assert!(results.repair_latency_s[0] > 0.0);
    assert_eq!(
        results.mean_repair_latency_s(),
        Some(results.repair_latency_s[0])
    );
    assert!(results.pdr_during_outage.is_some());
}

#[test]
fn rebooted_relay_rejoins_with_cold_state() {
    // Same scenario, but the relay comes back after 3 s. It must HELLO
    // again (fresh neighbour state) and resume forwarding eventually.
    let plan = FaultPlan::new().fail_node_for(
        2,
        SimTime::from_secs_f64(FAIL_S),
        SimDuration::from_secs(3),
    );
    let (results, events) = run_traced(chain_with_detour().faults(plan));
    let up_ns = ((FAIL_S + 3.0) * 1e9) as u64;

    assert_eq!(results.faults.node_down, 1);
    assert_eq!(results.faults.node_up, 1);
    let up = events
        .iter()
        .find(|e| matches!(e.kind, EventKind::NodeUp { .. }))
        .expect("NodeUp event in trace");
    assert_eq!(up.node, 2);
    assert!(matches!(up.kind, EventKind::NodeUp { incarnation: 1 }));
    // Cold routing state re-announces itself from HELLO seq 1.
    assert!(
        events.iter().any(|e| e.node == 2
            && e.t_ns >= up_ns
            && matches!(e.kind, EventKind::HelloSend { seq: 1 })),
        "rebooted node must restart its HELLO sequence"
    );
    // The outage record is closed at the reboot instant.
    assert_eq!(results.outages_s.len(), 1);
    let (node, down, up_s) = results.outages_s[0];
    assert_eq!(node, 2);
    assert!((down - FAIL_S).abs() < 1e-9);
    assert!((up_s - (FAIL_S + 3.0)).abs() < 1e-9);
}
