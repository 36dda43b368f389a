//! The counter registry's layout: which names `RunResults::counters()`
//! holds and in which order, pinned for a fault-free and a faulted run,
//! and the one drop vocabulary that names a discarded packet's counter.
//! Every manifest, benchmark digest and `tab2_counters.csv` row is keyed by
//! these names, so a reordered, renamed or always-emitted entry fails here.

use wmn::sim::{SimDuration, SimTime};
use wmn::telemetry::{counter_for_ctrl_drop, counter_for_drop, DropReason};
use wmn::{presets, DropCounters, FaultPlan, RunResults};

/// The registry of every run, in order: routing, MAC, PHY, drops.
const ALWAYS: [&str; 50] = [
    "rreq_originated",
    "rreq_forwarded",
    "rreq_received",
    "rreq_suppressed",
    "rreq_duplicates",
    "rrep_generated",
    "rrep_forwarded",
    "rrep_dropped",
    "rerr_sent",
    "hello_sent",
    "data_forwarded",
    "data_delivered",
    "data_originated",
    "data_dropped_no_route",
    "data_dropped_discovery",
    "data_dropped_buffer",
    "data_dropped_link",
    "discoveries_started",
    "discoveries_succeeded",
    "discoveries_failed",
    "mac_data_tx_attempts",
    "mac_broadcast_tx",
    "mac_acks_sent",
    "mac_acks_skipped",
    "mac_rts_sent",
    "mac_cts_sent",
    "mac_cts_timeouts",
    "mac_retries",
    "mac_drops_retry",
    "mac_drops_queue_full",
    "mac_delivered",
    "mac_duplicates_suppressed",
    "mac_nav_updates",
    "mac_enqueued",
    "mac_dequeued",
    "mac_backoffs",
    "phy_tx_started",
    "phy_collisions",
    "phy_captures",
    "phy_noise_losses",
    "phy_delivered",
    "phy_aborted_by_tx",
    "phy_missed_while_tx",
    "drop_queue_full",
    "drop_no_route",
    "drop_buffer_overflow",
    "drop_discovery_failed",
    "drop_link_failure",
    "drop_expired",
    "drop_ctrl_queue_full",
];

fn names(r: &RunResults) -> Vec<&'static str> {
    r.counters().iter().map(|(name, _)| name).collect()
}

#[test]
fn a_fault_free_run_registers_exactly_the_always_present_counters() {
    let r = presets::small(1).build().expect("build").run();
    assert_eq!(names(&r), ALWAYS);
}

#[test]
fn a_faulted_run_appends_only_its_nonzero_fault_counters() {
    // Churn plus a scripted crash: queued data and control both die with a
    // node, and nodes go down and come back. No noise burst or link shift,
    // so `fault_injected` stays 0 and must stay out.
    let plan = FaultPlan::new()
        .fail_node(12, SimTime::from_secs_f64(8.0))
        .churn(SimDuration::from_secs(10), SimDuration::from_secs(3));
    let r = presets::small(9).faults(plan).build().expect("build").run();
    let mut expected = ALWAYS.to_vec();
    expected.extend([
        "drop_node_down",
        "drop_ctrl_node_down",
        "fault_node_down",
        "fault_node_up",
    ]);
    assert_eq!(names(&r), expected);
}

#[test]
fn each_drop_reason_is_counted_under_its_registry_name() {
    // Every reason a data packet can end with (routing's `NoRoute`,
    // `BufferOverflow`, `DiscoveryFailed`, `LinkFailure`, the MAC's
    // `QueueFull`, a crash's `NodeDown`, ParMesh's `Expired`); the MAC's
    // `RetryLimit` hands the packet back to routing instead.
    for reason in DropReason::ALL {
        if reason == DropReason::RetryLimit {
            continue;
        }
        let mut drops = DropCounters::default();
        drops.count(reason);
        let mut counted = Vec::new();
        drops.visit(&mut |name, v| {
            if v > 0 {
                counted.push((name, v));
            }
        });
        assert_eq!(counted, [(counter_for_drop(reason), 1)], "{reason}");
        assert_eq!(drops.total(), 1, "{reason} is a data loss");
    }
    for reason in [DropReason::QueueFull, DropReason::NodeDown] {
        let mut drops = DropCounters::default();
        drops.count_ctrl(reason);
        let mut counted = Vec::new();
        drops.visit(&mut |name, v| {
            if v > 0 {
                counted.push(name);
            }
        });
        assert_eq!(counted, [counter_for_ctrl_drop(reason).unwrap()]);
        assert_eq!(drops.total(), 0, "control is not data");
    }
}
