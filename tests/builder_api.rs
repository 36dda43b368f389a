//! Scenario-builder API contract.

use wmn::faults::FaultPlan;
use wmn::sim::{SimDuration, SimTime};
use wmn::topology::{Placement, Region};
use wmn::{BuildError, ScenarioBuilder, Scheme};

#[test]
fn disconnected_topology_is_rejected() {
    // Two nodes 2 km apart can never connect at 250 m range.
    let err = ScenarioBuilder::new()
        .region(Region::new(3000.0, 3000.0))
        .placement(Placement::Grid {
            rows: 1,
            cols: 2,
            jitter_frac: 0.0,
        })
        .build()
        .err()
        .expect("must fail");
    assert_eq!(err, BuildError::Disconnected);
    assert!(err.to_string().contains("connected"));
}

#[test]
fn disconnected_allowed_when_not_required() {
    let sim = ScenarioBuilder::new()
        .region(Region::new(3000.0, 3000.0))
        .placement(Placement::Grid {
            rows: 1,
            cols: 2,
            jitter_frac: 0.0,
        })
        .require_connected(false)
        .duration(SimDuration::from_secs(5))
        .build();
    assert!(sim.is_ok());
}

#[test]
fn single_node_is_too_small() {
    let err = ScenarioBuilder::new()
        .placement(Placement::Grid {
            rows: 1,
            cols: 1,
            jitter_frac: 0.0,
        })
        .build()
        .err()
        .expect("must fail");
    assert_eq!(err, BuildError::TooSmall);
}

#[test]
fn impossible_flow_pairs_rejected() {
    // Two neighbours cannot host a flow: random flows need ≥ 2 hops.
    let err = ScenarioBuilder::new()
        .region(Region::new(400.0, 200.0))
        .placement(Placement::Grid {
            rows: 1,
            cols: 2,
            jitter_frac: 0.0,
        })
        .flows(1, 4.0, 512)
        .build()
        .err()
        .expect("must fail");
    assert_eq!(err, BuildError::NoFlowPairs);
}

#[test]
fn fault_on_a_node_the_scenario_lacks_is_refused_at_build() {
    let scenario = |node| {
        ScenarioBuilder::new()
            .grid(5, 5, 180.0)
            .flows(2, 2.0, 512)
            .duration(SimDuration::from_secs(10))
            .warmup(SimDuration::from_secs(2))
            .faults(FaultPlan::new().fail_node(node, SimTime::from_secs(5)))
    };
    let err = scenario(25).build().err().expect("node 25 of 25 must fail");
    assert_eq!(
        err,
        BuildError::FaultTarget {
            node: 25,
            nodes: 25
        }
    );
    assert_eq!(
        err.to_string(),
        "a scripted fault targets node 25, but the scenario has 25 nodes"
    );
    let r = scenario(24).build().expect("node 24 exists").run();
    assert!(r.summary.sent > 0);
}

#[test]
fn event_budget_caps_runaway() {
    let r = wmn::presets::small(1)
        .event_budget(5_000)
        .build()
        .unwrap()
        .run();
    assert!(r.events <= 5_000);
}

#[test]
fn zero_flows_is_a_valid_quiet_network() {
    let r = ScenarioBuilder::new()
        .grid(4, 4, 180.0)
        .flows(0, 4.0, 512)
        .duration(SimDuration::from_secs(10))
        .build()
        .unwrap()
        .run();
    assert_eq!(r.summary.sent, 0);
    assert_eq!(r.pdr(), 1.0); // vacuous
    assert!(r.routing.hello_sent > 0, "beacons still flow");
    assert_eq!(r.rreq_tx, 0, "no discoveries without traffic");
}

#[test]
fn schemes_all_buildable() {
    for scheme in Scheme::evaluation_set() {
        let sim = wmn::presets::small(2).scheme(scheme.clone());
        assert!(sim.build().is_ok(), "{:?} failed to build", scheme);
    }
}
