//! End-to-end behaviour of the full stack under stress and mobility.

use wmn::mobility::MobilityConfig;
use wmn::presets;
use wmn::sim::SimDuration;
use wmn::{CnlrConfig, ScenarioBuilder, Scheme, VapConfig};

/// The headline claim: in deep saturation CNLR delivers strictly better
/// than blind flooding while spending far fewer RREQ transmissions. Seeds
/// fixed, runs deterministic — this is a regression test for the reproduced
/// shape (probed margins: CNLR wins PDR on every seed at 44 flows, with
/// ~60 % lower discovery overhead).
#[test]
fn cnlr_beats_flooding_at_saturation() {
    let run = |scheme: Scheme, seed: u64| {
        presets::backbone(7, 0, seed)
            .scheme(scheme)
            .flows(44, 8.0, 512)
            .duration(SimDuration::from_secs(30))
            .warmup(SimDuration::from_secs(6))
            .build()
            .unwrap()
            .run()
    };
    let mut flood_pdr = 0.0;
    let mut cnlr_pdr = 0.0;
    let mut flood_rreq = 0.0;
    let mut cnlr_rreq = 0.0;
    for seed in [1, 2, 3] {
        let f = run(Scheme::Flooding, seed);
        let c = run(Scheme::Cnlr(CnlrConfig::default()), seed);
        flood_pdr += f.pdr();
        cnlr_pdr += c.pdr();
        flood_rreq += f.rreq_tx_per_discovery;
        cnlr_rreq += c.rreq_tx_per_discovery;
    }
    assert!(
        cnlr_pdr > flood_pdr,
        "CNLR PDR {cnlr_pdr} not above flooding {flood_pdr} in deep saturation"
    );
    assert!(
        cnlr_rreq < flood_rreq * 0.6,
        "CNLR overhead {cnlr_rreq} not well below flooding {flood_rreq}"
    );
}

/// Saturation produces queue pressure: drops occur, the MAC retries, and
/// the loss accounting stays coherent.
#[test]
fn saturation_stresses_the_mac() {
    let r = presets::backbone(6, 0, 2)
        .flows(30, 10.0, 512)
        .duration(SimDuration::from_secs(25))
        .warmup(SimDuration::from_secs(5))
        .build()
        .unwrap()
        .run();
    assert!(
        r.pdr() < 0.95,
        "expected losses at saturation, pdr {}",
        r.pdr()
    );
    assert!(r.medium.collisions > 0, "no collisions under saturation?");
    assert!(r.mac.retries > 0, "no MAC retries under saturation?");
    assert!(r.drops.total() > 0, "losses must be attributed");
    assert!(r.max_queue_peak > 5, "queues never built up");
}

/// Mobile clients cause link breaks, RERRs and re-discoveries — and the
/// network still delivers most packets.
#[test]
fn mobility_triggers_repair_machinery() {
    let r = ScenarioBuilder::new()
        .seed(4)
        .grid(5, 5, 180.0)
        .scheme(Scheme::Cnlr(CnlrConfig::default()))
        .mobile_clients(
            8,
            MobilityConfig::RandomWaypoint {
                v_min: 2.0,
                v_max: 12.0,
                pause_s: 1.0,
            },
        )
        .flows(8, 4.0, 512)
        .duration(SimDuration::from_secs(30))
        .warmup(SimDuration::from_secs(6))
        .build()
        .unwrap()
        .run();
    assert!(r.pdr() > 0.6, "mobile pdr {}", r.pdr());
    assert!(
        r.routing.rerr_sent > 0 || r.mac.drops_retry == 0,
        "link failures without RERRs"
    );
    assert!(r.routing.discoveries_started >= 8);
}

/// VAP-CNLR builds and runs in a mobile scenario.
#[test]
fn vap_cnlr_runs_with_mobility() {
    let r = ScenarioBuilder::new()
        .seed(5)
        .grid(5, 5, 180.0)
        .scheme(Scheme::VapCnlr(CnlrConfig::default(), VapConfig::default()))
        .mobile_clients(
            6,
            MobilityConfig::RandomWaypoint {
                v_min: 2.0,
                v_max: 12.0,
                pause_s: 1.0,
            },
        )
        .flows(6, 3.0, 512)
        .duration(SimDuration::from_secs(25))
        .warmup(SimDuration::from_secs(5))
        .build()
        .unwrap()
        .run();
    assert_eq!(r.scheme, "vap-cnlr");
    assert!(r.summary.sent > 0);
    assert!(r.pdr() > 0.5, "vap pdr {}", r.pdr());
}

/// Warm-up exclusion: a run whose flows start inside the warm-up window
/// reports only post-warm-up packets.
#[test]
fn warmup_window_excluded_from_stats() {
    let r = presets::small(6).build().unwrap().run();
    // small() runs 20 s with 5 s warm-up and 4 flows at 2 pkt/s:
    // ≈ 4 × 2 × 15 = 120 countable emissions.
    assert!(r.summary.sent <= 4 * 2 * 15 + 8);
    assert!(r.summary.sent >= 100);
}

/// The counter scheme's RAD machinery works inside the full stack.
#[test]
fn counter_scheme_end_to_end() {
    let r = presets::small(7)
        .scheme(Scheme::Counter {
            threshold: 2,
            rad: SimDuration::from_millis(12),
        })
        .build()
        .unwrap()
        .run();
    assert!(r.pdr() > 0.8, "counter pdr {}", r.pdr());
    assert!(
        r.routing.rreq_suppressed > 0,
        "counter never suppressed anything"
    );
}

/// RTS/CTS suppresses hidden-terminal collisions: two mutually-hidden
/// senders towards a common relay (carrier-sense range deliberately
/// calibrated down to the communication range).
#[test]
fn rts_cts_suppresses_hidden_terminal_collisions() {
    use wmn::mac::MacParams;
    use wmn::radio::{PathLoss, PhyParams};
    use wmn::routing::{FlowId, NodeId};
    use wmn::sim::SimTime;
    use wmn::topology::{Placement, Region};
    use wmn::traffic::{FlowSpec, TrafficPattern};

    let run = |rts: bool| {
        let phy = PhyParams::calibrated(PathLoss::default_two_ray(), 250.0, 1.0);
        let mac = MacParams {
            rts_threshold: if rts { Some(0) } else { None },
            ..MacParams::default()
        };
        let flow = |id: u32, src: u32, start_ms: u64| FlowSpec {
            id: FlowId(id),
            src: NodeId(src),
            dst: NodeId(1),
            payload: 512,
            start: SimTime::from_millis(start_ms),
            stop: SimTime::from_secs(20),
            pattern: TrafficPattern::Poisson {
                mean_interval: SimDuration::from_millis(50),
            },
        };
        ScenarioBuilder::new()
            .seed(5)
            .region(Region::new(720.0, 200.0))
            .placement(Placement::Grid {
                rows: 1,
                cols: 3,
                jitter_frac: 0.0,
            })
            .phy(phy)
            .mac(mac)
            .scheme(Scheme::Flooding)
            .explicit_flows(vec![flow(0, 0, 2000), flow(1, 2, 2050)])
            .duration(SimDuration::from_secs(20))
            .warmup(SimDuration::from_secs(2))
            .build()
            .unwrap()
            .run()
    };
    let plain = run(false);
    let protected = run(true);
    assert!(
        plain.medium.collisions > 50,
        "no hidden-terminal problem to solve"
    );
    assert!(
        protected.medium.collisions * 3 < plain.medium.collisions,
        "RTS/CTS did not suppress collisions: {} vs {}",
        protected.medium.collisions,
        plain.medium.collisions
    );
    assert!(protected.mac.rts_sent > 100, "handshake unused");
    assert!(protected.mac.cts_sent > 100);
    assert!(protected.pdr() > 0.95 && plain.pdr() > 0.9);
}

/// Energy accounting is coherent: idle dominates total draw, communication
/// energy scales with traffic, and totals stay within the physical band
/// given by the mode powers.
#[test]
fn energy_accounting_is_coherent() {
    let quiet = presets::small(12).flows(0, 1.0, 512).build().unwrap().run();
    let busy = presets::small(12).flows(6, 6.0, 512).build().unwrap().run();
    // 25 nodes × 20 s: total in [idle-only, tx-always] band.
    for r in [&quiet, &busy] {
        let lo = 25.0 * 20.0 * 0.739 * 0.99;
        let hi = 25.0 * 20.0 * 1.327 * 1.01;
        assert!(
            r.energy_total_j > lo && r.energy_total_j < hi,
            "{}",
            r.energy_total_j
        );
    }
    let quiet_comm: f64 = quiet.energy_total_j;
    let busy_comm: f64 = busy.energy_total_j;
    assert!(busy_comm > quiet_comm, "traffic must cost energy");
    assert!(busy.comm_energy_per_delivered_mj > 0.0);
}

/// The opt-in control-priority interface queue (ns-2 AODV `PriQueue`)
/// keeps discovery working under data saturation.
#[test]
fn control_priority_queue_end_to_end() {
    use wmn::mac::MacParams;
    let run = |priority: bool| {
        presets::backbone(6, 0, 3)
            .mac(MacParams {
                control_priority: priority,
                ..MacParams::default()
            })
            .flows(24, 10.0, 512)
            .duration(SimDuration::from_secs(25))
            .warmup(SimDuration::from_secs(5))
            .build()
            .unwrap()
            .run()
    };
    let plain = run(false);
    let prio = run(true);
    assert!(
        prio.summary.sent > 0 && prio.pdr() > 0.2,
        "prio pdr {}",
        prio.pdr()
    );
    // Priority must not *hurt* discovery; with saturated queues it
    // typically helps it.
    assert!(
        prio.discovery_success >= plain.discovery_success - 0.1,
        "prio {} vs plain {}",
        prio.discovery_success,
        plain.discovery_success
    );
    // Determinism holds with the feature on.
    let prio2 = run(true);
    assert_eq!(prio.events, prio2.events);
}
