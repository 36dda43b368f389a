//! Protocol-level invariants observable from whole-network runs.

use wmn::presets;
use wmn::routing::{FlowId, NodeId};
use wmn::sim::{SimDuration, SimTime};
use wmn::topology::{Placement, Region};
use wmn::traffic::{FlowSpec, TrafficPattern};
use wmn::{ScenarioBuilder, Scheme};

/// On a quiet network, blind flooding forwards each RREQ at every
/// non-target node exactly once: RREQ tx per discovery ≈ N − 1.
#[test]
fn flooding_overhead_is_n_minus_one() {
    let r = presets::small(3)
        .scheme(Scheme::Flooding)
        .build()
        .unwrap()
        .run();
    let n = r.nodes as f64;
    // Origin + every forwarder; the target never forwards, and edge nodes
    // may be suppressed by TTL — allow a small band.
    assert!(
        (r.rreq_tx_per_discovery - (n - 1.0)).abs() <= 3.0,
        "rreq/disc = {} for n = {n}",
        r.rreq_tx_per_discovery
    );
}

/// Gossip(p) forwards roughly a p-fraction of flooding's rebroadcasts.
#[test]
fn gossip_overhead_tracks_p() {
    let flood = presets::backbone(7, 10, 4)
        .duration(SimDuration::from_secs(25))
        .scheme(Scheme::Flooding)
        .build()
        .unwrap()
        .run();
    let gossip = presets::backbone(7, 10, 4)
        .duration(SimDuration::from_secs(25))
        .scheme(Scheme::Gossip { p: 0.6 })
        .build()
        .unwrap()
        .run();
    let ratio = gossip.routing.rreq_forwarded as f64 / flood.routing.rreq_forwarded as f64;
    // Gossip dies out sometimes (sub-critical cascades), so the ratio can
    // undershoot p but must not exceed it by much.
    assert!(ratio < 0.8, "gossip/flooding forward ratio {ratio}");
    assert!(ratio > 0.2, "gossip essentially dead: {ratio}");
}

/// A 6-hop line delivers CBR traffic with a delay that grows with hops.
#[test]
fn line_topology_multihop_delivery() {
    let line = |hops: usize, seed: u64| {
        let n = hops + 1;
        let flow = FlowSpec {
            id: FlowId(0),
            src: NodeId(0),
            dst: NodeId(hops as u32),
            payload: 512,
            start: SimTime::from_secs(2),
            stop: SimTime::from_secs(18),
            pattern: TrafficPattern::cbr_pps(4.0),
        };
        ScenarioBuilder::new()
            .seed(seed)
            .region(Region::new(150.0 * (n as f64), 200.0))
            .placement(Placement::Grid {
                rows: 1,
                cols: n,
                jitter_frac: 0.0,
            })
            .scheme(Scheme::Flooding)
            .explicit_flows(vec![flow])
            .duration(SimDuration::from_secs(18))
            .warmup(SimDuration::from_secs(2))
            .build()
            .unwrap()
            .run()
    };
    let short = line(2, 5);
    let long = line(6, 5);
    assert!(short.pdr() > 0.98, "short line pdr {}", short.pdr());
    assert!(long.pdr() > 0.95, "long line pdr {}", long.pdr());
    assert!(
        long.summary.mean_delay_s > short.summary.mean_delay_s,
        "delay must grow with hops: {} vs {}",
        long.summary.mean_delay_s,
        short.summary.mean_delay_s
    );
    // Forwarding count reflects the longer path.
    assert!(long.routing.data_forwarded > short.routing.data_forwarded);
}

/// Every originated data packet is accounted for: delivered, dropped with
/// cause, or still in flight at the horizon.
#[test]
fn packet_conservation() {
    let r = presets::small(8)
        .scheme(Scheme::Flooding)
        .build()
        .unwrap()
        .run();
    let accounted = r.summary.delivered + r.drops.total();
    assert!(
        accounted <= r.routing.data_originated,
        "over-accounted: delivered {} + drops {} > originated {}",
        r.summary.delivered,
        r.drops.total(),
        r.routing.data_originated
    );
    // In-flight remainder at the horizon must be small on a quiet network.
    let in_flight = r.routing.data_originated - accounted;
    assert!(in_flight <= 20, "{in_flight} packets unaccounted");
}

/// HELLO beacons go out on schedule from every node.
#[test]
fn hello_cadence() {
    let r = presets::small(9)
        .scheme(Scheme::Flooding)
        .build()
        .unwrap()
        .run();
    // 25 nodes × 20 s / 1 s interval, starts staggered inside 1 interval.
    let expect = 25.0 * 19.0;
    let got = r.routing.hello_sent as f64;
    assert!(
        (got - expect).abs() <= 30.0,
        "hello_sent {got}, expected ≈ {expect}"
    );
}

/// Destination-only replies: RREP generation equals successful discoveries
/// (plus re-answers for better paths).
#[test]
fn rrep_accounting() {
    let r = presets::small(10)
        .scheme(Scheme::Flooding)
        .build()
        .unwrap()
        .run();
    assert!(r.routing.rrep_generated >= r.routing.discoveries_succeeded);
    assert!(
        r.routing.discoveries_succeeded + r.routing.discoveries_failed
            <= r.routing.discoveries_started + 1
    );
}

/// Longer HELLO intervals mean fewer control packets.
#[test]
fn hello_interval_controls_overhead() {
    let with_interval = |secs: u64, seed: u64| {
        presets::small(seed)
            .hello_interval(SimDuration::from_secs(secs))
            .build()
            .unwrap()
            .run()
    };
    let fast = with_interval(1, 11);
    let slow = with_interval(4, 11);
    assert!(fast.routing.hello_sent > 2 * slow.routing.hello_sent);
}

/// The RSSI-driven distance scheme works end-to-end and saves rebroadcasts
/// relative to flooding while still discovering routes. (The threshold is
/// tight because two-ray propagation compresses the decodable power band:
/// −64.4 dBm at the 250 m edge vs −60.7 dBm at the 180 m grid pitch.)
#[test]
fn distance_scheme_end_to_end() {
    let flood = presets::small(14)
        .scheme(Scheme::Flooding)
        .build()
        .unwrap()
        .run();
    let dist = presets::small(14)
        .scheme(Scheme::Distance { strong_dbm: -61.0 })
        .build()
        .unwrap()
        .run();
    assert!(dist.pdr() > 0.9, "distance pdr {}", dist.pdr());
    assert!(dist.discovery_success > 0.9);
    assert!(
        dist.routing.rreq_forwarded < flood.routing.rreq_forwarded,
        "distance {} vs flooding {}",
        dist.routing.rreq_forwarded,
        flood.routing.rreq_forwarded
    );
    assert!(
        dist.routing.rreq_suppressed > 0,
        "never suppressed a near copy"
    );
}
