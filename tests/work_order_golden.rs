//! Golden event-order fingerprints for the full stack.
//!
//! `core::network` drains one FIFO of cross-layer work per engine event,
//! and the order of that FIFO fixes the `sched.at` sequence numbers, the
//! shared medium RNG draws and the trace order. Counters are too coarse to
//! notice two items swapping places; the full JSONL trace is not. Each
//! constant below is the FNV-1a hash of every JSONL line (run id zeroed)
//! of one 5×5, 10 s scenario, captured on the commit before the work queue
//! was compacted (PR 13). A change that is meant to keep results must
//! reproduce all of them; a change that is meant to alter results replaces
//! them and says so.

use std::sync::{Arc, Mutex};
use wmn::mobility::MobilityConfig;
use wmn::sim::{SimDuration, SimTime};
use wmn::telemetry::{EventSink, SharedSink, TelemetryConfig, TelemetryEvent};
use wmn::{CnlrConfig, FaultPlan, LinkFlapModel, ScenarioBuilder, Scheme, VapConfig};

/// Streams the JSONL rendering of every event through FNV-1a 64.
struct JsonlHash {
    lines: u64,
    hash: u64,
}

impl EventSink for JsonlHash {
    fn record(&mut self, ev: &TelemetryEvent) {
        // The run id is a process-wide counter: which test ran first must
        // not show in the fingerprint.
        let mut ev = *ev;
        ev.run = 0;
        for b in ev.to_jsonl().bytes().chain(std::iter::once(b'\n')) {
            self.hash = (self.hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.lines += 1;
    }
}

fn schemes() -> [(&'static str, Scheme); 7] {
    [
        ("flooding", Scheme::Flooding),
        ("gossip", Scheme::Gossip { p: 0.65 }),
        ("gossip_k", Scheme::GossipK { p: 0.65, k: 2 }),
        (
            "counter",
            Scheme::Counter {
                threshold: 3,
                rad: SimDuration::from_millis(10),
            },
        ),
        ("distance", Scheme::Distance { strong_dbm: -60.0 }),
        ("cnlr", Scheme::Cnlr(CnlrConfig::default())),
        (
            "vap",
            Scheme::VapCnlr(CnlrConfig::default(), VapConfig::default()),
        ),
    ]
}

fn base() -> ScenarioBuilder {
    ScenarioBuilder::new()
        .seed(3)
        .grid(5, 5, 180.0)
        .flows(4, 2.0, 512)
        .duration(SimDuration::from_secs(10))
        .warmup(SimDuration::from_secs(2))
}

fn rwp_clients() -> ScenarioBuilder {
    base().mobile_clients(
        6,
        MobilityConfig::RandomWaypoint {
            v_min: 2.0,
            v_max: 12.0,
            pause_s: 0.5,
        },
    )
}

fn faulted() -> ScenarioBuilder {
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
        .churn(SimDuration::from_secs(30), SimDuration::from_secs(3))
        .link_flap(LinkFlapModel {
            interarrival: SimDuration::from_secs(20),
            hold: SimDuration::from_secs(2),
            delta_db: 12.0,
        });
    base().faults(plan)
}

fn fingerprint(builder: ScenarioBuilder, scheme: Scheme) -> (u64, u64) {
    let inner = Arc::new(Mutex::new(JsonlHash {
        lines: 0,
        hash: 0xcbf2_9ce4_8422_2325,
    }));
    let sink: SharedSink = inner.clone();
    builder
        .scheme(scheme)
        .telemetry(TelemetryConfig::enabled())
        .telemetry_sink(sink)
        .build()
        .expect("build")
        .run();
    let h = inner.lock().unwrap();
    (h.lines, h.hash)
}

/// Compare all seven schemes at once, so a mismatch prints the whole
/// replacement table.
fn check(env: &str, builder: fn() -> ScenarioBuilder, golden: [(u64, u64); 7]) {
    let actual: Vec<(&str, (u64, u64))> = schemes()
        .into_iter()
        .map(|(name, scheme)| (name, fingerprint(builder(), scheme)))
        .collect();
    let same = actual.iter().zip(golden).all(|(a, g)| a.1 == g);
    let table: String = actual
        .iter()
        .map(|(name, (lines, hash))| format!("    ({lines}, {hash:#018x}), // {name}\n"))
        .collect();
    assert!(same, "{env}: trace fingerprints moved; actual:\n{table}");
}

#[test]
fn static_grid_traces_are_pinned() {
    check(
        "static grid",
        base,
        [
            (9068, 0xe87b0ee9a1d8d708),  // flooding
            (10901, 0xa91d03af9938f8fb), // gossip
            (8674, 0xc432bf74708962fa),  // gossip_k
            (8791, 0xbfa7410720b12b9a),  // counter
            (8959, 0x612de35753cc8e4f),  // distance
            (9205, 0xa5217540654dc0ad),  // cnlr
            (9205, 0xa5217540654dc0ad),  // vap (no mobility: identical to cnlr)
        ],
    );
}

#[test]
fn rwp_client_traces_are_pinned() {
    check(
        "rwp clients",
        rwp_clients,
        [
            (10993, 0x4981a3e56a242b31), // flooding
            (11777, 0x7d52181f95e954f1), // gossip
            (11363, 0x02ed6972deb18dae), // gossip_k
            (10993, 0xff87521ea31fef7b), // counter
            (10331, 0x722c4d61ab7e421f), // distance
            (11622, 0x700bc61bce8528ab), // cnlr
            (11363, 0xc5367c526323e457), // vap
        ],
    );
}

#[test]
fn faulted_traces_are_pinned() {
    check(
        "churn + link flap + noise burst",
        faulted,
        [
            (10395, 0x840046c0aab57fcd), // flooding
            (6825, 0x394a55d552d81327),  // gossip
            (9901, 0x60c0788e3405ac19),  // gossip_k
            (10268, 0xb14226948029c411), // counter
            (10171, 0x455da5e78ae879d7), // distance
            (10406, 0x009d142a282ff153), // cnlr
            (10406, 0x009d142a282ff153), // vap (no mobility: identical to cnlr)
        ],
    );
}
