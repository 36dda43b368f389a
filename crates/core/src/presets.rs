//! Canonical evaluation presets (the reconstructed Table 1).

use crate::builder::ScenarioBuilder;
use wmn_sim::SimDuration;

/// The reconstructed simulation-parameter table (Tab. 1). Values are the
/// ns-2-era defaults documented in DESIGN.md; the sweeps bracket any
/// plausible original choice.
pub fn parameter_table() -> Vec<(&'static str, String)> {
    vec![
        ("Field", "1000 m × 1000 m (scaled with grid size)".into()),
        ("Topology", "mesh-router grid, 15 % placement jitter".into()),
        ("Network sizes", "25–196 routers (5×5 … 14×14)".into()),
        ("PHY", "802.11b DSSS, two-ray ground".into()),
        (
            "Tx power / ranges",
            "24.5 dBm; 250 m rx, 550 m carrier sense".into(),
        ),
        ("Rates", "2 Mb/s data, 1 Mb/s broadcast/basic".into()),
        (
            "MAC",
            "CSMA/CA DCF, CW 31–1023, retry limit 7, ifq 50".into(),
        ),
        (
            "Routing",
            "AODV-style reactive, destination-only replies".into(),
        ),
        ("HELLO interval", "1 s (load digests piggybacked)".into()),
        ("Traffic", "CBR 4 pkt/s, 512 B payload, 5–40 flows".into()),
        ("Duration / warm-up", "60 s / 10 s".into()),
        ("Replications", "5 seeds, 95 % t-intervals".into()),
        (
            "Schemes",
            "flooding, gossip(0.65), counter(C=3), CNLR, VAP-CNLR".into(),
        ),
        (
            "CNLR",
            "p ∈ [0.35, 0.95] linear in neighbourhood load; cost = hops + 2·load".into(),
        ),
    ]
}

/// The standard backbone scenario used by most figures: `side × side`
/// router grid at 180 m pitch (mean degree ≈ 8–12), `flows` CBR flows at
/// 4 pkt/s × 512 B.
pub fn backbone(side: usize, flows: usize, seed: u64) -> ScenarioBuilder {
    ScenarioBuilder::new()
        .seed(seed)
        .grid(side, side, 180.0)
        .flows(flows, 4.0, 512)
        .duration(SimDuration::from_secs(60))
        .warmup(SimDuration::from_secs(10))
}

/// A faster, smaller variant used in tests and the quickstart example.
pub fn small(seed: u64) -> ScenarioBuilder {
    ScenarioBuilder::new()
        .seed(seed)
        .grid(5, 5, 180.0)
        .flows(4, 2.0, 512)
        .duration(SimDuration::from_secs(20))
        .warmup(SimDuration::from_secs(5))
}

/// Large-scale grid preset: about `n` routers on a near-square grid at the
/// standard 180 m pitch (the side is rounded to the nearest square, so the
/// actual count is `side²`). Density — and therefore mean degree and the
/// interference-disc population — matches [`backbone`]; only the field
/// grows, which is exactly the regime the neighbourhood-sharded medium
/// targets (disc ≪ field).
pub fn scale_grid(n: usize, flows: usize, seed: u64) -> ScenarioBuilder {
    let side = (n as f64).sqrt().round().max(2.0) as usize;
    ScenarioBuilder::new()
        .seed(seed)
        .grid(side, side, 180.0)
        .flows(flows, 4.0, 512)
        .duration(SimDuration::from_secs(60))
        .warmup(SimDuration::from_secs(10))
}

/// Large-scale random preset: exactly `n` routers placed uniformly in a
/// field sized for the same density as [`scale_grid`] (one node per
/// 180 m × 180 m on average). Uniform placement at this density can leave
/// small disconnected pockets at large `n`, so connectivity is not
/// required — flow endpoints are still drawn reachable-pairs-only.
pub fn scale_random(n: usize, flows: usize, seed: u64) -> ScenarioBuilder {
    let side_m = (n as f64).sqrt() * 180.0;
    ScenarioBuilder::new()
        .seed(seed)
        .region(wmn_topology::Region::new(side_m, side_m))
        .placement(wmn_topology::Placement::UniformRandom { count: n })
        .require_connected(false)
        .flows(flows, 4.0, 512)
        .duration(SimDuration::from_secs(60))
        .warmup(SimDuration::from_secs(10))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_table_nonempty() {
        let t = parameter_table();
        assert!(t.len() >= 10);
        assert!(t.iter().any(|(k, _)| *k == "CNLR"));
    }

    #[test]
    fn presets_build() {
        assert!(small(1).build().is_ok());
        assert!(backbone(5, 3, 2).build().is_ok());
    }

    #[test]
    fn scale_presets_build_and_size() {
        let sim = scale_grid(100, 3, 1).build().expect("scale grid");
        assert_eq!(sim.network.nodes.len(), 100);
        let sim = scale_grid(1000, 3, 1).build().expect("1k grid");
        // Nearest square to 1000 is 32² = 1024.
        assert_eq!(sim.network.nodes.len(), 1024);
        let sim = scale_random(200, 3, 1).build().expect("scale random");
        assert_eq!(sim.network.nodes.len(), 200);
    }
}
