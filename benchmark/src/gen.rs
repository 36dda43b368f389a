//! Workload generators: `--seed` in, scenario specs out.
//!
//! The simulator never sees the benchmark seed. It sees the specs built
//! here, whose scenario seeds (and through them flow endpoints, client
//! start positions and fault schedules) are drawn from it. Sizes are frozen:
//! changing one redefines the workload and invalidates every baseline.

use wmn_served::ScenarioSpec;
use wmn_sim::SplitMix64;

/// The four schemes every sweep-shaped workload crosses its loads with.
const SWEEP_SCHEMES: [&str; 4] = ["flooding", "gossip:0.65", "counter:3", "cnlr"];

/// One ParMesh run.
#[derive(Clone, Debug, PartialEq)]
pub struct ParMeshSpec {
    pub seed: u64,
    pub nodes: usize,
    pub flows: usize,
    pub interval_ms: u64,
    pub duration_ms: u64,
    pub regions: usize,
}

/// The generated inputs of one pass over a workload.
#[derive(Clone, Debug, PartialEq)]
pub enum Inputs {
    /// Full-stack scenarios, run one after another in-process.
    Stack(Vec<ScenarioSpec>),
    /// ParMesh scale runs.
    ParMesh(Vec<ParMeshSpec>),
    /// Jobs submitted to an in-process `wmn-served` daemon.
    Served(Vec<ScenarioSpec>),
}

impl Inputs {
    /// Number of jobs (scenario runs) in one pass.
    pub fn jobs(&self) -> usize {
        match self {
            Inputs::Stack(v) | Inputs::Served(v) => v.len(),
            Inputs::ParMesh(v) => v.len(),
        }
    }

    /// Simulated seconds one pass advances.
    pub fn sim_seconds(&self) -> f64 {
        match self {
            Inputs::Stack(v) | Inputs::Served(v) => v.iter().map(|s| s.duration_s).sum(),
            Inputs::ParMesh(v) => v.iter().map(|s| s.duration_ms as f64 / 1000.0).sum(),
        }
    }
}

/// Scale a simulated duration, keeping `floor_s` so the warm-up (during
/// which flows start) still fits inside it.
fn scaled(seconds: f64, scale: f64, floor_s: f64) -> f64 {
    (seconds * scale).max(floor_s)
}

/// Generate the inputs of `workload` from `seed`. `scale` (1.0 for real
/// runs, 0.1 for `--smoke`) shrinks simulated time, and node count where a
/// horizon cannot shrink further; it never changes the shape.
pub fn generate(workload: &str, seed: u64, scale: f64) -> Option<Inputs> {
    // One stream per workload, so the same `--seed` gives unrelated
    // scenario seeds to different workloads.
    let tag = workload
        .bytes()
        .fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(b as u64));
    let mut rng = SplitMix64::new(seed ^ tag.rotate_left(17));
    let base = ScenarioSpec {
        grid_rows: 8,
        grid_cols: 8,
        pitch_m: 180.0,
        payload: 512,
        warmup_s: 5.0,
        ..ScenarioSpec::default()
    };
    Some(match workload {
        "stack_sweep" => {
            let mut cells = Vec::new();
            for _replicate in 0..2 {
                for flows in [10usize, 40] {
                    for scheme in SWEEP_SCHEMES {
                        cells.push(ScenarioSpec {
                            seed: rng.next_u64(),
                            scheme: scheme.into(),
                            flows,
                            pps: 8.0,
                            duration_s: scaled(20.0, scale, 6.0),
                            ..base.clone()
                        });
                    }
                }
            }
            Inputs::Stack(cells)
        }
        "stack_mobile" => {
            let mut cells = Vec::new();
            for _replicate in 0..2 {
                for scheme in ["cnlr", "vap", "gossip:0.65", "flooding"] {
                    cells.push(ScenarioSpec {
                        seed: rng.next_u64(),
                        scheme: scheme.into(),
                        flows: 20,
                        pps: 4.0,
                        duration_s: scaled(40.0, scale, 6.0),
                        clients: 20,
                        client_speed: 10.0,
                        churn: Some((60.0, 5.0)),
                        ..base.clone()
                    });
                }
            }
            Inputs::Stack(cells)
        }
        "stack_scale" => {
            // `presets::scale_grid(2500, 100, seed)` as a spec: 50 x 50
            // routers at the standard pitch, 100 flows at 4 pkt/s. The 4 s
            // horizon barely shrinks (flows start during a 2 s warm-up), so
            // a scaled run shrinks the grid and the flow count instead.
            let side = ((50.0 * scale.sqrt()).round() as usize).max(8);
            let cells = (0..2)
                .map(|_| ScenarioSpec {
                    seed: rng.next_u64(),
                    scheme: "cnlr".into(),
                    grid_rows: side,
                    grid_cols: side,
                    flows: ((100.0 * scale) as usize).max(10),
                    pps: 4.0,
                    duration_s: scaled(4.0, scale, 3.0),
                    warmup_s: 2.0,
                    ..base.clone()
                })
                .collect();
            Inputs::Stack(cells)
        }
        "parmesh_100k" => {
            // The 2 s horizon cannot shrink (flows start at 0.5–1.5 s), so
            // a scaled run shrinks the mesh instead.
            let nodes = ((100_000.0 * scale) as usize).max(2_000);
            Inputs::ParMesh(vec![ParMeshSpec {
                seed: rng.next_u64(),
                nodes,
                flows: nodes / 4,
                interval_ms: 250,
                duration_ms: 2_000,
                regions: 256,
            }])
        }
        "served_batch" => {
            let mut jobs = Vec::new();
            for _replicate in 0..2 {
                for flows in [10usize, 20, 30, 40] {
                    let group_seed = rng.next_u64();
                    for scheme in SWEEP_SCHEMES {
                        jobs.push(ScenarioSpec {
                            seed: group_seed,
                            scheme: scheme.into(),
                            flows,
                            pps: 8.0,
                            duration_s: scaled(15.0, scale, 6.0),
                            ..base.clone()
                        });
                    }
                }
            }
            Inputs::Served(jobs)
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::WORKLOADS;

    #[test]
    fn same_seed_same_inputs_for_every_workload() {
        for w in WORKLOADS {
            let a = generate(w.name, 42, 1.0).expect("known workload");
            let b = generate(w.name, 42, 1.0).expect("known workload");
            assert_eq!(a, b, "{}", w.name);
            assert!(a.jobs() >= 1 && a.sim_seconds() > 0.0);
        }
        assert!(generate("no_such_workload", 1, 1.0).is_none());
    }

    #[test]
    fn every_generated_spec_is_valid() {
        for w in WORKLOADS {
            for scale in [1.0, 0.1] {
                match generate(w.name, 7, scale).unwrap() {
                    Inputs::Stack(v) | Inputs::Served(v) => {
                        for s in v {
                            s.validate().unwrap_or_else(|e| panic!("{}: {e}", w.name));
                        }
                    }
                    Inputs::ParMesh(v) => assert!(v.iter().all(|s| s.nodes >= 2)),
                }
            }
        }
    }

    #[test]
    fn different_seed_draws_different_flows_and_fault_plan() {
        let (Inputs::Stack(a), Inputs::Stack(b)) = (
            generate("stack_mobile", 1, 0.1).unwrap(),
            generate("stack_mobile", 2, 0.1).unwrap(),
        ) else {
            panic!("stack_mobile generates stack cells");
        };
        assert_eq!(a.len(), b.len());
        let (sa, sb) = (&a[0], &b[0]);
        assert_ne!(sa.seed, sb.seed);
        // Flow endpoints: the scenario prefix (topology + flow draw)
        // fingerprints differ.
        let (ba, bb) = (sa.to_builder().unwrap(), sb.to_builder().unwrap());
        assert_ne!(ba.prefix_fingerprint(), bb.prefix_fingerprint());
        // Fault plan: the same churn model expands to different schedules.
        let plan = cnlr::FaultPlan::new().churn(
            wmn_sim::SimDuration::from_secs_f64(60.0),
            wmn_sim::SimDuration::from_secs_f64(5.0),
        );
        let horizon = wmn_sim::SimTime::from_secs(60);
        assert_ne!(
            plan.expand(sa.seed, 84, 1440.0, 1440.0, horizon),
            plan.expand(sb.seed, 84, 1440.0, 1440.0, horizon)
        );
    }

    #[test]
    fn served_batch_shares_prefixes_across_schemes() {
        let Inputs::Served(jobs) = generate("served_batch", 3, 1.0).unwrap() else {
            panic!("served_batch generates jobs");
        };
        assert_eq!(jobs.len(), 32);
        let mut prefixes: Vec<u64> = jobs
            .iter()
            .map(|s| s.to_builder().unwrap().prefix_fingerprint())
            .collect();
        prefixes.sort_unstable();
        prefixes.dedup();
        assert_eq!(prefixes.len(), 8, "8 (seed, load) groups x 4 schemes");
    }

    #[test]
    fn workloads_draw_unrelated_seeds_from_one_benchmark_seed() {
        let (Inputs::Stack(a), Inputs::Stack(b)) = (
            generate("stack_sweep", 5, 1.0).unwrap(),
            generate("stack_scale", 5, 1.0).unwrap(),
        ) else {
            panic!("stack workloads");
        };
        assert_ne!(a[0].seed, b[0].seed);
    }
}
