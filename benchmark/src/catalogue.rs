//! The benchmark's contract: workload names, every metric with its unit,
//! direction and (end to end) regression bound. `BENCHMARK.json` at the
//! repo root is this table rendered by `--catalogue`; a unit test keeps the
//! two identical.

/// How long one run measures, seconds (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// How much of the speed probe's slowdown this workload shows: a busy
    /// neighbour that slows the probe by `x` slows the workload by
    /// `probe_sensitivity * x` (see `hostprobe`). 1.0 wherever the
    /// simulator's own code dominates; 0.6 for the 100k-node ParMesh, whose
    /// tables miss cache whatever the neighbour does (on the reference host
    /// it slows by 30 % while the probe shows 50 %, and 0.6 is also the
    /// value that minimised the spread of ten runs).
    pub probe_sensitivity: f64,
}

/// Workload names are permanent: baselines are keyed by them.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "stack_sweep",
        why: "figure-sweep shape on a static saturated 8x8 full stack: radio, warm link cache, DCF and RREQ storms work, the event heap stays shallow",
        probe_sensitivity: 1.0,
    },
    Workload {
        name: "stack_mobile",
        why: "same backbone with 20 moving clients and node churn: link-cache invalidation, spatial-index moves, cold start_tx and route repair, the warm path's opposite",
        probe_sensitivity: 1.0,
    },
    Workload {
        name: "stack_scale",
        why: "2500-router full stack: deep event heap and large spatial index, where a queue or index change can pay and stack_sweep predicts none",
        probe_sensitivity: 1.0,
    },
    Workload {
        name: "parmesh_100k",
        why: "100k-node ParMesh on one thread: no radio or MAC, so window work, epoch planning and merge in sim::shard do everything",
        probe_sensitivity: 0.6,
    },
    Workload {
        name: "served_batch",
        why: "32-job prefix-grouped batch through an in-process wmn-served daemon, 2 workers and 2 closed-loop clients: dedup, warm cache import, wire codec, scheduling",
        probe_sensitivity: 1.0,
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_s_per_wall_s",
        unit: "sim_s/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "jobs_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "job_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "job_ms_p90",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "lower",
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "higher",
    }
}

/// Layers are the crate/module names. A metric of a layer the workload
/// does not exercise reads 0 on that workload (no MAC under ParMesh, no
/// shard engine under the full stack, no daemon outside `served_batch`).
pub const PER_LAYER: [PerLayer; 104] = [
    // --- unit costs, timed by calling public functions on inputs shaped
    // like the workloads; the same on every workload ---
    lo("sim.queue.hold_ns_d1k", "ns"),
    lo("sim.queue.hold_ns_d64k", "ns"),
    lo("sim.rng.f64_ns", "ns"),
    lo("sim.engine.dispatch_ns", "ns"),
    lo("sim.shard.epoch_us_t1", "us"),
    lo("sim.shard.epoch_us_t2", "us"),
    lo("sim.shard.merge_ns_per_event", "ns"),
    hi("sim.checkpoint.seal_mib_s", "MiB/s"),
    hi("sim.checkpoint.read_mib_s", "MiB/s"),
    lo("radio.rx_power_ns", "ns"),
    lo("radio.per_ns", "ns"),
    lo("radio.pathloss_ns", "ns"),
    lo("topology.spatial.query_ns", "ns"),
    lo("topology.spatial.move_ns", "ns"),
    lo("mobility.sample_ns", "ns"),
    lo("core.medium.start_tx_warm_ns", "ns"),
    lo("core.medium.start_tx_cold_ns", "ns"),
    lo("core.medium.rx_end_ns", "ns"),
    lo("mac.dcf.frame_ns", "ns"),
    lo("mac.dcf.sense_ns", "ns"),
    lo("mac.dcf.rx_frame_ns", "ns"),
    lo("routing.rreq_ns_flooding", "ns"),
    lo("routing.rreq_ns_cnlr", "ns"),
    lo("routing.forward_ns", "ns"),
    lo("routing.table.lookup_ns", "ns"),
    lo("telemetry.emit_off_ns", "ns"),
    lo("telemetry.emit_mem_ns", "ns"),
    lo("telemetry.jsonl_ns", "ns"),
    lo("telemetry.histogram.record_ns", "ns"),
    lo("core.builder.build_ms_8x8", "ms"),
    lo("core.builder.build_ms_2500", "ms"),
    lo("core.builder.prefix_reuse_ms", "ms"),
    lo("served.proto.parse_ns", "ns"),
    lo("served.proto.result_encode_ns", "ns"),
    lo("served.ping_us", "us"),
    // --- exact counts and ratios of one pass of a stack workload; they
    // repeat bit for bit, so two commits compare exactly ---
    lo("sim.events", "count"),
    hi("sim.events_per_s", "1/s"),
    lo("sim.queue.depth_max", "count"),
    lo("core.medium.tx_started", "count"),
    lo("core.medium.link_budgets", "count"),
    lo("core.medium.pathloss_evals", "count"),
    hi("core.medium.cache_hit_ratio", "ratio"),
    hi("core.medium.budget_reuse_ratio", "ratio"),
    lo("core.medium.collisions", "count"),
    hi("core.medium.rx_useful_ratio", "ratio"),
    lo("mac.tx_attempts", "count"),
    lo("mac.retries", "count"),
    lo("mac.retry_ratio", "ratio"),
    lo("mac.backoffs", "count"),
    lo("mac.drops_queue_full", "count"),
    lo("mac.queue_peak", "count"),
    lo("routing.rreq_received", "count"),
    lo("routing.rreq_forwarded", "count"),
    lo("routing.rreq_dup_ratio", "ratio"),
    lo("routing.data_forwarded", "count"),
    lo("routing.discoveries", "count"),
    hi("routing.discovery_success", "ratio"),
    hi("traffic.sent", "count"),
    hi("traffic.delivered", "count"),
    hi("traffic.pdr", "ratio"),
    lo("faults.injected", "count"),
    lo("telemetry.events", "count"),
    lo("telemetry.overhead_ratio", "ratio"),
    // --- estimated shares of a stack pass's wall: count x unit cost / wall ---
    lo("share.sim.queue", "ratio"),
    lo("share.core.medium", "ratio"),
    lo("share.radio", "ratio"),
    lo("share.mac", "ratio"),
    lo("share.routing", "ratio"),
    lo("share.unattributed", "ratio"),
    // --- parmesh_100k: ParMeshReport, a profiled run, three 2-thread runs ---
    lo("sim.shard.epochs", "count"),
    lo("sim.shard.regions", "count"),
    lo("sim.shard.cross_region", "count"),
    hi("sim.shard.events_per_window", "count"),
    hi("sim.shard.busy_share", "ratio"),
    lo("sim.shard.barrier_wait_share", "ratio"),
    lo("sim.shard.merge_share", "ratio"),
    lo("sim.shard.imbalance_factor", "ratio"),
    lo("sim.shard.regions_moved_per_epoch", "count"),
    lo("sim.shard.profile_overhead_ratio", "ratio"),
    lo("sim.checkpoint.overhead_ratio", "ratio"),
    lo("core.parmesh.forwards", "count"),
    lo("core.parmesh.mean_hops", "count"),
    hi("core.parmesh.pdr", "ratio"),
    lo("core.parmesh.bytes_per_node", "B"),
    lo("sim.shard.t2_wall_s", "s"),
    hi("sim.shard.t2_speedup", "ratio"),
    lo("sim.shard.t2_spread", "ratio"),
    lo("sim.shard.t2_wait_share", "ratio"),
    // --- served_batch: daemon stats and JobResults of one batch ---
    hi("served.jobs", "count"),
    hi("served.prefix_hits", "count"),
    lo("served.prefix_builds", "count"),
    hi("served.prefix_hit_ratio", "ratio"),
    hi("served.warm_imports", "count"),
    lo("served.rejected_busy", "count"),
    lo("served.run_ms_p50", "ms"),
    lo("served.overhead_ms_p50", "ms"),
    hi("served.worker_util", "ratio"),
    lo("served.vs_inprocess_ratio", "ratio"),
    // --- the measurement itself ---
    lo("bench.trace_overhead_ratio", "ratio"),
    hi("bench.passes", "count"),
    hi("bench.jobs_timed", "count"),
    hi("bench.job_tail_pct", "%"),
    lo("bench.threads_used", "count"),
    hi("bench.host_cores", "count"),
];

/// Per-layer counts that are a pure function of the generated inputs: two
/// sets of runs of one tree, and two trees with the same simulated
/// behaviour, must agree on them exactly. (Cache and scheduling counters
/// such as `served.warm_imports` depend on timing and are not listed.)
pub const EXACT_COUNTS: [&str; 27] = [
    "sim.events",
    "sim.queue.depth_max",
    "core.medium.tx_started",
    "core.medium.link_budgets",
    "core.medium.collisions",
    "mac.tx_attempts",
    "mac.retries",
    "mac.backoffs",
    "mac.drops_queue_full",
    "mac.queue_peak",
    "routing.rreq_received",
    "routing.rreq_forwarded",
    "routing.data_forwarded",
    "routing.discoveries",
    "traffic.sent",
    "traffic.delivered",
    "faults.injected",
    "telemetry.events",
    "sim.shard.epochs",
    "sim.shard.regions",
    "sim.shard.cross_region",
    "core.parmesh.forwards",
    "served.jobs",
    "served.prefix_hits",
    "served.prefix_builds",
    "served.rejected_busy",
    "bench.host_cores",
];

/// Render `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}\n",
            w.name, w.why
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}\n",
            m.name, m.unit, m.better, m.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}\n",
            m.name, m.unit, m.better
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn committed_benchmark_json_is_the_rendered_catalogue() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `benchmark/run.sh --catalogue > BENCHMARK.json`"
        );
    }

    #[test]
    fn catalogue_is_within_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() <= 64 * 1024);
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert!(names.iter().all(|n| name_ok(n)), "bad name");
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "a name is used twice");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n') && !w.why.contains('"'));
        }
        for m in &END_TO_END {
            assert!(unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25);
            assert!(m.better == "lower" || m.better == "higher");
        }
        for m in &PER_LAYER {
            assert!(unit_ok(m.unit), "{}", m.name);
        }
        for name in EXACT_COUNTS {
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }
}
