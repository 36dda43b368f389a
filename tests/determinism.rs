//! Reproducibility: runs are a pure function of the master seed.

use std::sync::{Arc, Mutex};
use wmn::presets;
use wmn::sim::SimDuration;
use wmn::telemetry::{MemorySink, SharedSink, TelemetryConfig, TelemetryEvent};
use wmn::{CnlrConfig, FaultPlan, Scheme};

fn run(seed: u64, scheme: Scheme) -> wmn::RunResults {
    presets::small(seed)
        .scheme(scheme)
        .build()
        .expect("build")
        .run()
}

#[test]
fn same_seed_same_everything() {
    for scheme in [Scheme::Flooding, Scheme::Cnlr(CnlrConfig::default())] {
        let a = run(99, scheme.clone());
        let b = run(99, scheme.clone());
        assert_eq!(a.summary.sent, b.summary.sent);
        assert_eq!(a.summary.delivered, b.summary.delivered);
        assert_eq!(a.rreq_tx, b.rreq_tx);
        assert_eq!(a.events, b.events);
        assert_eq!(a.mac.data_tx_attempts, b.mac.data_tx_attempts);
        assert_eq!(a.medium.collisions, b.medium.collisions);
        assert!((a.summary.mean_delay_s - b.summary.mean_delay_s).abs() < 1e-15);
    }
}

#[test]
fn different_seeds_differ() {
    let a = run(1, Scheme::Flooding);
    let b = run(2, Scheme::Flooding);
    // Different placement jitter, backoffs, flow endpoints — event counts
    // are overwhelmingly unlikely to coincide.
    assert_ne!(a.events, b.events);
}

#[test]
fn scheme_changes_only_discovery_behaviour_not_determinism() {
    let a = run(5, Scheme::Gossip { p: 0.7 });
    let b = run(5, Scheme::Gossip { p: 0.7 });
    assert_eq!(a.rreq_tx, b.rreq_tx);
    assert_eq!(a.events, b.events);
}

fn run_churned(seed: u64) -> (wmn::RunResults, Vec<TelemetryEvent>) {
    let plan = FaultPlan::new()
        .churn(SimDuration::from_secs(20), SimDuration::from_secs(3))
        .noise_burst(
            400.0,
            400.0,
            250.0,
            12.0,
            wmn::sim::SimTime::from_secs_f64(4.0),
            SimDuration::from_secs(2),
        );
    let inner = Arc::new(Mutex::new(MemorySink::default()));
    let sink: SharedSink = inner.clone();
    // Probes off: a NodeProbe's load estimate averages neighbour loads in
    // HashMap order, so its last float bit is not run-stable. Every
    // protocol-visible event must still replay exactly.
    let tel = TelemetryConfig {
        probe_interval: None,
        ..TelemetryConfig::enabled()
    };
    let results = presets::small(seed)
        .scheme(Scheme::Cnlr(CnlrConfig::default()))
        .faults(plan)
        .telemetry(tel)
        .telemetry_sink(sink)
        .build()
        .expect("build")
        .run();
    let events = inner.lock().unwrap().events.clone();
    (results, events)
}

#[test]
fn stochastic_fault_schedules_are_a_pure_function_of_the_seed() {
    // Same seed ⇒ the same crashes, reboots and noise bursts at the same
    // instants, the same RunResults and an identical event trace.
    let (a, ta) = run_churned(42);
    let (b, tb) = run_churned(42);
    assert!(a.faults.node_down > 0, "churn must crash at least one node");
    assert_eq!(a.faults.node_down, b.faults.node_down);
    assert_eq!(a.faults.node_up, b.faults.node_up);
    assert_eq!(a.faults.injected, b.faults.injected);
    assert_eq!(a.summary.sent, b.summary.sent);
    assert_eq!(a.summary.delivered, b.summary.delivered);
    assert_eq!(a.events, b.events);
    assert_eq!(a.outages_s, b.outages_s);
    assert_eq!(a.repair_latency_s, b.repair_latency_s);
    assert_eq!(a.counters(), b.counters());
    // Identical trace event-for-event, run id included: every simulation
    // a process builds records run 0, however many it built before.
    assert!(
        ta.iter().chain(&tb).all(|e| e.run == 0),
        "a run id other than 0"
    );
    for (i, (x, y)) in ta.iter().zip(tb.iter()).enumerate() {
        assert_eq!(x, y, "trace diverges at event {i}");
    }
    assert_eq!(
        ta.len(),
        tb.len(),
        "trace must be identical event-for-event"
    );

    // A different seed draws a different fault schedule.
    let (c, _) = run_churned(43);
    assert_ne!(
        (a.events, a.faults.node_down, a.summary.delivered),
        (c.events, c.faults.node_down, c.summary.delivered)
    );
}

#[test]
fn parmesh_profiling_is_invisible_to_the_simulation() {
    // Attaching the shard profiler must not perturb results: for every
    // worker count the merged trace and report are byte-identical with
    // profiling on and off, and the profile's simulation-derived fields
    // are themselves identical across worker counts.
    let run = |threads: usize, profile: bool| {
        wmn::ParMesh::new(1_000)
            .seed(11)
            .flows(100)
            .regions(4)
            .duration(SimDuration::from_secs(3))
            .threads(threads)
            .telemetry(true)
            .profile(profile)
            .run()
    };
    let mut fingerprint: Option<String> = None;
    for threads in [1usize, 2, 8] {
        let plain = run(threads, false);
        let profiled = run(threads, true);
        assert!(plain.profile.is_none());
        let p = profiled.profile.as_ref().expect("profile requested");
        assert_eq!(
            plain.trace, profiled.trace,
            "profiling changed the trace at {threads} threads"
        );
        assert_eq!(plain.report.events, profiled.report.events);
        assert_eq!(plain.report.delivered, profiled.report.delivered);
        assert_eq!(p.events, profiled.report.events);
        assert_eq!(p.epochs, profiled.report.epochs);
        match &fingerprint {
            None => fingerprint = Some(p.sim_fingerprint()),
            Some(fp) => assert_eq!(
                fp,
                &p.sim_fingerprint(),
                "profile sim fields changed at {threads} threads"
            ),
        }
    }
}

#[test]
fn parmesh_trace_is_identical_across_worker_counts() {
    // The shard-parallel engine's core guarantee, end to end: the scale
    // model under mobility + churn produces a bit-identical merged trace
    // and report for any worker count.
    let run = |threads: usize| {
        wmn::ParMesh::new(1_000)
            .seed(11)
            .flows(100)
            .regions(4)
            .duration(SimDuration::from_secs(5))
            .mobility(true)
            .churn(true)
            .threads(threads)
            .telemetry(true)
            .run()
    };
    let base = run(1);
    assert!(base.report.originated > 0, "{:?}", base.report);
    assert!(!base.trace.is_empty());
    for threads in [2, 8] {
        let out = run(threads);
        assert_eq!(base.report.originated, out.report.originated);
        assert_eq!(base.report.delivered, out.report.delivered);
        assert_eq!(base.report.forwards, out.report.forwards);
        assert_eq!(base.report.dropped_no_route, out.report.dropped_no_route);
        assert_eq!(base.report.dropped_node_down, out.report.dropped_node_down);
        assert_eq!(base.report.events, out.report.events);
        assert_eq!(base.report.epochs, out.report.epochs);
        assert_eq!(base.trace.len(), out.trace.len());
        for (i, (a, b)) in base.trace.iter().zip(&out.trace).enumerate() {
            assert_eq!(
                a, b,
                "parmesh trace diverges at event {i} with {threads} threads"
            );
        }
    }
}
