//! End-to-end scheduler semantics over a real Unix socket: submissions,
//! byte-identity vs one-shot runs, prefix dedup accounting, bounded-queue
//! backpressure, cancellation and graceful drain.

use std::path::PathBuf;
use std::time::{Duration, Instant};
use wmn_served::{standard_metrics, Client, ClientError, ScenarioSpec, Server, ServerConfig};

fn sock(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("wmn_served_test_{tag}_{}.sock", std::process::id()))
}

fn start(tag: &str, workers: usize, queue_cap: usize) -> (Server, PathBuf) {
    let path = sock(tag);
    let server = Server::start(ServerConfig {
        socket: path.clone(),
        workers,
        queue_cap,
    })
    .expect("daemon starts");
    (server, path)
}

/// Submit and wait with no busy retry.
fn run(client: &mut Client, spec: &ScenarioSpec) -> Result<wmn_served::JobResult, ClientError> {
    client.run_retrying(spec, 0, false, Duration::ZERO, |_| {})
}

fn tiny(seed: u64, scheme: &str) -> ScenarioSpec {
    ScenarioSpec {
        seed,
        scheme: scheme.into(),
        grid_rows: 4,
        grid_cols: 4,
        pitch_m: 180.0,
        flows: 2,
        pps: 2.0,
        payload: 256,
        duration_s: 8.0,
        warmup_s: 2.0,
        ..ScenarioSpec::default()
    }
}

/// Direct one-shot run of the same spec, bypassing the service entirely.
fn direct(spec: &ScenarioSpec) -> cnlr::RunResults {
    spec.to_builder()
        .expect("valid spec")
        .telemetry(wmn_telemetry::TelemetryConfig::disabled())
        .build()
        .expect("builds")
        .run()
}

#[test]
fn served_job_matches_one_shot_bit_for_bit() {
    let (server, path) = start("match", 2, 8);
    let spec = tiny(11, "cnlr");
    let mut client = Client::connect(&path).expect("connect");
    let result = run(&mut client, &spec).expect("job runs");
    assert!(result.ok, "job failed: {:?}", result.error);

    let reference = direct(&spec);
    for (key, want) in standard_metrics(&reference) {
        let got = result.metric(key);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "metric {key} drifted through the service: {got} vs {want}"
        );
    }
    let want_counters: Vec<(String, u64)> = reference
        .counters()
        .iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    assert_eq!(result.counters, want_counters, "counter registry drifted");
    assert_eq!(result.events, reference.events, "event count drifted");
    assert!(
        !result.prefix_reused,
        "first job of a prefix cannot be a hit"
    );
    server.join();
}

#[test]
fn prefix_dedup_shares_builds_and_warm_cache() {
    let (server, path) = start("dedup", 2, 16);
    let schemes = ["flooding", "gossip:0.65", "counter:3", "cnlr"];
    // Same seed + topology settings → one shared prefix across schemes.
    for (i, scheme) in schemes.iter().enumerate() {
        let spec = tiny(99, scheme);
        let mut client = Client::connect(&path).expect("connect");
        let result = run(&mut client, &spec).expect("job runs");
        assert!(result.ok, "{scheme} failed: {:?}", result.error);
        assert_eq!(result.prefix_reused, i > 0, "prefix reuse on job {i}");
        assert_eq!(result.warm_import, i > 0, "warm cache import on job {i}");

        // Dedup must be invisible in the results.
        let reference = direct(&tiny(99, scheme));
        for (key, want) in standard_metrics(&reference) {
            assert_eq!(
                result.metric(key).to_bits(),
                want.to_bits(),
                "{scheme}: metric {key} drifted under dedup"
            );
        }
        assert_eq!(result.events, reference.events, "{scheme}: events drifted");
    }
    let mut client = Client::connect(&path).expect("connect");
    let status = client.status().expect("status");
    assert_eq!(status.stats.prefix_builds, 1, "one prefix built");
    assert_eq!(status.stats.prefix_hits, 3, "three jobs reused it");
    assert_eq!(status.stats.warm_imports, 3, "three warm-cache imports");
    assert_eq!(status.stats.warm_exports, 1, "one warm-cache export");
    assert_eq!(status.stats.done, 4);
    server.join();
}

#[test]
fn bounded_queue_returns_busy_instead_of_blocking() {
    // Zero workers pin the queue deterministically: nothing ever drains.
    let (server, path) = start("busy", 0, 2);
    let mut submitters: Vec<Client> = Vec::new();
    for i in 0..2 {
        let mut c = Client::connect(&path).expect("connect");
        let id = c.submit(&tiny(i, "flooding"), 0, false).expect("queued");
        assert_eq!(id, i + 1);
        submitters.push(c);
    }
    // Queue is at capacity: the next submit must answer instantly.
    let t0 = Instant::now();
    let mut c3 = Client::connect(&path).expect("connect");
    match c3.submit(&tiny(9, "flooding"), 0, false) {
        Err(ClientError::Busy) => {}
        other => panic!("expected Busy, got {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "busy response must not block"
    );

    // Queued jobs can be cancelled; the submitter gets a terminal line.
    let mut admin = Client::connect(&path).expect("connect");
    assert_eq!(admin.cancel(1).expect("cancel"), "cancelled");
    let result = submitters[0].wait(1, |_| {}).expect("terminal line");
    assert!(!result.ok);
    assert_eq!(result.error.as_deref(), Some("cancelled"));
    assert!(admin.cancel(777).is_err(), "unknown job is an error");

    let status = admin.status().expect("status");
    assert_eq!(status.queued, 1);
    assert_eq!(status.stats.cancelled, 1);
    assert_eq!(status.stats.rejected_busy, 1);

    // Drain with a non-empty queue and no workers: the leftover queued job
    // is cancelled, not leaked.
    let stats = server.join();
    assert_eq!(stats.cancelled, 2);
    let result = submitters[1].wait(2, |_| {}).expect("terminal line");
    assert_eq!(result.error.as_deref(), Some("cancelled"));
}

/// A deliberately long job (10 min simulated): only cancellation ends it
/// quickly.
fn big() -> ScenarioSpec {
    ScenarioSpec {
        seed: 5,
        scheme: "flooding".into(),
        grid_rows: 6,
        grid_cols: 6,
        flows: 8,
        pps: 8.0,
        duration_s: 600.0,
        warmup_s: 10.0,
        ..ScenarioSpec::default()
    }
}

/// Poll the daemon until a job is running.
fn await_running(admin: &mut Client) {
    let t0 = Instant::now();
    while admin.status().expect("status").running == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "job never started running"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn busy_retry_gives_up_at_zero_and_gets_in_once_the_slot_frees() {
    let (server, path) = start("retry", 1, 1);
    let mut long = Client::connect(&path).expect("connect");
    let id = long.submit(&big(), 0, false).expect("queued");
    let mut admin = Client::connect(&path).expect("connect");
    await_running(&mut admin);
    // The one worker is busy and the one queue slot is taken.
    let mut queued = Client::connect(&path).expect("connect");
    queued.submit(&tiny(1, "cnlr"), 0, false).expect("queued");

    let mut client = Client::connect(&path).expect("connect");
    match run(&mut client, &tiny(2, "cnlr")) {
        Err(ClientError::Busy) => {}
        other => panic!("expected Busy, got {other:?}"),
    }
    // Free the worker once the generous wait below has been refused at
    // least once (the first refusal was the zero wait's).
    let cancel = std::thread::spawn(move || {
        while admin.status().expect("status").stats.rejected_busy < 2 {
            std::thread::sleep(Duration::from_millis(5));
        }
        admin.cancel(id).expect("cancel")
    });
    let result = client
        .run_retrying(&tiny(2, "cnlr"), 0, false, Duration::from_secs(60), |_| {})
        .expect("gets in once the slot frees");
    assert!(result.ok, "retried job failed: {:?}", result.error);
    assert_eq!(cancel.join().unwrap(), "cancelling");
    let stats = server.join();
    assert_eq!(stats.done, 2);
}

#[test]
fn cancel_mid_run_interrupts_and_reports_cancelled() {
    let (server, path) = start("cancel", 1, 4);
    let mut submitter = Client::connect(&path).expect("connect");
    let id = submitter.submit(&big(), 0, false).expect("queued");
    let mut admin = Client::connect(&path).expect("connect");
    await_running(&mut admin);
    assert_eq!(admin.cancel(id).expect("cancel"), "cancelling");
    let result = submitter.wait(id, |_| {}).expect("terminal line");
    assert!(!result.ok, "cancelled job must not report success");
    assert_eq!(result.error.as_deref(), Some("cancelled"));
    // The daemon streams results instead of writing files, so a cancelled
    // job cannot leave partial artifacts: nothing arrived but the terminal
    // line, and no results/ dir appeared anywhere we ran.
    assert!(result.metrics.is_empty() && result.counters.is_empty());
    let stats = server.join();
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.done, 0);
}

#[test]
fn drain_finishes_inflight_and_refuses_new_jobs() {
    let (server, path) = start("drain", 1, 4);
    let mut submitter = Client::connect(&path).expect("connect");
    let id = submitter
        .submit(&tiny(3, "cnlr"), 0, false)
        .expect("queued");

    let mut admin = Client::connect(&path).expect("connect");
    admin.shutdown().expect("shutdown acked");
    assert!(server.shutdown_requested());

    // New submissions are refused while draining…
    let mut late = Client::connect(&path).expect("accept loop still alive");
    match late.submit(&tiny(4, "cnlr"), 0, false) {
        Err(ClientError::Draining) => {}
        other => panic!("expected Draining, got {other:?}"),
    }
    // …but the in-flight job still completes.
    let result = submitter.wait(id, |_| {}).expect("terminal line");
    assert!(result.ok, "drained job failed: {:?}", result.error);
    let stats = server.join();
    assert_eq!(stats.done, 1);
    assert_eq!(stats.submitted, 1);
}

#[test]
fn streaming_jobs_probe_without_perturbing_metrics() {
    let (server, path) = start("stream", 1, 4);
    let spec = tiny(21, "cnlr");
    let mut client = Client::connect(&path).expect("connect");
    let id = client.submit(&spec, 0, true).expect("queued");
    let mut lines = Vec::new();
    let result = client
        .wait(id, |line| lines.push(line.to_string()))
        .expect("terminal line");
    assert!(result.ok);
    // 8 simulated seconds at 1 Hz probing, >1 node per probe tick.
    assert!(
        lines.len() >= 8,
        "expected probe stream, saw {} lines",
        lines.len()
    );
    // Every line before the result is a probe: the daemon sends nothing
    // the result line or the submitted spec already says.
    for line in &lines {
        assert!(line.starts_with("{\"stream\":\"probe\","), "{line}");
    }
    // A job that did not ask to stream gets its result and nothing else.
    let quiet = client.submit(&spec, 0, false).expect("queued");
    let mut unasked = 0usize;
    let quiet_result = client.wait(quiet, |_| unasked += 1).expect("terminal line");
    assert!(quiet_result.ok);
    assert_eq!(unasked, 0, "a non-streamed job sent stream lines");

    // Telemetry probes ride the event loop but must not perturb physics:
    // metrics stay bit-identical to the probe-free one-shot run.
    let reference = direct(&spec);
    for (key, want) in standard_metrics(&reference) {
        assert_eq!(
            result.metric(key).to_bits(),
            want.to_bits(),
            "metric {key} perturbed by probe streaming"
        );
    }
    assert!(
        result.events > reference.events,
        "probe ticks should add engine events"
    );
    server.join();
}

#[test]
fn bad_specs_fail_cleanly() {
    let (server, path) = start("badspec", 1, 4);
    let mut client = Client::connect(&path).expect("connect");
    let mut bad = tiny(1, "cnlr");
    bad.scheme = "warp-drive".into();
    match client.submit(&bad, 0, false) {
        Err(ClientError::Rejected(msg)) => {
            assert!(msg.contains("unknown scheme"), "got: {msg}")
        }
        other => panic!("expected rejection, got {other:?}"),
    }
    // The connection stays usable after a rejected submit.
    let result = run(&mut client, &tiny(1, "cnlr")).expect("good job runs");
    assert!(result.ok);
    server.join();
}
