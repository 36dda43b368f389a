//! `wmn-sim --trace-out PATH` is the one way a run records a trace, for
//! either model: the file holds exactly what an in-memory sink sees, and a
//! path that cannot be written stops the run before it simulates.

use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use wmn::cnlr::cli::Argv;
use wmn::cnlr::ScenarioSpec;
use wmn::telemetry::{MemorySink, SharedSink, TelemetryConfig};

const SIM: &str = env!("CARGO_BIN_EXE_wmn-sim");

/// The scenario both sides run; no other test in this file builds a
/// simulation in-process, so the in-memory run is run id 0 as the
/// binary's is.
const SCENARIO: &str = "--grid 5 --flows 4 --duration 10 --warmup 2 --seed 3";

#[test]
fn full_stack_trace_file_equals_the_in_memory_trace() {
    let path = std::env::temp_dir().join(format!("wmn_trace_out_{}.jsonl", std::process::id()));
    let status = Command::new(SIM)
        .args(SCENARIO.split_whitespace())
        .arg("--trace-out")
        .arg(&path)
        .stdout(Stdio::null())
        .status()
        .expect("run wmn-sim");
    assert!(status.success(), "{status}");
    let file = std::fs::read_to_string(&path).expect("trace written");
    let _ = std::fs::remove_file(&path);

    let mut spec = ScenarioSpec::default();
    let mut argv = Argv::new(SCENARIO.split_whitespace().map(str::to_string).collect());
    while let Some(flag) = argv.next_arg() {
        assert!(spec.set_flag(&flag, &mut argv).unwrap(), "{flag}");
    }
    let memory = Arc::new(Mutex::new(MemorySink::default()));
    let sink: SharedSink = memory.clone();
    let builder = spec
        .to_builder()
        .unwrap()
        .telemetry(TelemetryConfig::enabled());
    builder.telemetry_sink(sink).build().expect("build").run();
    let events = &memory.lock().unwrap().events;
    assert!(!events.is_empty());
    let expected: String = events.iter().map(|ev| ev.to_jsonl() + "\n").collect();
    assert!(
        file == expected,
        "the --trace-out file differs from the in-memory trace"
    );
}

/// Runs `args` with `--trace-out path` and returns its exit code and how
/// long it took (killed after 60 s so a regression fails, not hangs).
fn traced_to(path: &str, args: &str) -> (Option<i32>, Duration) {
    let t0 = Instant::now();
    let mut child = Command::new(SIM)
        .args(args.split_whitespace())
        .args(["--trace-out", path])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn wmn-sim");
    loop {
        if let Some(status) = child.try_wait().expect("wait") {
            return (status.code(), t0.elapsed());
        }
        if t0.elapsed() > Duration::from_secs(60) {
            let _ = child.kill();
            let _ = child.wait();
            return (None, t0.elapsed());
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn an_unwritable_trace_path_fails_before_the_run() {
    // The ParMesh cell would simulate an hour of 100 000 nodes: only a
    // check made before the run answers in time.
    for args in [SCENARIO, "--parmesh --nodes 100000 --duration 3600"] {
        let (code, took) = traced_to("/nonexistent/dir/t.jsonl", args);
        assert_eq!(code, Some(1), "{args}");
        assert!(took < Duration::from_secs(2), "{args}: took {took:?}");
    }
}

/// A file that opens but refuses every write: the lost trace is an error,
/// not a run that reports success.
#[cfg(target_os = "linux")]
#[test]
fn a_failed_trace_write_fails_the_run() {
    for args in [SCENARIO, "--parmesh --nodes 1000 --duration 10 --warmup 2"] {
        assert_eq!(traced_to("/dev/full", args).0, Some(1), "{args}");
    }
}
