//! The command lines of `wmn-trace` and the figure binaries, driven as a
//! user drives them: a removed flag is refused, and a reader that leaves
//! before the output is written is neither a crash nor a reason to skip
//! the files a command writes.

use std::process::{Command, Output, Stdio};

const TRACE: &str = env!("CARGO_BIN_EXE_wmn-trace");
const TAB1: &str = env!("CARGO_BIN_EXE_tab1_params");

/// A stdout whose reader is already gone: the read end is dropped before
/// the child starts, so its first write fails with `EPIPE`, every time.
fn closed_stdout() -> Stdio {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    writer.into()
}

fn run(cmd: &mut Command) -> Output {
    cmd.stderr(Stdio::piped()).output().expect("spawn")
}

fn assert_quiet_exit(out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// A scratch directory of this test's own.
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("wmn_bench_cli_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

const ONE_EVENT: &str = r#"{"t":0,"run":0,"node":1,"kind":"data_originate","flow":2,"seq":0}"#;

#[test]
fn summary_has_no_verify_flag() {
    let dir = scratch("verify");
    let trace = dir.join("t.jsonl");
    std::fs::write(&trace, format!("{ONE_EVENT}\n")).unwrap();
    let out = run(Command::new(TRACE)
        .arg("summary")
        .arg(&trace)
        .args(["--verify", "m.json"]));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag --verify"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wmn_trace_summary_exits_quietly_when_its_reader_is_gone() {
    let dir = scratch("summary");
    let trace = dir.join("t.jsonl");
    std::fs::write(&trace, format!("{ONE_EVENT}\n")).unwrap();
    let out = run(Command::new(TRACE)
        .arg("summary")
        .arg(&trace)
        .stdout(closed_stdout()));
    assert_quiet_exit(&out);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_figure_exits_quietly_when_its_reader_is_gone() {
    // tab1_params writes results/ under its working directory, after it
    // has printed its table.
    let dir = scratch("tab1");
    let out = run(Command::new(TAB1).current_dir(&dir).stdout(closed_stdout()));
    assert_quiet_exit(&out);
    let csv = std::fs::read_to_string(dir.join("results/tab1.csv")).expect("tab1.csv written");
    assert!(csv.lines().count() > 1, "{csv}");
    let _ = std::fs::remove_dir_all(&dir);
}
