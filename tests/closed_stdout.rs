//! A reader that leaves before `wmn-sim` prints its report (`wmn-sim … |
//! head -c 1`) is not a crash: the report is dropped unwritten and the run
//! ends with the exit code it would have had — 0 for a finished run, 130
//! for an interrupted, checkpointed one.

use std::process::{Command, Stdio};

/// A stdout whose reader is already gone: the read end is dropped before
/// the child starts, so its first write fails with `EPIPE`, every time.
fn closed_stdout() -> Stdio {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    writer.into()
}

#[test]
fn wmn_sim_exits_quietly_when_its_reader_is_gone() {
    let out = Command::new(env!("CARGO_BIN_EXE_wmn-sim"))
        .args("--grid 4 --flows 2 --duration 3 --warmup 1 --seed 3".split(' '))
        .stdout(closed_stdout())
        .stderr(Stdio::piped())
        .output()
        .expect("spawn wmn-sim");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[cfg(unix)]
#[test]
fn an_interrupted_run_still_exits_130_when_its_reader_is_gone() {
    unsafe extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGINT: i32 = 2;
    let dir = std::env::temp_dir().join(format!("wmn_closed_stdout_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Uninterrupted, this run takes several seconds; the SIGINT below
    // lands long before it would end.
    let child = Command::new(env!("CARGO_BIN_EXE_wmn-sim"))
        .args("--parmesh --nodes 1000 --flows 20 --duration 36000 --seed 3".split(' '))
        .arg("--checkpoint-dir")
        .arg(&dir)
        .stdout(closed_stdout())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn wmn-sim");
    // wmn-sim installs its SIGINT handler before it writes the provisional
    // run manifest, so once the manifest exists the signal is caught.
    let manifest = dir.join("run_manifest.json");
    let t0 = std::time::Instant::now();
    while !manifest.exists() {
        assert!(t0.elapsed().as_secs() < 60, "no run manifest appeared");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let pid = i32::try_from(child.id()).expect("pid fits in pid_t");
    // SAFETY: `kill(2)` on our own child, which has not been waited for
    // yet, so its pid cannot have been reused.
    assert_eq!(unsafe { kill(pid, SIGINT) }, 0);
    let out = child.wait_with_output().expect("wait for wmn-sim");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(130), "{stderr}");
    assert!(stderr.contains("interrupted"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
