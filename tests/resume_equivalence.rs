//! End-to-end resume: a ParMesh run resumed from its newest checkpoint, as
//! after the process was killed, must be indistinguishable from an
//! uninterrupted run: byte-identical trace JSONL, identical reports, and
//! identical `ShardProfile` sim-fingerprints, at every tested worker count.
//! A resume refuses a corrupt checkpoint with a structured error. The
//! checkpointed leg runs two workers, so the window planner packs its
//! epochs, and each resume runs under another schedule: this is also the
//! proof that a checkpoint carries no scheduler state.

use proptest::prelude::*;
use wmn::sim::SimDuration;
use wmn::telemetry::TelemetryEvent;
use wmn::ParMesh;

/// A small mobility+churn ParMesh scenario, sized so several regions stay
/// concurrently active (hundreds of epochs) while finishing in tens of
/// milliseconds of wall-clock.
fn scenario(nodes: usize, seed: u64) -> ParMesh {
    ParMesh::new(nodes)
        .seed(seed)
        .regions(9)
        .flows(nodes / 20)
        .duration(SimDuration::from_secs(5))
        .mobility(true)
        .churn(true)
        .telemetry(true)
        .profile(true)
}

fn trace_bytes(trace: &[TelemetryEvent]) -> String {
    let mut s = String::new();
    for ev in trace {
        s.push_str(&ev.to_jsonl());
        s.push('\n');
    }
    s
}

fn temp_dir(tag: &str, seed: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "wmn_resume_e2e_{tag}_{seed:x}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random mobility+churn scenarios: a run resumed from its newest
    /// checkpoint, as after a process crash, reproduces the uninterrupted
    /// run's trace and profile fingerprint at worker counts {1, 2, 8}.
    #[test]
    fn crash_and_resume_reproduce_uninterrupted_runs(
        seed in 1u64..1_000,
        nodes in 300usize..500,
    ) {
        let base = scenario(nodes, seed).threads(1).run();
        let base_trace = trace_bytes(&base.trace);
        let base_fp = base.profile.as_ref().expect("profile").sim_fingerprint();
        prop_assert!(!base.trace.is_empty());

        for threads in [1usize, 2, 8] {
            // Checkpoint the run, then resume it in a fresh
            // process-equivalent (new ParMesh value) at this thread count.
            let dir = temp_dir("resume", seed ^ threads as u64);
            let first = scenario(nodes, seed)
                .threads(2)
                .checkpoint_dir(&dir)
                .checkpoint_every(SimDuration::from_secs(1))
                .run();
            let sup = first.supervisor.as_ref().expect("supervised");
            prop_assert!(sup.checkpoints_written >= 2, "want mid-run checkpoints");
            prop_assert_eq!(&trace_bytes(&first.trace), &base_trace);

            let resumed = scenario(nodes, seed)
                .threads(threads)
                .checkpoint_dir(&dir)
                .resume(true)
                .run();
            let sup = resumed.supervisor.as_ref().expect("supervised");
            prop_assert!(sup.resumed_from_epoch.is_some(), "resume found no checkpoint");
            prop_assert_eq!(
                &trace_bytes(&resumed.trace), &base_trace,
                "resumed run diverged (threads={})", threads
            );
            prop_assert_eq!(
                resumed.profile.as_ref().expect("profile").sim_fingerprint(),
                base_fp.clone(),
                "resumed run changed the sim fingerprint (threads={})", threads
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Resuming against a corrupt newest checkpoint is a structured error.
#[test]
fn corrupt_checkpoint_resume_is_an_error() {
    let dir = temp_dir("corrupt", 1);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("ckpt_epoch_5.wmnckpt"), b"not a checkpoint").unwrap();
    let err = scenario(300, 1)
        .checkpoint_dir(&dir)
        .resume(true)
        .try_run()
        .expect_err("corrupt checkpoint must refuse to load");
    assert!(
        matches!(err, wmn::sim::CheckpointError::Corrupt(_)),
        "want Corrupt, got {err:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
