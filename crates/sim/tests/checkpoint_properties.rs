//! Property tests of the checkpoint layer: epoch-barrier checkpoints, the
//! interrupt and resume must be invisible in the results.
//!
//! Random region graphs with RNG-driven cascades are run four ways —
//! plain, supervised-with-checkpoints, resumed-from-a-random-mid-run-
//! checkpoint, and resumed from the final checkpoint of a run interrupted
//! at a random epoch — at worker counts {1, 2, 8}. Every variant must
//! produce bit-identical per-region logs and engine reports. The file
//! format itself is also property-tested: any corrupted byte in a sealed
//! checkpoint is refused with a structured error.

use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use wmn_sim::checkpoint::{self, ByteReader, ByteWriter, CheckpointError};
use wmn_sim::shard::{ShardProbe, WindowSample};
use wmn_sim::{
    CheckpointState, Lookahead, RegionCtx, RegionWorld, ShardRunReport, ShardStopReason,
    ShardedEngine, SimDuration, SimRng, SimTime, SupervisorConfig,
};

/// A region whose behaviour depends on mutable state of every kind the
/// checkpoint must capture: an RNG stream position, a send counter, and
/// an observation log. Any state the snapshot misses diverges the run.
struct Hopper {
    id: u32,
    n: u32,
    rng: SimRng,
    sends: u32,
    log: Vec<(u64, u32, u32)>,
}

#[derive(Debug)]
enum Hop {
    Tick { k: u32 },
    Msg { from: u32, tag: u32 },
}

impl RegionWorld for Hopper {
    type Event = Hop;

    fn handle(&mut self, ev: Hop, ctx: &mut RegionCtx<'_, Hop>) {
        match ev {
            Hop::Tick { k } => {
                self.log.push((ctx.now().as_nanos(), u32::MAX, k));
                if k > 0 {
                    // Local cadence is RNG-jittered so the stream position
                    // is load-bearing state.
                    let jitter = SimDuration::from_micros(200 + self.rng.below(800));
                    ctx.after(jitter, Hop::Tick { k: k - 1 });
                }
                if self.rng.chance(0.4) {
                    let dst = self.rng.below(self.n as u64) as u32;
                    if dst != self.id {
                        let tag = self.sends;
                        self.sends += 1;
                        ctx.send(
                            dst,
                            ctx.now() + SimDuration::from_micros(250 + self.rng.below(500)),
                            Hop::Msg { from: self.id, tag },
                        );
                    }
                }
            }
            Hop::Msg { from, tag } => {
                self.log.push((ctx.now().as_nanos(), from, tag));
            }
        }
    }
}

impl CheckpointState for Hopper {
    fn encode_state(&self, out: &mut ByteWriter) {
        let (s, cached) = self.rng.save_state();
        for w in s {
            out.u64(w);
        }
        out.u8(cached.is_some() as u8);
        out.u64(cached.unwrap_or(0));
        out.u32(self.sends);
        out.u32(self.log.len() as u32);
        for &(t, from, tag) in &self.log {
            out.u64(t);
            out.u32(from);
            out.u32(tag);
        }
    }

    fn decode_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CheckpointError> {
        let s = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
        let cached = if r.u8()? != 0 {
            Some(r.u64()?)
        } else {
            r.u64()?;
            None
        };
        self.rng.restore_state(s, cached);
        self.sends = r.u32()?;
        let len = r.u32()? as usize;
        self.log.clear();
        for _ in 0..len {
            self.log.push((r.u64()?, r.u32()?, r.u32()?));
        }
        Ok(())
    }

    fn encode_event(event: &Hop, out: &mut ByteWriter) {
        match event {
            Hop::Tick { k } => {
                out.u8(0);
                out.u32(*k);
            }
            Hop::Msg { from, tag } => {
                out.u8(1);
                out.u32(*from);
                out.u32(*tag);
            }
        }
    }

    fn decode_event(r: &mut ByteReader<'_>) -> Result<Hop, CheckpointError> {
        match r.u8()? {
            0 => Ok(Hop::Tick { k: r.u32()? }),
            1 => Ok(Hop::Msg {
                from: r.u32()?,
                tag: r.u32()?,
            }),
            t => Err(CheckpointError::Corrupt(format!("bad hopper tag {t}"))),
        }
    }
}

fn hopper_engine(n: u32, seed: u64, budget: u32) -> ShardedEngine<Hopper> {
    let worlds: Vec<Hopper> = (0..n)
        .map(|i| Hopper {
            id: i,
            n,
            rng: SimRng::derive(seed, 0x484F5050, i as u64),
            sends: 0,
            log: Vec::new(),
        })
        .collect();
    let mut eng = ShardedEngine::new(
        worlds,
        Lookahead::uniform(n as usize, SimDuration::from_micros(250)),
        SimTime::from_secs(2),
    );
    for r in 0..n {
        eng.prime(
            r,
            SimTime::from_micros(11 * r as u64),
            Hop::Tick { k: budget },
        );
    }
    eng
}

fn logs(worlds: &[Hopper]) -> Vec<&[(u64, u32, u32)]> {
    worlds.iter().map(|w| w.log.as_slice()).collect()
}

fn assert_same(
    a: &ShardRunReport,
    wa: &[Hopper],
    b: &ShardRunReport,
    wb: &[Hopper],
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.events_processed, b.events_processed, "{}: events", what);
    prop_assert_eq!(a.epochs, b.epochs, "{}: epochs", what);
    prop_assert_eq!(a.cross_region, b.cross_region, "{}: cross", what);
    prop_assert_eq!(a.end_time, b.end_time, "{}: end time", what);
    prop_assert_eq!(logs(wa), logs(wb), "{}: logs", what);
    Ok(())
}

/// Raises the interrupt flag at the end of epoch `at`; the supervisor
/// stops at the next barrier.
struct Tripwire {
    flag: Arc<AtomicBool>,
    at: u64,
}

impl ShardProbe for Tripwire {
    fn window(&mut self, _: &WindowSample) {}
    fn epoch_end(&mut self, epoch: u64, _: u64, _: u64, _: u64) {
        if epoch == self.at {
            self.flag.store(true, Ordering::Relaxed);
        }
    }
    fn run_end(&mut self, _: &ShardRunReport, _: u64) {}
}

fn temp_dir(tag: &str, seed: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "wmn_ckpt_prop_{tag}_{seed:x}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Checkpointing, resume-from-any-checkpoint and an interrupt at any
    /// epoch are all invisible: every variant at every worker count
    /// reproduces the plain single-threaded run bit-for-bit.
    #[test]
    fn checkpoint_interrupt_and_resume_are_invisible(
        seed in any::<u64>(),
        n in 2u32..7,
        budget in 4u32..40,
        pick in any::<u64>(),
    ) {
        let (base, wbase) = hopper_engine(n, seed, budget).run(1);
        let dir = temp_dir("resume", seed);

        for threads in [1usize, 2, 8] {
            let cfg = SupervisorConfig {
                scenario: seed,
                checkpoint_dir: Some(dir.clone()),
                // Ticks land every 200–1000 µs, so a sub-millisecond
                // cadence guarantees several mid-run checkpoints even for
                // the smallest budgets.
                checkpoint_every: Some(SimDuration::from_micros(600)),
                ..SupervisorConfig::default()
            };
            let (rs, ws, sup) = hopper_engine(n, seed, budget)
                .run_supervised(threads, None, &cfg)
                .expect("supervised run");
            assert_same(&base, &wbase, &rs, &ws, "supervised")?;
            prop_assert!(sup.checkpoints_written >= 1);

            // Resume from a pseudo-random mid-run checkpoint at this
            // worker count (index derived from the inputs, not an RNG:
            // proptest shrinks better over pure inputs).
            let files = checkpoint::list_dir(&dir).expect("list");
            prop_assert!(!files.is_empty());
            let bytes = checkpoint::read_file(&files[pick as usize % files.len()].1).expect("read");
            let mut eng = hopper_engine(n, seed, budget);
            let meta = eng.restore(&bytes, seed).expect("restore");
            let (rr, wr, sup2) = eng
                .run_supervised(threads, None, &SupervisorConfig::default())
                .expect("resumed run");
            prop_assert_eq!(sup2.resumed_from_epoch, Some(meta.epoch));
            assert_same(&base, &wbase, &rr, &wr, "resumed")?;

            let _ = std::fs::remove_dir_all(&dir);
        }

        // Interrupt at an epoch inside the run, then resume the final
        // checkpoint at every worker count.
        let flag = Arc::new(AtomicBool::new(false));
        let mut trip = Tripwire { flag: Arc::clone(&flag), at: 1 + pick % base.epochs };
        let cfg = SupervisorConfig {
            scenario: seed,
            checkpoint_dir: Some(dir.clone()),
            interrupt: Some(flag),
            ..SupervisorConfig::default()
        };
        let (ri, _, sup) = hopper_engine(n, seed, budget)
            .run_supervised(2, Some(&mut trip), &cfg)
            .expect("interrupted run");
        prop_assert_eq!(ri.reason, ShardStopReason::Interrupted);
        prop_assert_eq!(ri.epochs, trip.at);
        let bytes = checkpoint::read_file(&sup.last_checkpoint.expect("final checkpoint"))
            .expect("read");
        for threads in [1usize, 2, 8] {
            let mut eng = hopper_engine(n, seed, budget);
            eng.restore(&bytes, seed).expect("restore");
            let (rr, wr, _) = eng
                .run_supervised(threads, None, &SupervisorConfig::default())
                .expect("resumed run");
            assert_same(&base, &wbase, &rr, &wr, "resumed after interrupt")?;
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Flipping any single byte of a sealed checkpoint is always detected:
    /// a structured error, never a panic, never a silent wrong resume.
    #[test]
    fn any_corrupted_byte_is_refused(
        seed in any::<u64>(),
        flip_at in any::<u64>(),
        flip_with in 1u8..=255,
    ) {
        let payload: Vec<u8> = (0..64).map(|i| (seed as u8).wrapping_add(i)).collect();
        let sealed = checkpoint::seal(seed, 7, 1_000_000, 3, 42, &payload);
        prop_assert!(checkpoint::inspect(&sealed).is_ok());

        let mut bad = sealed.clone();
        let at = (flip_at % bad.len() as u64) as usize;
        bad[at] ^= flip_with;
        match checkpoint::inspect(&bad) {
            Ok(meta) => {
                // The only survivable flips are inside header fields that
                // the checksum does not bind… and the checksum binds all
                // of them, so reaching here means detection failed.
                prop_assert!(false, "corruption at byte {at} undetected: {meta:?}");
            }
            Err(
                CheckpointError::Corrupt(_)
                | CheckpointError::VersionMismatch { .. }
                | CheckpointError::ScenarioMismatch { .. },
            ) => {}
            Err(e) => prop_assert!(false, "unexpected error class: {e:?}"),
        }
    }

    /// Truncating a checkpoint anywhere is refused too.
    #[test]
    fn any_truncation_is_refused(seed in any::<u64>(), keep in any::<u64>()) {
        let payload: Vec<u8> = (0..64).map(|i| (seed as u8).wrapping_mul(i)).collect();
        let sealed = checkpoint::seal(seed, 7, 1_000_000, 3, 42, &payload);
        let keep = (keep % sealed.len() as u64) as usize; // strictly shorter than full
        prop_assert!(matches!(
            checkpoint::inspect(&sealed[..keep]),
            Err(CheckpointError::Corrupt(_))
        ));
    }
}
