//! Property-based tests of the MAC layer.

use proptest::prelude::*;
use wmn_mac::{
    DropReason, FrameKind, IfQueue, Mac, MacAction, MacAddr, MacFrame, MacParams, MacSdu,
    TimerKind, BROADCAST,
};
use wmn_sim::{SimRng, SimTime};

proptest! {
    /// The interface queue never exceeds capacity and preserves FIFO order
    /// under arbitrary push/pop interleavings.
    #[test]
    fn queue_capacity_and_fifo(
        cap in 1usize..32,
        ops in prop::collection::vec(any::<bool>(), 0..200),
    ) {
        let mut q = IfQueue::new(cap);
        let mut model: std::collections::VecDeque<u64> = Default::default();
        let mut next_id = 0u64;
        for push in ops {
            if push {
                let sdu = MacSdu { id: next_id, dst: BROADCAST, bytes: 100, priority: false };
                let accepted = q.push(sdu);
                if model.len() < cap {
                    prop_assert!(accepted);
                    model.push_back(next_id);
                } else {
                    prop_assert!(!accepted);
                }
                next_id += 1;
            } else {
                let got = q.pop().map(|s| s.id);
                prop_assert_eq!(got, model.pop_front());
            }
            prop_assert!(q.len() <= cap);
            prop_assert_eq!(q.len(), model.len());
            prop_assert!((0.0..=1.0).contains(&q.utilisation_ewma()));
        }
    }

    /// Contention-window doubling saturates at cw_max for any start.
    #[test]
    fn cw_saturates(start in 1u32..2048) {
        let p = MacParams::default();
        let mut cw = start.min(p.cw_max);
        for _ in 0..20 {
            cw = p.next_cw(cw);
            prop_assert!(cw <= p.cw_max);
        }
        prop_assert_eq!(cw, p.cw_max);
    }

    /// Fuzz the MAC state machine with random event sequences: it must
    /// never panic, and every StartTx must occur while a previous own
    /// transmission is not in flight.
    #[test]
    fn mac_state_machine_fuzz(seed in any::<u64>(), script in prop::collection::vec(0u8..6, 1..120)) {
        let mut mac = Mac::new(MacAddr(0), MacParams::default(), SimRng::new(seed));
        let mut rng = SimRng::new(seed ^ 0xF00D);
        let mut out = Vec::new();
        let mut now = SimTime::ZERO;
        let mut transmitting = false;
        let mut pending_timers: Vec<(TimerKind, u64, SimTime)> = Vec::new();
        let mut sdu_id = 1u64;
        for op in script {
            now = SimTime(now.as_nanos() + 1 + rng.below(50_000));
            out.clear();
            match op {
                0 => {
                    let dst = if rng.chance(0.5) { BROADCAST } else { MacAddr(rng.below(4) as u32 + 1) };
                    mac.enqueue(
                        MacSdu { id: sdu_id, dst, bytes: 256, priority: rng.chance(0.2) },
                        now,
                        &mut out,
                    );
                    sdu_id += 1;
                }
                1 => mac.on_channel(true, now, &mut out),
                2 => mac.on_channel(false, now, &mut out),
                3 => {
                    if transmitting {
                        mac.on_tx_complete(now, &mut out);
                        transmitting = false;
                    }
                }
                4 => {
                    // Fire the EARLIEST pending timer (possibly stale). The
                    // engine contract: timers are delivered in timestamp
                    // order and never before their scheduled instant.
                    if !pending_timers.is_empty() {
                        let i = pending_timers
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, &(_, _, at))| at)
                            .map(|(i, _)| i)
                            .expect("nonempty");
                        let (kind, gen, at) = pending_timers.swap_remove(i);
                        now = now.max(at);
                        mac.on_timer(kind, gen, now, &mut out);
                    }
                }
                _ => {
                    let kind = match rng.below(4) {
                        0 => wmn_mac::FrameKind::Ack,
                        1 => wmn_mac::FrameKind::Rts,
                        2 => wmn_mac::FrameKind::Cts,
                        _ => wmn_mac::FrameKind::Data,
                    };
                    let frame = wmn_mac::MacFrame {
                        kind,
                        src: MacAddr(rng.below(4) as u32 + 1),
                        dst: if rng.chance(0.4) {
                            MacAddr(0)
                        } else if rng.chance(0.5) {
                            BROADCAST
                        } else {
                            MacAddr(rng.below(4) as u32 + 1)
                        },
                        air_bytes: 64,
                        sdu_id: rng.below(32),
                        nav_us: rng.below(3_000) as u32,
                    };
                    if !transmitting {
                        mac.on_rx_frame(frame, now, &mut out);
                    }
                }
            }
            for a in &out {
                match a {
                    MacAction::StartTx(_) => {
                        prop_assert!(!transmitting, "double transmit");
                        transmitting = true;
                    }
                    MacAction::SetTimer { kind, at, gen } => {
                        prop_assert!(*at >= now, "timer in the past");
                        pending_timers.push((*kind, *gen, *at));
                    }
                    MacAction::Drop { reason, .. } => {
                        prop_assert!(matches!(
                            reason,
                            DropReason::QueueFull | DropReason::RetryLimit
                        ));
                    }
                    _ => {}
                }
            }
        }
    }

    /// Duplicate suppression is a ring of the last 32 delivered
    /// `(src, sdu_id)` keys: a frame goes up iff its key is not among them.
    /// Few sources and a small id pool make repeats, one source under many
    /// ids, and wrap-around (well over 32 distinct keys) all common;
    /// `u64::MAX` is in the pool because the ring's empty slots hold
    /// `(BROADCAST, u64::MAX)`, which must match no frame a node can send.
    #[test]
    fn dedup_ring_is_the_last_32_delivered_keys(
        frames in prop::collection::vec((1u32..5, 0u64..24, any::<bool>()), 0..600),
    ) {
        let mut mac = Mac::new(MacAddr(0), MacParams::default(), SimRng::new(1));
        let mut model: std::collections::VecDeque<(MacAddr, u64)> = Default::default();
        let mut suppressed = 0;
        let mut out = Vec::new();
        for (i, (src, id, to_me)) in frames.into_iter().enumerate() {
            let frame = MacFrame {
                kind: FrameKind::Data,
                src: MacAddr(src),
                dst: if to_me { MacAddr(0) } else { BROADCAST },
                air_bytes: 100,
                sdu_id: if id == 23 { u64::MAX } else { id * (src as u64 % 2 + 1) },
                nav_us: 0,
            };
            out.clear();
            mac.on_rx_frame(frame, SimTime::from_millis(i as u64), &mut out);
            let delivered = out.iter().any(|a| matches!(a, MacAction::Deliver(f) if *f == frame));
            let key = (frame.src, frame.sdu_id);
            prop_assert_eq!(delivered, !model.contains(&key), "frame {} {:?}", i, key);
            if delivered {
                model.push_back(key);
                if model.len() > 32 {
                    model.pop_front();
                }
            } else {
                suppressed += 1;
            }
            prop_assert_eq!(mac.stats().duplicates_suppressed, suppressed);
        }
    }
}
