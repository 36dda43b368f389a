//! The interface (transmit) queue.
//!
//! A bounded DropTail FIFO. Occupancy is the primary cross-layer load signal
//! of CNLR, so the queue tracks an exponentially-weighted occupancy average
//! updated at every enqueue/dequeue transition.

use crate::frame::MacSdu;
use std::collections::VecDeque;

/// Bounded FIFO with occupancy statistics and an optional control-priority
/// band (the `PriQueue` of ns-2's AODV: routing control frames jump ahead
/// of data so discovery is not starved by full data queues).
#[derive(Clone, Debug)]
pub struct IfQueue {
    items: VecDeque<MacSdu>,
    prio: VecDeque<MacSdu>,
    priority_enabled: bool,
    capacity: usize,
    /// EWMA of occupancy (in frames), updated per transition.
    occupancy_ewma: f64,
    alpha: f64,
    /// Highest occupancy ever observed.
    peak: usize,
}

impl IfQueue {
    /// Create a queue holding at most `capacity` frames (single band).
    pub fn new(capacity: usize) -> Self {
        Self::with_priority(capacity, false)
    }

    /// Create a queue with the control-priority band enabled or not.
    pub fn with_priority(capacity: usize, priority_enabled: bool) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        IfQueue {
            // Lazy backing storage: most nodes in a large network idle at
            // zero occupancy, so pre-reserving `capacity` slots per node
            // would dominate per-node memory at the 10k-node scale.
            items: VecDeque::new(),
            prio: VecDeque::new(),
            priority_enabled,
            capacity,
            occupancy_ewma: 0.0,
            alpha: 0.05,
            peak: 0,
        }
    }

    /// Try to append `sdu`; returns `false` when full (the MAC counts the
    /// drop in `MacStats::drops_queue_full`).
    pub fn push(&mut self, sdu: MacSdu) -> bool {
        if self.len() >= self.capacity {
            self.sample();
            return false;
        }
        if self.priority_enabled && sdu.priority {
            self.prio.push_back(sdu);
        } else {
            self.items.push_back(sdu);
        }
        self.peak = self.peak.max(self.len());
        self.sample();
        true
    }

    /// Remove the head frame (priority band first when enabled).
    pub fn pop(&mut self) -> Option<MacSdu> {
        let out = self.prio.pop_front().or_else(|| self.items.pop_front());
        self.sample();
        out
    }

    /// Current length (both bands).
    pub fn len(&self) -> usize {
        self.items.len() + self.prio.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty() && self.prio.is_empty()
    }

    /// Capacity in frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Instantaneous utilisation in `[0, 1]`.
    pub fn utilisation(&self) -> f64 {
        self.len() as f64 / self.capacity as f64
    }

    /// Smoothed utilisation in `[0, 1]` — the CNLR queue-load signal.
    pub fn utilisation_ewma(&self) -> f64 {
        self.occupancy_ewma / self.capacity as f64
    }

    /// Highest occupancy ever observed.
    pub fn peak(&self) -> usize {
        self.peak
    }

    fn sample(&mut self) {
        self.occupancy_ewma =
            self.alpha * self.len() as f64 + (1.0 - self.alpha) * self.occupancy_ewma;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::MacAddr;

    fn sdu(id: u64) -> MacSdu {
        MacSdu {
            id,
            dst: MacAddr(1),
            bytes: 100,
            priority: false,
        }
    }

    fn ctl(id: u64) -> MacSdu {
        MacSdu {
            id,
            dst: MacAddr(1),
            bytes: 32,
            priority: true,
        }
    }

    #[test]
    fn priority_band_jumps_queue_when_enabled() {
        let mut q = IfQueue::with_priority(8, true);
        q.push(sdu(1));
        q.push(sdu(2));
        q.push(ctl(10));
        q.push(sdu(3));
        q.push(ctl(11));
        // Control SDUs first (in their own FIFO order), then data.
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|s| s.id)).collect();
        assert_eq!(order, vec![10, 11, 1, 2, 3]);
    }

    #[test]
    fn priority_flag_ignored_when_disabled() {
        let mut q = IfQueue::new(8);
        q.push(sdu(1));
        q.push(ctl(10));
        q.push(sdu(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|s| s.id)).collect();
        assert_eq!(order, vec![1, 10, 2]);
    }

    #[test]
    fn capacity_shared_across_bands() {
        let mut q = IfQueue::with_priority(2, true);
        assert!(q.push(sdu(1)));
        assert!(q.push(ctl(2)));
        assert!(!q.push(ctl(3)), "capacity is shared");
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn fifo_order() {
        let mut q = IfQueue::new(4);
        assert!(q.push(sdu(1)));
        assert!(q.push(sdu(2)));
        assert_eq!(q.pop().unwrap().id, 1);
        assert_eq!(q.pop().unwrap().id, 2);
        assert!(q.pop().is_none());
    }

    #[test]
    fn drop_tail_when_full() {
        let mut q = IfQueue::new(2);
        assert!(q.push(sdu(1)));
        assert!(q.push(sdu(2)));
        assert!(!q.push(sdu(3)), "a full queue refuses the push");
        assert_eq!(q.len(), 2);
        // The survivor set is the oldest frames (tail drop).
        assert_eq!(q.pop().unwrap().id, 1);
    }

    #[test]
    fn utilisation_tracks_len() {
        let mut q = IfQueue::new(10);
        assert_eq!(q.utilisation(), 0.0);
        for i in 0..5 {
            q.push(sdu(i));
        }
        assert!((q.utilisation() - 0.5).abs() < 1e-12);
        assert_eq!(q.peak(), 5);
    }

    #[test]
    fn ewma_converges_towards_steady_state() {
        let mut q = IfQueue::new(10);
        for i in 0..8 {
            q.push(sdu(i));
        }
        // Hold at 8 frames: pop one, push one, repeatedly.
        for _ in 0..200 {
            q.pop();
            q.push(sdu(99));
        }
        assert!(
            (q.utilisation_ewma() - 0.8).abs() < 0.05,
            "{}",
            q.utilisation_ewma()
        );
    }

    #[test]
    fn ewma_decays_when_drained() {
        let mut q = IfQueue::new(10);
        for i in 0..10 {
            q.push(sdu(i));
        }
        while q.pop().is_some() {}
        let after_drain = q.utilisation_ewma();
        // Sample repeatedly while empty: EWMA decays towards zero.
        for _ in 0..100 {
            q.pop();
        }
        assert!(q.utilisation_ewma() < after_drain);
        assert!(q.utilisation_ewma() < 0.05);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        IfQueue::new(0);
    }
}
