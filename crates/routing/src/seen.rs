//! Duplicate-RREQ bookkeeping.
//!
//! Every broadcast scheme needs to know whether an RREQ was seen before;
//! counter-based schemes additionally need *how many* copies arrived during
//! the random assessment delay.

use crate::packet::RreqKey;
use wmn_sim::{IdMap, SimDuration, SimTime};

/// Per-RREQ reception record.
#[derive(Clone, Copy, Debug)]
pub struct SeenEntry {
    /// First reception time.
    pub first_seen: SimTime,
    /// Copies received (including the first).
    pub copies: u32,
    /// Whether this node has already transmitted (or irrevocably decided
    /// not to transmit) this RREQ.
    pub resolved: bool,
}

/// Bounded-lifetime duplicate cache.
#[derive(Clone, Debug)]
pub struct SeenCache {
    entries: IdMap<RreqKey, SeenEntry>,
    lifetime: SimDuration,
}

impl SeenCache {
    /// Entries are forgotten `lifetime` after first reception (must exceed
    /// the network traversal time of an RREQ, per RFC 3561's
    /// `PATH_DISCOVERY_TIME`).
    pub fn new(lifetime: SimDuration) -> Self {
        SeenCache {
            entries: IdMap::default(),
            lifetime,
        }
    }

    /// Record a reception; returns the number of copies seen *before* this
    /// one (0 ⇒ first copy).
    pub fn record(&mut self, key: RreqKey, now: SimTime) -> u32 {
        let e = self.entries.entry(key).or_insert(SeenEntry {
            first_seen: now,
            copies: 0,
            resolved: false,
        });
        let before = e.copies;
        e.copies += 1;
        before
    }

    /// Copies observed so far.
    pub fn copies(&self, key: RreqKey) -> u32 {
        self.entries.get(&key).map_or(0, |e| e.copies)
    }

    /// Mark the forwarding decision for `key` as final.
    pub fn resolve(&mut self, key: RreqKey) {
        if let Some(e) = self.entries.get_mut(&key) {
            e.resolved = true;
        }
    }

    /// Whether the decision for `key` is final.
    pub fn is_resolved(&self, key: RreqKey) -> bool {
        self.entries.get(&key).is_some_and(|e| e.resolved)
    }

    /// Drop entries older than the lifetime. Returns removed count.
    pub fn sweep(&mut self, now: SimTime) -> usize {
        let lifetime = self.lifetime;
        let before = self.entries.len();
        self.entries
            .retain(|_, e| now.since(e.first_seen) < lifetime);
        before - self.entries.len()
    }

    /// Current number of tracked RREQs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::NodeId;

    fn key(id: u32) -> RreqKey {
        RreqKey {
            origin: NodeId(1),
            id,
        }
    }

    #[test]
    fn first_copy_returns_zero() {
        let mut c = SeenCache::new(SimDuration::from_secs(5));
        assert_eq!(c.record(key(1), SimTime::ZERO), 0);
        assert_eq!(c.record(key(1), SimTime::ZERO), 1);
        assert_eq!(c.record(key(1), SimTime::ZERO), 2);
        assert_eq!(c.copies(key(1)), 3);
        assert_eq!(c.copies(key(2)), 0);
    }

    #[test]
    fn resolution_flag() {
        let mut c = SeenCache::new(SimDuration::from_secs(5));
        c.record(key(1), SimTime::ZERO);
        assert!(!c.is_resolved(key(1)));
        c.resolve(key(1));
        assert!(c.is_resolved(key(1)));
        assert!(!c.is_resolved(key(2)));
    }

    #[test]
    fn sweep_by_first_seen() {
        let mut c = SeenCache::new(SimDuration::from_secs(5));
        c.record(key(1), SimTime::from_secs(0));
        c.record(key(2), SimTime::from_secs(4));
        // A late duplicate does not rejuvenate the entry.
        c.record(key(1), SimTime::from_secs(4));
        assert_eq!(c.sweep(SimTime::from_secs(6)), 1);
        assert_eq!(c.copies(key(1)), 0);
        assert_eq!(c.copies(key(2)), 1);
        assert!(!c.is_empty());
    }

    #[test]
    fn distinct_origins_are_distinct_keys() {
        let mut c = SeenCache::new(SimDuration::from_secs(5));
        let a = RreqKey {
            origin: NodeId(1),
            id: 7,
        };
        let b = RreqKey {
            origin: NodeId(2),
            id: 7,
        };
        c.record(a, SimTime::ZERO);
        assert_eq!(c.copies(b), 0);
    }
}
