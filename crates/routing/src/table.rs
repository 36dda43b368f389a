//! The route table (AODV-style, with a scheme-defined route cost).

use crate::addr::NodeId;
use wmn_sim::{IdMap, SimDuration, SimTime};

/// One forwarding entry.
#[derive(Clone, Debug)]
pub struct RouteEntry {
    /// Next hop towards the destination.
    pub next_hop: NodeId,
    /// Hop count to the destination.
    pub hop_count: u8,
    /// Destination sequence number.
    pub seq: u32,
    /// Scheme cost (hop count for baselines; load-weighted for CNLR).
    /// Lower is better.
    pub cost: f64,
    /// Entry expiry (refreshed on use).
    pub expires: SimTime,
    /// False after a link break until re-discovered.
    pub valid: bool,
}

// Route tables are the full stack's largest structure (157 k entries at
// 2 500 routers): a bucket holds what forwarding reads and nothing else.
const _: () = assert!(std::mem::size_of::<(NodeId, RouteEntry)>() <= 40);

/// A node's route table.
#[derive(Clone, Debug, Default)]
pub struct RouteTable {
    entries: IdMap<NodeId, RouteEntry>,
}

/// Outcome of a table update offer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateOutcome {
    /// New or strictly fresher/cheaper route installed.
    Installed,
    /// Existing route kept (offer not better); lifetime still refreshed.
    Kept,
}

impl RouteTable {
    /// Empty table.
    pub fn new() -> Self {
        RouteTable {
            entries: IdMap::default(),
        }
    }

    /// Look up a currently valid, unexpired route.
    pub fn valid_route(&self, dst: NodeId, now: SimTime) -> Option<&RouteEntry> {
        self.entries
            .get(&dst)
            .filter(|e| e.valid && e.expires > now)
    }

    /// Look up regardless of validity (e.g. for sequence numbers in RERRs).
    pub fn any_entry(&self, dst: NodeId) -> Option<&RouteEntry> {
        self.entries.get(&dst)
    }

    /// Offer a route learned from a RREQ/RREP/data overheard. AODV rules:
    /// install when (a) no entry, (b) strictly newer `seq`, or (c) same
    /// `seq` and strictly lower `cost`. An invalid entry is always replaced.
    #[allow(clippy::too_many_arguments)]
    pub fn offer(
        &mut self,
        dst: NodeId,
        next_hop: NodeId,
        hop_count: u8,
        seq: u32,
        cost: f64,
        lifetime: SimDuration,
        now: SimTime,
    ) -> UpdateOutcome {
        let expires = now + lifetime;
        match self.entries.get_mut(&dst) {
            None => {
                self.entries.insert(
                    dst,
                    RouteEntry {
                        next_hop,
                        hop_count,
                        seq,
                        cost,
                        expires,
                        valid: true,
                    },
                );
                UpdateOutcome::Installed
            }
            Some(e) => {
                let better = !e.valid || seq_newer(seq, e.seq) || (seq == e.seq && cost < e.cost);
                if better {
                    e.next_hop = next_hop;
                    e.hop_count = hop_count;
                    e.seq = seq;
                    e.cost = cost;
                    e.valid = true;
                    e.expires = e.expires.max(expires);
                    UpdateOutcome::Installed
                } else {
                    e.expires = e.expires.max(expires);
                    UpdateOutcome::Kept
                }
            }
        }
    }

    /// Extend the lifetime of an active route (called on each use).
    pub fn refresh(&mut self, dst: NodeId, lifetime: SimDuration, now: SimTime) {
        if let Some(e) = self.entries.get_mut(&dst) {
            e.expires = e.expires.max(now + lifetime);
        }
    }

    /// Invalidate every route whose next hop is `via`; returns the affected
    /// `(destination, bumped seq)` pairs for RERR generation.
    pub fn break_link(&mut self, via: NodeId) -> Vec<(NodeId, u32)> {
        let mut broken = Vec::new();
        for (&dst, e) in self.entries.iter_mut() {
            if e.valid && e.next_hop == via {
                e.valid = false;
                e.seq = e.seq.wrapping_add(1); // per AODV: bump on break
                broken.push((dst, e.seq));
            }
        }
        broken.sort_unstable_by_key(|&(d, _)| d);
        broken
    }

    /// Invalidate a specific destination if currently routed via `via`.
    /// Returns the bumped seq when invalidated.
    pub fn invalidate(&mut self, dst: NodeId, via: NodeId) -> Option<u32> {
        let e = self.entries.get_mut(&dst)?;
        if e.valid && e.next_hop == via {
            e.valid = false;
            e.seq = e.seq.wrapping_add(1);
            Some(e.seq)
        } else {
            None
        }
    }

    /// Remove entries expired before `now`; returns how many were removed.
    pub fn sweep(&mut self, now: SimTime) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, e| e.expires > now);
        before - self.entries.len()
    }

    /// Number of entries (any state).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over all entries.
    pub fn iter(&self) -> impl Iterator<Item = (&NodeId, &RouteEntry)> {
        self.entries.iter()
    }
}

/// Sequence-number comparison with wrap-around (RFC 3561 §10: signed
/// 32-bit difference).
pub fn seq_newer(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) > 0
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIFE: SimDuration = SimDuration(3_000_000_000);

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn install_and_lookup() {
        let mut rt = RouteTable::new();
        assert!(rt.valid_route(NodeId(9), t(0)).is_none());
        let out = rt.offer(NodeId(9), NodeId(1), 3, 10, 3.0, LIFE, t(0));
        assert_eq!(out, UpdateOutcome::Installed);
        let e = rt.valid_route(NodeId(9), t(1)).unwrap();
        assert_eq!(e.next_hop, NodeId(1));
        assert_eq!(e.hop_count, 3);
    }

    #[test]
    fn expiry_hides_routes_and_sweep_removes() {
        let mut rt = RouteTable::new();
        rt.offer(NodeId(9), NodeId(1), 3, 10, 3.0, LIFE, t(0));
        assert!(rt.valid_route(NodeId(9), t(2)).is_some());
        assert!(rt.valid_route(NodeId(9), t(4)).is_none());
        assert_eq!(rt.sweep(t(4)), 1);
        assert!(rt.is_empty());
    }

    #[test]
    fn newer_seq_replaces_even_if_costlier() {
        let mut rt = RouteTable::new();
        rt.offer(NodeId(9), NodeId(1), 2, 10, 2.0, LIFE, t(0));
        let out = rt.offer(NodeId(9), NodeId(2), 5, 11, 5.0, LIFE, t(0));
        assert_eq!(out, UpdateOutcome::Installed);
        assert_eq!(rt.valid_route(NodeId(9), t(1)).unwrap().next_hop, NodeId(2));
    }

    #[test]
    fn same_seq_requires_lower_cost() {
        let mut rt = RouteTable::new();
        rt.offer(NodeId(9), NodeId(1), 2, 10, 2.0, LIFE, t(0));
        let kept = rt.offer(NodeId(9), NodeId(2), 3, 10, 3.0, LIFE, t(0));
        assert_eq!(kept, UpdateOutcome::Kept);
        assert_eq!(rt.valid_route(NodeId(9), t(1)).unwrap().next_hop, NodeId(1));
        let swapped = rt.offer(NodeId(9), NodeId(3), 1, 10, 1.0, LIFE, t(0));
        assert_eq!(swapped, UpdateOutcome::Installed);
        assert_eq!(rt.valid_route(NodeId(9), t(1)).unwrap().next_hop, NodeId(3));
    }

    #[test]
    fn stale_seq_is_rejected_but_refreshes_lifetime() {
        let mut rt = RouteTable::new();
        rt.offer(NodeId(9), NodeId(1), 2, 10, 2.0, LIFE, t(0));
        let out = rt.offer(NodeId(9), NodeId(2), 1, 9, 1.0, LIFE, t(2));
        assert_eq!(out, UpdateOutcome::Kept);
        // Lifetime extended to t(2) + 3 s = t(5).
        assert!(rt.valid_route(NodeId(9), t(4)).is_some());
        assert_eq!(rt.valid_route(NodeId(9), t(4)).unwrap().next_hop, NodeId(1));
    }

    #[test]
    fn break_link_invalidates_and_bumps_seq() {
        let mut rt = RouteTable::new();
        rt.offer(NodeId(9), NodeId(1), 2, 10, 2.0, LIFE, t(0));
        rt.offer(NodeId(8), NodeId(1), 4, 6, 4.0, LIFE, t(0));
        rt.offer(NodeId(7), NodeId(2), 1, 3, 1.0, LIFE, t(0));
        let broken = rt.break_link(NodeId(1));
        assert_eq!(broken, vec![(NodeId(8), 7), (NodeId(9), 11)]);
        assert!(rt.valid_route(NodeId(9), t(1)).is_none());
        assert!(rt.valid_route(NodeId(7), t(1)).is_some());
        // An invalid entry is replaced by any fresh offer.
        let out = rt.offer(NodeId(9), NodeId(3), 6, 11, 6.0, LIFE, t(1));
        assert_eq!(out, UpdateOutcome::Installed);
        assert!(rt.valid_route(NodeId(9), t(2)).is_some());
    }

    #[test]
    fn invalidate_specific() {
        let mut rt = RouteTable::new();
        rt.offer(NodeId(9), NodeId(1), 2, 10, 2.0, LIFE, t(0));
        assert_eq!(rt.invalidate(NodeId(9), NodeId(2)), None); // wrong via
        assert_eq!(rt.invalidate(NodeId(9), NodeId(1)), Some(11));
        assert_eq!(rt.invalidate(NodeId(9), NodeId(1)), None); // already invalid
    }

    #[test]
    fn seq_comparison_wraps() {
        assert!(seq_newer(11, 10));
        assert!(!seq_newer(10, 10));
        assert!(!seq_newer(9, 10));
        assert!(seq_newer(1, u32::MAX)); // wrap-around
        assert!(!seq_newer(u32::MAX, 1));
    }
}
