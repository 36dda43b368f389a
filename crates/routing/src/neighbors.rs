//! The HELLO-maintained neighbour table.
//!
//! This is where the "neighbourhood" of *Neighbourhood Load Routing* lives:
//! each entry stores the neighbour's latest [`LoadDigest`] and velocity, so a
//! node can compute the aggregated neighbourhood load CNLR keys its
//! forwarding probability on.

use crate::addr::NodeId;
use wmn_mac::LoadDigest;
use wmn_sim::{SimDuration, SimTime};

/// Per-neighbour state.
#[derive(Clone, Copy, Debug)]
pub struct Neighbor {
    /// Last time any packet was heard from this neighbour.
    pub last_heard: SimTime,
    /// Their advertised load digest.
    pub load: LoadDigest,
    /// Their advertised velocity, m/s.
    pub velocity: (f64, f64),
}

/// The 1-hop neighbour table: a mesh node has about a dozen neighbours, so
/// the table is two parallel vectors sorted by id. A lookup searches a
/// cache line of 4-byte keys, and every pass visits neighbours in
/// ascending-id order — an `f64` sum depends on its order, so a load mean
/// is a function of the table's contents alone.
#[derive(Clone, Debug)]
pub struct NeighborTable {
    ids: Vec<NodeId>,
    /// `nbrs[i]` is the state of neighbour `ids[i]`.
    nbrs: Vec<Neighbor>,
    timeout: SimDuration,
}

impl NeighborTable {
    /// Neighbours not heard for `timeout` are considered gone (canonically
    /// `ALLOWED_HELLO_LOSS × hello_interval`).
    pub fn new(timeout: SimDuration) -> Self {
        NeighborTable {
            ids: Vec::new(),
            nbrs: Vec::new(),
            timeout,
        }
    }

    fn is_live(&self, nb: &Neighbor, now: SimTime) -> bool {
        now.since(nb.last_heard) < self.timeout
    }

    /// Record a HELLO (full update).
    pub fn heard_hello(
        &mut self,
        from: NodeId,
        load: LoadDigest,
        velocity: (f64, f64),
        now: SimTime,
    ) {
        let nb = Neighbor {
            last_heard: now,
            load,
            velocity,
        };
        match self.ids.binary_search(&from) {
            Ok(at) => self.nbrs[at] = nb,
            Err(at) => {
                self.ids.insert(at, from);
                self.nbrs.insert(at, nb);
            }
        }
    }

    /// Record that any frame was heard from `from` (refreshes liveness only;
    /// keeps the last digest).
    pub fn heard_any(&mut self, from: NodeId, now: SimTime) {
        match self.ids.binary_search(&from) {
            Ok(at) => self.nbrs[at].last_heard = now,
            Err(_) => self.heard_hello(from, LoadDigest::default(), (0.0, 0.0), now),
        }
    }

    /// Look up a live neighbour.
    pub fn get(&self, id: NodeId, now: SimTime) -> Option<&Neighbor> {
        let nb = &self.nbrs[self.ids.binary_search(&id).ok()?];
        self.is_live(nb, now).then_some(nb)
    }

    /// Number of live neighbours.
    pub fn live_count(&self, now: SimTime) -> usize {
        self.iter_live(now).count()
    }

    /// Mean of a neighbour-load statistic over live neighbours, summed in
    /// ascending-id order, or `None` when there are none.
    pub fn mean_neighbor_load<F: Fn(&LoadDigest) -> f64>(&self, now: SimTime, f: F) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for (_, nb) in self.iter_live(now) {
            sum += f(&nb.load);
            n += 1;
        }
        (n > 0).then(|| sum / n as f64)
    }

    /// Remove timed-out neighbours, returning their ids in ascending order
    /// (treated as broken links by the caller).
    pub fn sweep(&mut self, now: SimTime) -> Vec<NodeId> {
        let mut gone = Vec::new();
        let mut kept = 0;
        for i in 0..self.ids.len() {
            if self.is_live(&self.nbrs[i], now) {
                self.ids[kept] = self.ids[i];
                self.nbrs[kept] = self.nbrs[i];
                kept += 1;
            } else {
                gone.push(self.ids[i]);
            }
        }
        self.ids.truncate(kept);
        self.nbrs.truncate(kept);
        gone
    }

    /// Iterate live neighbours in ascending-id order.
    pub fn iter_live(&self, now: SimTime) -> impl Iterator<Item = (&NodeId, &Neighbor)> {
        self.ids
            .iter()
            .zip(&self.nbrs)
            .filter(move |(_, nb)| self.is_live(nb, now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn digest(q: f64) -> LoadDigest {
        LoadDigest {
            queue_util: q,
            busy_ratio: q,
            mac_service_s: 0.0,
        }
    }

    #[test]
    fn hello_installs_and_expires() {
        let mut nt = NeighborTable::new(SimDuration::from_secs(3));
        nt.heard_hello(NodeId(1), digest(0.5), (1.0, 0.0), t(0));
        assert!(nt.get(NodeId(1), t(2)).is_some());
        assert!(nt.get(NodeId(1), t(3)).is_none());
        assert_eq!(nt.live_count(t(2)), 1);
        assert_eq!(nt.live_count(t(3)), 0);
    }

    #[test]
    fn heard_any_refreshes_without_clobbering_digest() {
        let mut nt = NeighborTable::new(SimDuration::from_secs(3));
        nt.heard_hello(NodeId(1), digest(0.7), (0.0, 0.0), t(0));
        nt.heard_any(NodeId(1), t(2));
        let n = nt.get(NodeId(1), t(4)).expect("still live");
        assert_eq!(n.load.queue_util, 0.7);
        assert_eq!(n.last_heard, t(2));
    }

    #[test]
    fn heard_any_creates_default_entry() {
        let mut nt = NeighborTable::new(SimDuration::from_secs(3));
        nt.heard_any(NodeId(2), t(1));
        let n = nt.get(NodeId(2), t(2)).unwrap();
        assert_eq!(n.load.queue_util, 0.0);
    }

    #[test]
    fn mean_load_over_live_only() {
        let mut nt = NeighborTable::new(SimDuration::from_secs(3));
        nt.heard_hello(NodeId(1), digest(0.2), (0.0, 0.0), t(0));
        nt.heard_hello(NodeId(2), digest(0.6), (0.0, 0.0), t(5));
        // At t = 6, node 1 is stale; only node 2 counts.
        let m = nt.mean_neighbor_load(t(6), |d| d.queue_util).unwrap();
        assert!((m - 0.6).abs() < 1e-12);
        // At t = 1 both alive → mean 0.4... only node1 exists then (node2
        // heard at t=5). Check empty case too.
        let empty = NeighborTable::new(SimDuration::from_secs(3));
        assert!(empty.mean_neighbor_load(t(0), |d| d.queue_util).is_none());
    }

    #[test]
    fn sweep_returns_departed() {
        let mut nt = NeighborTable::new(SimDuration::from_secs(3));
        nt.heard_hello(NodeId(1), digest(0.1), (0.0, 0.0), t(0));
        nt.heard_hello(NodeId(2), digest(0.1), (0.0, 0.0), t(4));
        let gone = nt.sweep(t(5));
        assert_eq!(gone, vec![NodeId(1)]);
        assert_eq!(nt.live_count(t(5)), 1);
        assert!(nt.sweep(t(5)).is_empty());
    }

    #[test]
    fn iter_live_filters() {
        let mut nt = NeighborTable::new(SimDuration::from_secs(3));
        nt.heard_hello(NodeId(1), digest(0.1), (0.0, 0.0), t(0));
        nt.heard_hello(NodeId(2), digest(0.1), (0.0, 0.0), t(4));
        let live: Vec<NodeId> = nt.iter_live(t(5)).map(|(&id, _)| id).collect();
        assert_eq!(live, vec![NodeId(2)]);
    }
}
