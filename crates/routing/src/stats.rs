//! Routing-layer counters feeding the evaluation figures.
//!
//! One `counter_set!` table: each counter's registry name is its field
//! name (the set has no prefix). Drops are counted once, by the network,
//! under `wmn_telemetry::DropReason`; the `data_dropped_*` fields here are
//! the routing layer's own view of the same losses.

wmn_telemetry::counter_set! {
    /// Lifetime per-node routing counters.
    pub struct RoutingStats: "" {
        /// Discoveries this node originated (including retries).
        rreq_originated,
        /// RREQs this node rebroadcast.
        rreq_forwarded,
        /// RREQ copies received (all copies).
        rreq_received,
        /// First-copy RREQs the policy decided to suppress.
        rreq_suppressed,
        /// Duplicate RREQ copies (never forwarded).
        rreq_duplicates,
        /// RREPs generated as discovery target.
        rrep_generated,
        /// RREPs forwarded towards an origin.
        rrep_forwarded,
        /// RREPs dropped for lack of a reverse route.
        rrep_dropped,
        /// RERR packets sent.
        rerr_sent,
        /// HELLO beacons sent.
        hello_sent,
        /// Data packets forwarded for other nodes.
        data_forwarded,
        /// Data packets delivered to the local application.
        data_delivered,
        /// Data packets originated by the local application.
        data_originated,
        /// Data dropped: no route at an intermediate node.
        data_dropped_no_route,
        /// Data dropped: discovery ultimately failed.
        data_dropped_discovery,
        /// Data dropped: discovery buffer overflow.
        data_dropped_buffer,
        /// Data dropped: link-level failure mid-path.
        data_dropped_link,
        /// Discoveries begun (unique targets, not retries).
        discoveries_started,
        /// Discoveries that produced a route.
        discoveries_succeeded,
        /// Discoveries abandoned after all retries.
        discoveries_failed,
    }
}

impl RoutingStats {
    /// Total control packets transmitted by this node
    /// (RREQ + RREP + RERR + HELLO).
    pub fn control_tx(&self) -> u64 {
        self.rreq_originated
            + self.rreq_forwarded
            + self.rrep_generated
            + self.rrep_forwarded
            + self.rerr_sent
            + self.hello_sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_total() {
        let s = RoutingStats {
            rreq_originated: 2,
            rreq_forwarded: 10,
            rrep_generated: 1,
            rrep_forwarded: 3,
            rerr_sent: 1,
            hello_sent: 20,
            ..Default::default()
        };
        assert_eq!(s.control_tx(), 37);
    }

    #[test]
    fn visit_covers_every_field() {
        // `visit` must export each of the 20 counters exactly once, with
        // distinct names, and the values must match the struct fields.
        let mut s = RoutingStats::default();
        let mut names = Vec::new();
        s.visit(&mut |n, _| names.push(n));
        assert_eq!(names.len(), 20);
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate counter names");
        s.rreq_forwarded = 3;
        s.discoveries_failed = 9;
        let mut seen = std::collections::HashMap::new();
        s.visit(&mut |n, v| {
            seen.insert(n, v);
        });
        assert_eq!(seen["rreq_forwarded"], 3);
        assert_eq!(seen["discoveries_failed"], 9);
    }

    #[test]
    fn accumulate_sums() {
        let mut a = RoutingStats {
            rreq_forwarded: 5,
            data_delivered: 7,
            ..Default::default()
        };
        let b = RoutingStats {
            rreq_forwarded: 3,
            data_delivered: 2,
            ..Default::default()
        };
        a.accumulate(&b);
        assert_eq!(a.rreq_forwarded, 8);
        assert_eq!(a.data_delivered, 9);
    }
}
