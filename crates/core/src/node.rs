//! The per-node protocol stack: MAC + routing + mobility + payload store.

use std::sync::Arc;
use wmn_mac::{Mac, MacAddr, MacParams, MacSdu, MacStats};
use wmn_mobility::{Mobility, MobilityConfig};
use wmn_routing::{
    CrossLayer, NodeId, Packet, RebroadcastPolicy, Routing, RoutingConfig, RoutingStats,
};
use wmn_sim::{IdMap, SimRng, SimTime};
use wmn_topology::{Region, Vec2};

/// RNG stream domains (one per layer, so layer refactors don't shift other
/// layers' draws).
pub mod rng_domain {
    /// MAC backoff draws.
    pub const MAC: u64 = 1;
    /// Routing jitter/policy draws.
    pub const ROUTING: u64 = 2;
    /// Mobility draws.
    pub const MOBILITY: u64 = 3;
    /// Medium (PER) draws.
    pub const MEDIUM: u64 = 4;
    /// Scenario construction.
    pub const SCENARIO: u64 = 5;
    /// Traffic inter-arrival draws.
    pub const TRAFFIC: u64 = 6;
    // Domain 7 is reserved by `wmn_faults::RNG_DOMAIN_FAULTS` (fault
    // schedules draw their own streams so enabling a model never perturbs
    // the layers above).
}

/// One mesh node's full stack.
pub struct Node {
    /// Network/link address (dense index).
    pub id: u32,
    /// Link layer.
    pub mac: Mac,
    /// Network layer.
    pub routing: Routing,
    /// Motion model.
    pub mobility: Mobility,
    /// Mobility RNG stream.
    pub mobility_rng: SimRng,
    /// Payloads of SDUs currently queued at / in flight through the MAC,
    /// shared with the medium for as long as a copy is on the air.
    pub outgoing: IdMap<u64, Arc<Packet>>,
    /// True while the node is crashed (fault schedule).
    pub down: bool,
    /// Reboot count: 0 for the boot-time stack, bumped on every reboot.
    /// Stale-incarnation timer events are dropped on dispatch.
    pub incarnation: u32,
    /// MAC and routing counters retired by crashes (reboots start a fresh
    /// stack; run totals must still include what the dead incarnations
    /// did). Out of line and filled at the first reboot: most nodes never
    /// crash, and these are 288 B of zeros for them.
    pub retired: Option<Box<(MacStats, RoutingStats)>>,
    next_sdu: u64,
}

// A mesh keeps every router's `Node` in one `Vec` (4.5 MB at 2 500): what
// most nodes never use lives behind a pointer, not inline.
const _: () = assert!(std::mem::size_of::<Node>() <= 1808);

impl Node {
    /// Assemble a node.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: u32,
        master_seed: u64,
        mac_params: MacParams,
        routing_config: RoutingConfig,
        policy: Box<dyn RebroadcastPolicy>,
        mobility_config: MobilityConfig,
        start: Vec2,
        region: Region,
        now: SimTime,
    ) -> Self {
        let mac = Mac::new(
            MacAddr(id),
            mac_params,
            SimRng::derive(master_seed, rng_domain::MAC, id as u64),
        );
        let routing = Routing::new(
            NodeId(id),
            routing_config,
            policy,
            SimRng::derive(master_seed, rng_domain::ROUTING, id as u64),
        );
        let mut mobility_rng = SimRng::derive(master_seed, rng_domain::MOBILITY, id as u64);
        let mobility = Mobility::new(mobility_config, start, region, now, &mut mobility_rng);
        Node {
            id,
            mac,
            routing,
            mobility,
            mobility_rng,
            outgoing: IdMap::default(),
            down: false,
            incarnation: 0,
            retired: None,
            next_sdu: 1,
        }
    }

    /// Restart the protocol stack cold after a crash: fresh MAC and
    /// routing state (empty tables, empty neighbour set) on new RNG
    /// streams salted with the incarnation so a rebooted node never
    /// replays its pre-crash draws. Counters of the dead incarnation are
    /// retired into `retired`; position, mobility state and the SDU-id
    /// counter survive (the node is the same box at the same place — only
    /// its volatile state is lost).
    pub fn reboot(
        &mut self,
        master_seed: u64,
        mac_params: MacParams,
        routing_config: RoutingConfig,
        policy: Box<dyn RebroadcastPolicy>,
    ) {
        self.incarnation += 1;
        let (mac, routing) = &mut **self.retired.get_or_insert_with(Box::default);
        mac.accumulate(self.mac.stats());
        routing.accumulate(self.routing.stats());
        let stream = self.id as u64 | ((self.incarnation as u64) << 32);
        self.mac = Mac::new(
            MacAddr(self.id),
            mac_params,
            SimRng::derive(master_seed, rng_domain::MAC, stream),
        );
        self.routing = Routing::new(
            NodeId(self.id),
            routing_config,
            policy,
            SimRng::derive(master_seed, rng_domain::ROUTING, stream),
        );
        self.outgoing.clear();
        self.down = false;
    }

    /// Build the MAC SDU for `packet` towards link destination `dst`,
    /// remembering the payload for later correlation.
    pub fn make_sdu(&mut self, packet: Packet, dst: MacAddr) -> MacSdu {
        let id = self.next_sdu;
        self.next_sdu += 1;
        let bytes = packet.wire_bytes();
        let priority = !matches!(packet, Packet::Data(_));
        self.outgoing.insert(id, Arc::new(packet));
        MacSdu {
            id,
            dst,
            bytes,
            priority,
        }
    }

    /// Reclaim (and forget) the payload of a completed/dropped SDU.
    pub fn take_payload(&mut self, sdu_id: u64) -> Option<Arc<Packet>> {
        self.outgoing.remove(&sdu_id)
    }

    /// Cross-layer snapshot for the routing layer.
    pub fn cross_layer(&mut self, now: SimTime) -> CrossLayer {
        let v = self.mobility.velocity(now);
        CrossLayer {
            own_load: self.mac.load_digest(now),
            own_velocity: (v.x, v.y),
            last_rx_dbm: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmn_routing::Flooding;

    fn node(id: u32) -> Node {
        Node::new(
            id,
            42,
            MacParams::default(),
            RoutingConfig::default(),
            Box::new(Flooding::new()),
            MobilityConfig::Static,
            Vec2::new(10.0, 10.0),
            Region::square(100.0),
            SimTime::ZERO,
        )
    }

    #[test]
    fn sdu_ids_are_unique_and_payloads_tracked() {
        let mut n = node(0);
        let p1 = Packet::Rerr(wmn_routing::Rerr {
            unreachable: vec![],
        });
        let p2 = Packet::Rerr(wmn_routing::Rerr {
            unreachable: vec![(NodeId(1), 2)],
        });
        let s1 = n.make_sdu(p1.clone(), MacAddr(5));
        let s2 = n.make_sdu(p2.clone(), wmn_mac::BROADCAST);
        assert_ne!(s1.id, s2.id);
        assert_eq!(s1.bytes, p1.wire_bytes());
        assert_eq!(n.take_payload(s2.id).as_deref(), Some(&p2));
        assert_eq!(n.take_payload(s2.id), None, "payload taken twice");
        assert_eq!(n.take_payload(s1.id).as_deref(), Some(&p1));
    }

    #[test]
    fn cross_layer_snapshot_for_static_node() {
        let mut n = node(1);
        let c = n.cross_layer(SimTime::from_secs(1));
        assert_eq!(c.own_velocity, (0.0, 0.0));
        assert_eq!(c.own_load.queue_util, 0.0);
    }

    #[test]
    fn reboot_starts_cold_with_retired_stats_and_fresh_streams() {
        let mut n = node(0);
        // Loopback send: bumps data_originated/delivered on the live stack.
        let mut actions = Vec::new();
        let loopback = wmn_routing::DataPacket {
            flow: wmn_routing::FlowId(0),
            seq: 0,
            src: NodeId(0),
            dst: NodeId(0),
            payload: 64,
            created: SimTime::ZERO,
        };
        n.routing.send_data(loopback, SimTime::ZERO, &mut actions);
        assert_eq!(n.routing.stats().data_originated, 1);
        let p = Packet::Rerr(wmn_routing::Rerr {
            unreachable: vec![],
        });
        let sdu = n.make_sdu(p, MacAddr(5));
        n.down = true;
        n.reboot(
            42,
            MacParams::default(),
            RoutingConfig::default(),
            Box::new(Flooding::new()),
        );
        assert!(!n.down);
        assert_eq!(n.incarnation, 1);
        assert_eq!(n.retired.as_ref().unwrap().1.data_originated, 1);
        assert_eq!(
            n.routing.stats().data_originated,
            0,
            "new stack starts cold"
        );
        assert!(
            n.outgoing.is_empty(),
            "queued payloads do not survive a crash"
        );
        // SDU ids keep counting up so old in-flight ids can never collide.
        let p2 = Packet::Rerr(wmn_routing::Rerr {
            unreachable: vec![],
        });
        assert!(n.make_sdu(p2, MacAddr(5)).id > sdu.id);
    }

    #[test]
    fn per_node_rng_streams_differ() {
        let mut a = SimRng::derive(42, rng_domain::MAC, 0);
        let mut b = SimRng::derive(42, rng_domain::MAC, 1);
        let mut c = SimRng::derive(42, rng_domain::ROUTING, 0);
        let x = a.next_u64();
        assert_ne!(x, b.next_u64());
        assert_ne!(x, c.next_u64());
    }
}
