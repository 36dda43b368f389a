//! Network-layer packet formats.
//!
//! Wire sizes follow RFC 3561 (AODV) with CNLR's extra fields: RREQs carry an
//! accumulated *path-load* metric and HELLOs carry the sender's
//! [`LoadDigest`] and velocity — the cross-layer payload of the scheme.

use crate::addr::NodeId;
use wmn_mac::LoadDigest;
use wmn_sim::SimTime;

/// Identifier of an application flow.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct FlowId(pub u32);

/// Globally unique identifier of one route-discovery attempt.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RreqKey {
    /// The node that originated the discovery.
    pub origin: NodeId,
    /// Its per-origin discovery counter.
    pub id: u32,
}

/// Route request (broadcast, scheme-controlled rebroadcast).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rreq {
    /// Duplicate-detection key.
    pub key: RreqKey,
    /// Origin's current sequence number.
    pub origin_seq: u32,
    /// The node a route is sought to.
    pub target: NodeId,
    /// Last known sequence number of the target (`None` = unknown).
    pub target_seq: Option<u32>,
    /// Hops travelled so far.
    pub hop_count: u8,
    /// Accumulated neighbourhood-load metric along the reverse path
    /// (CNLR; zero under the baselines).
    pub path_load: f64,
    /// Remaining time-to-live.
    pub ttl: u8,
}

/// Route reply (unicast hop-by-hop along the reverse path).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rrep {
    /// The discovery origin this RREP travels to.
    pub origin: NodeId,
    /// The route target the RREP describes.
    pub target: NodeId,
    /// Target's sequence number.
    pub target_seq: u32,
    /// Hops from the responder to the target (0 when the target answers).
    pub hop_count: u8,
    /// Accumulated path load from responder to target plus the discovered
    /// forward path (CNLR route-selection metric).
    pub path_load: f64,
}

/// Route error: destinations no longer reachable through the sender.
#[derive(Clone, Debug, PartialEq)]
pub struct Rerr {
    /// `(destination, last known seq)` pairs now unreachable.
    pub unreachable: Vec<(NodeId, u32)>,
}

/// Periodic one-hop beacon carrying the cross-layer digest.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Hello {
    /// Sender's sequence number.
    pub seq: u32,
    /// Sender's local load digest.
    pub load: LoadDigest,
    /// Sender's velocity (m/s) for VAP link-stability estimation.
    pub velocity: (f64, f64),
}

/// Application data.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DataPacket {
    /// Flow this packet belongs to.
    pub flow: FlowId,
    /// Per-flow sequence number.
    pub seq: u32,
    /// Flow source.
    pub src: NodeId,
    /// Flow destination.
    pub dst: NodeId,
    /// Application payload bytes.
    pub payload: usize,
    /// Creation timestamp (for end-to-end delay accounting).
    pub created: SimTime,
}

/// Any network-layer packet.
#[derive(Clone, Debug, PartialEq)]
pub enum Packet {
    /// Route request.
    Rreq(Rreq),
    /// Route reply.
    Rrep(Rrep),
    /// Route error.
    Rerr(Rerr),
    /// HELLO beacon.
    Hello(Hello),
    /// Application data.
    Data(DataPacket),
}

impl Packet {
    /// On-air network-layer size in bytes (headers per RFC 3561, plus the
    /// CNLR load field where applicable).
    pub fn wire_bytes(&self) -> usize {
        match self {
            // RFC 3561 RREQ is 24 B; + 4 B path-load field.
            Packet::Rreq(_) => 28,
            // RREP 20 B; + 4 B path-load.
            Packet::Rrep(_) => 24,
            Packet::Rerr(r) => 4 + 8 * r.unreachable.len(),
            // HELLO: 20 B RREP-shaped beacon + 12 B digest/velocity.
            Packet::Hello(_) => 32,
            // 20 B network header + payload.
            Packet::Data(d) => 20 + d.payload,
        }
    }

    /// True for packets every scheme floods (RREQs).
    pub fn is_rreq(&self) -> bool {
        matches!(self, Packet::Rreq(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> DataPacket {
        DataPacket {
            flow: FlowId(1),
            seq: 0,
            src: NodeId(0),
            dst: NodeId(9),
            payload: 512,
            created: SimTime::ZERO,
        }
    }

    #[test]
    fn wire_sizes() {
        let rreq = Packet::Rreq(Rreq {
            key: RreqKey {
                origin: NodeId(0),
                id: 1,
            },
            origin_seq: 1,
            target: NodeId(9),
            target_seq: None,
            hop_count: 0,
            path_load: 0.0,
            ttl: 32,
        });
        assert_eq!(rreq.wire_bytes(), 28);
        assert!(rreq.is_rreq());

        let rrep = Packet::Rrep(Rrep {
            origin: NodeId(0),
            target: NodeId(9),
            target_seq: 2,
            hop_count: 0,
            path_load: 0.0,
        });
        assert_eq!(rrep.wire_bytes(), 24);

        let rerr = Packet::Rerr(Rerr {
            unreachable: vec![(NodeId(1), 5), (NodeId(2), 6)],
        });
        assert_eq!(rerr.wire_bytes(), 20);

        let hello = Packet::Hello(Hello {
            seq: 1,
            load: LoadDigest::default(),
            velocity: (0.0, 0.0),
        });
        assert_eq!(hello.wire_bytes(), 32);

        assert_eq!(Packet::Data(data()).wire_bytes(), 532);
        assert!(!Packet::Data(data()).is_rreq());
    }
}
