//! The reactive (AODV-style) routing engine.
//!
//! Like the MAC, the engine is a pure state machine: packets, timers and
//! link reports go in; [`RoutingAction`]s come out. The rebroadcast scheme is
//! a [`RebroadcastPolicy`] plug-in, so the *same* engine runs blind flooding,
//! the gossip/counter baselines and CNLR — the comparison isolates exactly
//! the paper's variable.

use crate::addr::NodeId;
use crate::config::RoutingConfig;
use crate::neighbors::NeighborTable;
use crate::packet::{DataPacket, Hello, Packet, Rerr, Rrep, Rreq, RreqKey};
use crate::policy::{Decision, RebroadcastPolicy, RreqContext};
use crate::seen::SeenCache;
use crate::stats::RoutingStats;
use crate::table::{RouteTable, UpdateOutcome};
use std::collections::VecDeque;
use wmn_mac::LoadDigest;
use wmn_sim::{IdMap, SimDuration, SimRng, SimTime};
use wmn_telemetry::{EventKind, Tel};

/// Cross-layer inputs supplied by the node stack on every call.
#[derive(Clone, Copy, Debug, Default)]
pub struct CrossLayer {
    /// This node's MAC load digest.
    pub own_load: LoadDigest,
    /// This node's velocity, m/s.
    pub own_velocity: (f64, f64),
    /// Receive power of the frame being processed, dBm (set by the node
    /// stack on packet reception; `None` on timer paths).
    pub last_rx_dbm: Option<f64>,
}

/// Timers owned by the routing layer (scheduled via
/// [`RoutingAction::SetTimer`] and returned through `on_timer`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RoutingTimer {
    /// Route-discovery timeout for `target` (stale if `gen` mismatches).
    DiscoveryRetry {
        /// Discovery target.
        target: NodeId,
        /// Generation guard.
        gen: u64,
    },
    /// Counter-scheme assessment delay expired for `key`.
    RadAssess {
        /// The deferred RREQ.
        key: RreqKey,
    },
    /// Periodic HELLO beacon.
    Hello,
    /// Periodic table/cache sweep.
    Sweep,
}

/// Why a data packet was dropped by the routing layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DataDropReason {
    /// Intermediate node without a route.
    NoRoute,
    /// Discovery buffer overflowed.
    BufferOverflow,
    /// All discovery retries failed.
    DiscoveryFailed,
    /// Link-level transmission failure mid-path.
    LinkFailure,
    /// RREQ TTL exhausted before reaching the destination — packet expired
    /// in the origin buffer.
    Expired,
}

/// Engine output, executed by the node stack.
#[derive(Clone, Debug, PartialEq)]
pub enum RoutingAction {
    /// Broadcast `packet` after `delay` (forwarding jitter / RAD).
    Broadcast {
        /// The packet.
        packet: Packet,
        /// Transmit delay.
        delay: SimDuration,
    },
    /// Unicast `packet` to `next_hop` now.
    Unicast {
        /// The packet.
        packet: Packet,
        /// Link-layer destination.
        next_hop: NodeId,
    },
    /// Deliver data to the local application.
    Deliver(DataPacket),
    /// Arm a routing timer at `at`.
    SetTimer {
        /// The timer payload to return.
        timer: RoutingTimer,
        /// Absolute expiry.
        at: SimTime,
    },
    /// A data packet was discarded.
    DataDropped {
        /// The packet.
        packet: DataPacket,
        /// Why.
        reason: DataDropReason,
    },
}

#[derive(Debug)]
struct PendingDiscovery {
    retries: u32,
    gen: u64,
    buffer: VecDeque<DataPacket>,
}

/// The per-node routing entity.
pub struct Routing {
    me: NodeId,
    config: RoutingConfig,
    policy: Box<dyn RebroadcastPolicy>,
    rng: SimRng,
    seq: u32,
    rreq_id: u32,
    hello_seq: u32,
    table: RouteTable,
    seen: SeenCache,
    neighbors: NeighborTable,
    pending: IdMap<NodeId, PendingDiscovery>,
    /// RREQs deferred by a counter policy, waiting for their RAD timer.
    deferred: IdMap<RreqKey, Rreq>,
    /// Best cost already answered per RREQ (targets re-answer improvements).
    answered: IdMap<RreqKey, f64>,
    discovery_gen: u64,
    stats: RoutingStats,
    tel: Tel,
}

/// A diagnostic snapshot of the cross-layer signals driving the
/// rebroadcast decision at one node (the periodic probe payload).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RouteProbe {
    /// Live 1-hop neighbour count.
    pub neighbor_count: usize,
    /// The policy's neighbourhood-load estimate `[0, 1]` (0 when the
    /// scheme is load-blind).
    pub load: f64,
    /// The rebroadcast probability the policy would apply right now.
    pub forward_probability: f64,
}

impl Routing {
    /// Create the engine for node `me` with the given scheme.
    pub fn new(
        me: NodeId,
        config: RoutingConfig,
        policy: Box<dyn RebroadcastPolicy>,
        rng: SimRng,
    ) -> Self {
        let seen = SeenCache::new(config.seen_lifetime);
        let neighbors = NeighborTable::new(config.neighbor_timeout);
        Routing {
            me,
            config,
            policy,
            rng,
            seq: 0,
            rreq_id: 0,
            hello_seq: 0,
            table: RouteTable::new(),
            seen,
            neighbors,
            pending: IdMap::default(),
            deferred: IdMap::default(),
            answered: IdMap::default(),
            discovery_gen: 0,
            stats: RoutingStats::default(),
            tel: Tel::off(),
        }
    }

    /// Attach a telemetry handle (disabled by default; call once after
    /// construction when event collection is on).
    pub fn set_telemetry(&mut self, tel: Tel) {
        self.tel = tel;
    }

    /// Sample the cross-layer signals as the policy sees them right now
    /// (the periodic probe; does not touch policy or RNG state).
    pub fn probe(&mut self, cross: &CrossLayer, now: SimTime) -> RouteProbe {
        let ctx = self.rreq_context(self.me, 0, cross, now);
        RouteProbe {
            neighbor_count: ctx.neighbor_count,
            load: self.policy.load_estimate(&ctx),
            forward_probability: self.policy.forward_probability(&ctx),
        }
    }

    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Scheme name (for reports).
    pub fn scheme_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Counters.
    pub fn stats(&self) -> &RoutingStats {
        &self.stats
    }

    /// Route-table access (read-only, for assertions and reports).
    pub fn table(&self) -> &RouteTable {
        &self.table
    }

    /// Empty every pending-discovery buffer and return the parked data
    /// packets. Used when the node crashes: the packets had a
    /// `DataOriginate` trace event, so the caller must account each one
    /// with a terminal drop to keep packet conservation exact.
    pub fn drain_buffered(&mut self) -> Vec<DataPacket> {
        let mut out = Vec::new();
        for (_, p) in self.pending.drain() {
            out.extend(p.buffer);
        }
        out.sort_by_key(|d| (d.flow, d.seq));
        out
    }

    /// Neighbour-table access.
    pub fn neighbors(&self) -> &NeighborTable {
        &self.neighbors
    }

    /// Prime the periodic timers. Call once at startup.
    pub fn start(&mut self, now: SimTime, out: &mut Vec<RoutingAction>) {
        // Stagger HELLOs uniformly over one interval so beacons do not
        // synchronise network-wide.
        let hello_offset =
            SimDuration(self.rng.below(self.config.hello_interval.as_nanos().max(1)));
        out.push(RoutingAction::SetTimer {
            timer: RoutingTimer::Hello,
            at: now + hello_offset,
        });
        out.push(RoutingAction::SetTimer {
            timer: RoutingTimer::Sweep,
            at: now + self.config.sweep_interval,
        });
    }

    // ------------------------------------------------------------------
    // Application input
    // ------------------------------------------------------------------

    /// The local application submits a packet.
    pub fn send_data(&mut self, packet: DataPacket, now: SimTime, out: &mut Vec<RoutingAction>) {
        self.stats.data_originated += 1;
        if packet.dst == self.me {
            // Loopback (degenerate but legal).
            self.stats.data_delivered += 1;
            out.push(RoutingAction::Deliver(packet));
            return;
        }
        if let Some(entry) = self.table.valid_route(packet.dst, now) {
            let next_hop = entry.next_hop;
            self.table
                .refresh(packet.dst, self.config.route_lifetime, now);
            out.push(RoutingAction::Unicast {
                packet: Packet::Data(packet),
                next_hop,
            });
            return;
        }
        self.buffer_and_discover(packet, now, out);
    }

    fn buffer_and_discover(
        &mut self,
        packet: DataPacket,
        now: SimTime,
        out: &mut Vec<RoutingAction>,
    ) {
        let target = packet.dst;
        let cap = self.config.buffer_capacity;
        if let Some(p) = self.pending.get_mut(&target) {
            if p.buffer.len() >= cap {
                self.stats.data_dropped_buffer += 1;
                out.push(RoutingAction::DataDropped {
                    packet,
                    reason: DataDropReason::BufferOverflow,
                });
            } else {
                p.buffer.push_back(packet);
            }
            return;
        }
        // New discovery.
        self.stats.discoveries_started += 1;
        self.discovery_gen += 1;
        let gen = self.discovery_gen;
        let mut buffer = VecDeque::with_capacity(4);
        buffer.push_back(packet);
        self.pending.insert(
            target,
            PendingDiscovery {
                retries: 0,
                gen,
                buffer,
            },
        );
        self.emit_rreq(target, 0, now, out);
        out.push(RoutingAction::SetTimer {
            timer: RoutingTimer::DiscoveryRetry { target, gen },
            at: now + self.config.timeout_for_attempt(0),
        });
    }

    fn emit_rreq(
        &mut self,
        target: NodeId,
        retry: u32,
        now: SimTime,
        out: &mut Vec<RoutingAction>,
    ) {
        self.seq = self.seq.wrapping_add(1);
        self.rreq_id = self.rreq_id.wrapping_add(1);
        let rreq = Rreq {
            key: RreqKey {
                origin: self.me,
                id: self.rreq_id,
            },
            origin_seq: self.seq,
            target,
            target_seq: self.table.any_entry(target).map(|e| e.seq),
            hop_count: 0,
            path_load: 0.0,
            ttl: self.config.ttl_for_attempt(retry),
        };
        // Mark our own RREQ as seen so echoes are ignored.
        self.seen.record(rreq.key, now);
        self.seen.resolve(rreq.key);
        self.stats.rreq_originated += 1;
        self.tel.emit(
            now,
            EventKind::RreqOriginate {
                id: self.rreq_id,
                target: target.0,
            },
        );
        out.push(RoutingAction::Broadcast {
            packet: Packet::Rreq(rreq),
            delay: SimDuration::ZERO,
        });
    }

    // ------------------------------------------------------------------
    // Packet reception
    // ------------------------------------------------------------------

    /// A network-layer packet arrived from 1-hop neighbour `from`.
    pub fn on_packet(
        &mut self,
        packet: Packet,
        from: NodeId,
        cross: &CrossLayer,
        now: SimTime,
        out: &mut Vec<RoutingAction>,
    ) {
        debug_assert_ne!(from, self.me, "received own packet");
        match packet {
            Packet::Hello(h) => {
                self.neighbors.heard_hello(from, h.load, h.velocity, now);
                // A HELLO also constitutes a 1-hop route.
                self.table
                    .offer(from, from, 1, h.seq, 1.0, self.config.route_lifetime, now);
            }
            Packet::Rreq(rreq) => self.on_rreq(rreq, from, cross, now, out),
            Packet::Rrep(rrep) => self.on_rrep(rrep, from, cross, now, out),
            Packet::Rerr(rerr) => self.on_rerr(rerr, from, now, out),
            Packet::Data(data) => self.on_data(data, from, now, out),
        }
    }

    fn rreq_context(
        &mut self,
        from: NodeId,
        prior_copies: u32,
        cross: &CrossLayer,
        now: SimTime,
    ) -> RreqContext {
        // One pass, in the table's ascending-id order: each mean adds the
        // terms `mean_neighbor_load` would, in the same order.
        let (mut live, mut queue, mut busy) = (0usize, 0.0, 0.0);
        let mut sender_velocity = None;
        for (&id, nb) in self.neighbors.iter_live(now) {
            live += 1;
            queue += nb.load.queue_util;
            busy += nb.load.busy_ratio;
            if id == from {
                sender_velocity = Some(nb.velocity);
            }
        }
        let mean = |sum: f64| (live > 0).then(|| sum / live as f64);
        RreqContext {
            now,
            prior_copies,
            neighbor_count: live,
            own_load: cross.own_load,
            nbr_mean_queue: mean(queue),
            nbr_mean_busy: mean(busy),
            own_velocity: cross.own_velocity,
            sender_velocity,
            rx_power_dbm: cross.last_rx_dbm,
        }
    }

    fn on_rreq(
        &mut self,
        rreq: Rreq,
        from: NodeId,
        cross: &CrossLayer,
        now: SimTime,
        out: &mut Vec<RoutingAction>,
    ) {
        if rreq.key.origin == self.me {
            return; // own discovery echoed back
        }
        self.stats.rreq_received += 1;
        self.tel.emit(
            now,
            EventKind::RreqRecv {
                origin: rreq.key.origin.0,
                id: rreq.key.id,
            },
        );
        self.neighbors.heard_any(from, now);

        let prior = self.seen.record(rreq.key, now);

        // Reverse-route offer (improvable by later, better copies — this is
        // the mechanism by which load-aware discovery picks better paths).
        let rev_hops = rreq.hop_count.saturating_add(1);
        let rev_cost = self.policy.route_cost(rev_hops, rreq.path_load);
        let installed = self.table.offer(
            rreq.key.origin,
            from,
            rev_hops,
            rreq.origin_seq,
            rev_cost,
            self.config.route_lifetime,
            now,
        );

        if rreq.target == self.me {
            // Destination: answer the first copy and any strictly better one.
            let best = self.answered.get(&rreq.key).copied();
            let improved = best.is_none_or(|b| rev_cost < b);
            if installed == UpdateOutcome::Installed && improved {
                self.answered.insert(rreq.key, rev_cost);
                // RFC 3561 §6.6.1: dst seq = max(own, rreq hint).
                if let Some(hint) = rreq.target_seq {
                    if crate::table::seq_newer(hint, self.seq) {
                        self.seq = hint;
                    }
                }
                self.seq = self.seq.wrapping_add(1);
                let rrep = Rrep {
                    origin: rreq.key.origin,
                    target: self.me,
                    target_seq: self.seq,
                    hop_count: 0,
                    path_load: 0.0,
                };
                self.stats.rrep_generated += 1;
                self.tel.emit(
                    now,
                    EventKind::RrepGenerate {
                        origin: rrep.origin.0,
                        target: rrep.target.0,
                    },
                );
                out.push(RoutingAction::Unicast {
                    packet: Packet::Rrep(rrep),
                    next_hop: from,
                });
            }
            return;
        }

        if prior > 0 {
            self.stats.rreq_duplicates += 1;
            self.tel.emit(
                now,
                EventKind::RreqDuplicate {
                    origin: rreq.key.origin.0,
                    id: rreq.key.id,
                },
            );
            return;
        }

        // Optional intermediate reply for targets we hold a fresh route to.
        if self.config.intermediate_reply {
            if let Some(e) = self.table.valid_route(rreq.target, now) {
                let fresh = rreq
                    .target_seq
                    .is_none_or(|want| !crate::table::seq_newer(want, e.seq));
                if fresh {
                    let rrep = Rrep {
                        origin: rreq.key.origin,
                        target: rreq.target,
                        target_seq: e.seq,
                        hop_count: e.hop_count,
                        path_load: e.cost,
                    };
                    self.stats.rrep_generated += 1;
                    self.tel.emit(
                        now,
                        EventKind::RrepGenerate {
                            origin: rrep.origin.0,
                            target: rrep.target.0,
                        },
                    );
                    self.seen.resolve(rreq.key);
                    out.push(RoutingAction::Unicast {
                        packet: Packet::Rrep(rrep),
                        next_hop: from,
                    });
                    return;
                }
            }
        }

        if rreq.ttl <= 1 {
            self.seen.resolve(rreq.key);
            self.stats.rreq_suppressed += 1;
            self.tel.emit(
                now,
                EventKind::RreqSuppress {
                    origin: rreq.key.origin.0,
                    id: rreq.key.id,
                },
            );
            return;
        }

        let ctx = self.rreq_context(from, prior, cross, now);
        match self.policy.on_first_copy(&rreq, &ctx, &mut self.rng) {
            Decision::Forward { jitter } => {
                self.seen.resolve(rreq.key);
                let fwd = self.prepare_forward(rreq, &ctx);
                self.stats.rreq_forwarded += 1;
                self.tel.emit(
                    now,
                    EventKind::RreqForward {
                        origin: fwd.key.origin.0,
                        id: fwd.key.id,
                    },
                );
                out.push(RoutingAction::Broadcast {
                    packet: Packet::Rreq(fwd),
                    delay: jitter,
                });
            }
            Decision::Discard => {
                self.seen.resolve(rreq.key);
                self.stats.rreq_suppressed += 1;
                self.tel.emit(
                    now,
                    EventKind::RreqSuppress {
                        origin: rreq.key.origin.0,
                        id: rreq.key.id,
                    },
                );
            }
            Decision::Defer { delay } => {
                self.deferred.insert(rreq.key, rreq);
                out.push(RoutingAction::SetTimer {
                    timer: RoutingTimer::RadAssess { key: rreq.key },
                    at: now + delay,
                });
            }
        }
    }

    fn prepare_forward(&mut self, mut rreq: Rreq, ctx: &RreqContext) -> Rreq {
        rreq.hop_count = rreq.hop_count.saturating_add(1);
        rreq.ttl -= 1;
        self.policy.annotate(&mut rreq, ctx);
        rreq
    }

    fn on_rrep(
        &mut self,
        rrep: Rrep,
        from: NodeId,
        cross: &CrossLayer,
        now: SimTime,
        out: &mut Vec<RoutingAction>,
    ) {
        self.neighbors.heard_any(from, now);
        let hops = rrep.hop_count.saturating_add(1);
        let cost = self.policy.route_cost(hops, rrep.path_load);
        self.table.offer(
            rrep.target,
            from,
            hops,
            rrep.target_seq,
            cost,
            self.config.route_lifetime,
            now,
        );

        if rrep.origin == self.me {
            // Our discovery answered: flush the buffer.
            if let Some(mut p) = self.pending.remove(&rrep.target) {
                self.stats.discoveries_succeeded += 1;
                while let Some(data) = p.buffer.pop_front() {
                    if let Some(e) = self.table.valid_route(data.dst, now) {
                        let next_hop = e.next_hop;
                        out.push(RoutingAction::Unicast {
                            packet: Packet::Data(data),
                            next_hop,
                        });
                    } else {
                        self.stats.data_dropped_discovery += 1;
                        out.push(RoutingAction::DataDropped {
                            packet: data,
                            reason: DataDropReason::DiscoveryFailed,
                        });
                    }
                }
            }
            // Later (better) RREPs just improve the table via `offer`.
            return;
        }

        // Forward towards the origin along the reverse route.
        if let Some(e) = self.table.valid_route(rrep.origin, now) {
            let next_hop = e.next_hop;
            self.table.add_precursor(rrep.target, next_hop);
            self.table
                .refresh(rrep.origin, self.config.route_lifetime, now);
            let mut fwd = rrep;
            fwd.hop_count = hops;
            // Cross-layer accumulation on the forward path as well.
            fwd.path_load += cross.own_load.index(1.0, 1.0);
            self.stats.rrep_forwarded += 1;
            self.tel.emit(
                now,
                EventKind::RrepForward {
                    origin: fwd.origin.0,
                    target: fwd.target.0,
                },
            );
            out.push(RoutingAction::Unicast {
                packet: Packet::Rrep(fwd),
                next_hop,
            });
        } else {
            self.stats.rrep_dropped += 1;
            self.tel.emit(
                now,
                EventKind::RrepDrop {
                    origin: rrep.origin.0,
                    target: rrep.target.0,
                },
            );
        }
    }

    fn on_rerr(&mut self, rerr: Rerr, from: NodeId, now: SimTime, out: &mut Vec<RoutingAction>) {
        self.neighbors.heard_any(from, now);
        let mut propagate = Vec::new();
        for (dst, _seq) in &rerr.unreachable {
            if let Some(bumped) = self.table.invalidate(*dst, from) {
                propagate.push((*dst, bumped));
            }
        }
        if !propagate.is_empty() {
            self.stats.rerr_sent += 1;
            self.tel.emit(
                now,
                EventKind::RerrSend {
                    count: propagate.len() as u32,
                },
            );
            out.push(RoutingAction::Broadcast {
                packet: Packet::Rerr(Rerr {
                    unreachable: propagate,
                }),
                delay: SimDuration::ZERO,
            });
        }
    }

    fn on_data(
        &mut self,
        data: DataPacket,
        from: NodeId,
        now: SimTime,
        out: &mut Vec<RoutingAction>,
    ) {
        self.neighbors.heard_any(from, now);
        if data.dst == self.me {
            self.stats.data_delivered += 1;
            self.table
                .refresh(data.src, self.config.route_lifetime, now);
            out.push(RoutingAction::Deliver(data));
            return;
        }
        if let Some(e) = self.table.valid_route(data.dst, now) {
            let next_hop = e.next_hop;
            self.table.add_precursor(data.dst, from);
            self.table
                .refresh(data.dst, self.config.route_lifetime, now);
            self.table
                .refresh(data.src, self.config.route_lifetime, now);
            self.stats.data_forwarded += 1;
            self.tel.emit(
                now,
                EventKind::DataForward {
                    flow: data.flow.0,
                    seq: data.seq,
                },
            );
            out.push(RoutingAction::Unicast {
                packet: Packet::Data(data),
                next_hop,
            });
        } else {
            self.stats.data_dropped_no_route += 1;
            let seq = self.table.any_entry(data.dst).map_or(0, |e| e.seq);
            self.stats.rerr_sent += 1;
            self.tel.emit(now, EventKind::RerrSend { count: 1 });
            out.push(RoutingAction::DataDropped {
                packet: data,
                reason: DataDropReason::NoRoute,
            });
            out.push(RoutingAction::Broadcast {
                packet: Packet::Rerr(Rerr {
                    unreachable: vec![(data.dst, seq)],
                }),
                delay: SimDuration::ZERO,
            });
        }
    }

    // ------------------------------------------------------------------
    // Link feedback from the MAC
    // ------------------------------------------------------------------

    /// The MAC failed to deliver a unicast `packet` to `next_hop`
    /// (retry limit). Breaks the link and salvages own-origin data.
    pub fn on_link_failure(
        &mut self,
        next_hop: NodeId,
        packet: Option<Packet>,
        now: SimTime,
        out: &mut Vec<RoutingAction>,
    ) {
        let broken = self.table.break_link(next_hop);
        if !broken.is_empty() {
            self.stats.rerr_sent += 1;
            self.tel.emit(
                now,
                EventKind::RerrSend {
                    count: broken.len() as u32,
                },
            );
            out.push(RoutingAction::Broadcast {
                packet: Packet::Rerr(Rerr {
                    unreachable: broken,
                }),
                delay: SimDuration::ZERO,
            });
        }
        match packet {
            Some(Packet::Data(data)) => {
                if data.src == self.me {
                    // Salvage by re-discovering.
                    self.buffer_and_discover(data, now, out);
                } else {
                    self.stats.data_dropped_link += 1;
                    out.push(RoutingAction::DataDropped {
                        packet: data,
                        reason: DataDropReason::LinkFailure,
                    });
                }
            }
            // A unicast RREP that exhausted its MAC retries is a lost
            // route answer; count it with the other RREP losses (this was
            // previously a silent drop).
            Some(Packet::Rrep(rrep)) => {
                self.stats.rrep_dropped += 1;
                self.tel.emit(
                    now,
                    EventKind::RrepDrop {
                        origin: rrep.origin.0,
                        target: rrep.target.0,
                    },
                );
            }
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// A timer armed via [`RoutingAction::SetTimer`] fired.
    pub fn on_timer(
        &mut self,
        timer: RoutingTimer,
        cross: &CrossLayer,
        now: SimTime,
        out: &mut Vec<RoutingAction>,
    ) {
        match timer {
            RoutingTimer::DiscoveryRetry { target, gen } => {
                self.on_discovery_timeout(target, gen, now, out)
            }
            RoutingTimer::RadAssess { key } => {
                if let Some(rreq) = self.deferred.remove(&key) {
                    if self.seen.is_resolved(key) {
                        return;
                    }
                    self.seen.resolve(key);
                    let copies = self.seen.copies(key);
                    if self.policy.assess(&rreq, copies, &mut self.rng) {
                        // Context at assessment time, sender unknown now.
                        let ctx = self.rreq_context(key.origin, copies, cross, now);
                        let fwd = self.prepare_forward(rreq, &ctx);
                        self.stats.rreq_forwarded += 1;
                        self.tel.emit(
                            now,
                            EventKind::RreqForward {
                                origin: key.origin.0,
                                id: key.id,
                            },
                        );
                        out.push(RoutingAction::Broadcast {
                            packet: Packet::Rreq(fwd),
                            delay: SimDuration::ZERO,
                        });
                    } else {
                        self.stats.rreq_suppressed += 1;
                        self.tel.emit(
                            now,
                            EventKind::RreqSuppress {
                                origin: key.origin.0,
                                id: key.id,
                            },
                        );
                    }
                }
            }
            RoutingTimer::Hello => {
                self.hello_seq = self.hello_seq.wrapping_add(1);
                self.stats.hello_sent += 1;
                self.tel.emit(
                    now,
                    EventKind::HelloSend {
                        seq: self.hello_seq,
                    },
                );
                let hello = Hello {
                    seq: self.hello_seq,
                    load: cross.own_load,
                    velocity: cross.own_velocity,
                };
                // Small jitter so neighbours do not collide beacon-on-beacon.
                let jitter = SimDuration(self.rng.below(10_000_000)); // ≤ 10 ms
                out.push(RoutingAction::Broadcast {
                    packet: Packet::Hello(hello),
                    delay: jitter,
                });
                out.push(RoutingAction::SetTimer {
                    timer: RoutingTimer::Hello,
                    at: now + self.config.hello_interval,
                });
            }
            RoutingTimer::Sweep => {
                self.table.sweep(now);
                self.seen.sweep(now);
                self.answered.retain(|k, _| self.seen.copies(*k) > 0);
                let gone = self.neighbors.sweep(now);
                let mut all_broken = Vec::new();
                for n in gone {
                    all_broken.extend(self.table.break_link(n));
                }
                if !all_broken.is_empty() {
                    self.stats.rerr_sent += 1;
                    self.tel.emit(
                        now,
                        EventKind::RerrSend {
                            count: all_broken.len() as u32,
                        },
                    );
                    out.push(RoutingAction::Broadcast {
                        packet: Packet::Rerr(Rerr {
                            unreachable: all_broken,
                        }),
                        delay: SimDuration::ZERO,
                    });
                }
                out.push(RoutingAction::SetTimer {
                    timer: RoutingTimer::Sweep,
                    at: now + self.config.sweep_interval,
                });
            }
        }
    }

    fn on_discovery_timeout(
        &mut self,
        target: NodeId,
        gen: u64,
        now: SimTime,
        out: &mut Vec<RoutingAction>,
    ) {
        let Some(p) = self.pending.get_mut(&target) else {
            return; // already succeeded
        };
        if p.gen != gen {
            return; // stale timer
        }
        // The route may have appeared through other traffic.
        if self.table.valid_route(target, now).is_some() {
            let mut p = self.pending.remove(&target).expect("checked above");
            self.stats.discoveries_succeeded += 1;
            while let Some(data) = p.buffer.pop_front() {
                if let Some(e) = self.table.valid_route(data.dst, now) {
                    let next_hop = e.next_hop;
                    out.push(RoutingAction::Unicast {
                        packet: Packet::Data(data),
                        next_hop,
                    });
                } else {
                    // Defensive: the buffer is keyed by `target == dst`, so
                    // this branch should be unreachable — but a buffered
                    // packet must never vanish without a counted drop.
                    self.stats.data_dropped_discovery += 1;
                    out.push(RoutingAction::DataDropped {
                        packet: data,
                        reason: DataDropReason::DiscoveryFailed,
                    });
                }
            }
            return;
        }
        if p.retries >= self.config.rreq_retries {
            let p = self.pending.remove(&target).expect("checked above");
            self.stats.discoveries_failed += 1;
            for data in p.buffer {
                self.stats.data_dropped_discovery += 1;
                out.push(RoutingAction::DataDropped {
                    packet: data,
                    reason: DataDropReason::DiscoveryFailed,
                });
            }
            return;
        }
        p.retries += 1;
        let retry = p.retries;
        self.discovery_gen += 1;
        let gen = self.discovery_gen;
        p.gen = gen;
        self.emit_rreq(target, retry, now, out);
        out.push(RoutingAction::SetTimer {
            timer: RoutingTimer::DiscoveryRetry { target, gen },
            at: now + self.config.timeout_for_attempt(retry),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Flooding;
    use wmn_sim::SimTime;

    fn engine(me: u32) -> Routing {
        Routing::new(
            NodeId(me),
            RoutingConfig::default(),
            Box::new(Flooding::new()),
            SimRng::new(me as u64 + 1),
        )
    }

    fn data(src: u32, dst: u32) -> DataPacket {
        DataPacket {
            flow: crate::packet::FlowId(1),
            seq: 0,
            src: NodeId(src),
            dst: NodeId(dst),
            payload: 512,
            created: SimTime::ZERO,
        }
    }

    fn cross() -> CrossLayer {
        CrossLayer::default()
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn find_rreq(out: &[RoutingAction]) -> Option<Rreq> {
        out.iter().find_map(|a| match a {
            RoutingAction::Broadcast {
                packet: Packet::Rreq(r),
                ..
            } => Some(*r),
            _ => None,
        })
    }

    #[test]
    fn start_arms_hello_and_sweep() {
        let mut r = engine(0);
        let mut out = Vec::new();
        r.start(t(0), &mut out);
        let timers: Vec<_> = out
            .iter()
            .filter(|a| matches!(a, RoutingAction::SetTimer { .. }))
            .collect();
        assert_eq!(timers.len(), 2);
    }

    #[test]
    fn send_without_route_starts_discovery() {
        let mut r = engine(0);
        let mut out = Vec::new();
        r.send_data(data(0, 9), t(0), &mut out);
        let rreq = find_rreq(&out).expect("rreq broadcast");
        assert_eq!(rreq.target, NodeId(9));
        assert_eq!(rreq.hop_count, 0);
        assert_eq!(rreq.key.origin, NodeId(0));
        assert!(out.iter().any(|a| matches!(
            a,
            RoutingAction::SetTimer {
                timer: RoutingTimer::DiscoveryRetry { .. },
                ..
            }
        )));
        assert_eq!(r.stats().discoveries_started, 1);
        // Second packet buffers without a second RREQ.
        out.clear();
        r.send_data(data(0, 9), t(10), &mut out);
        assert!(find_rreq(&out).is_none());
    }

    #[test]
    fn intermediate_forwards_rreq_and_installs_reverse_route() {
        let mut r = engine(5);
        let mut out = Vec::new();
        let rreq = Rreq {
            key: RreqKey {
                origin: NodeId(0),
                id: 1,
            },
            origin_seq: 3,
            target: NodeId(9),
            target_seq: None,
            hop_count: 1,
            path_load: 0.0,
            ttl: 30,
        };
        r.on_packet(Packet::Rreq(rreq), NodeId(2), &cross(), t(0), &mut out);
        let fwd = find_rreq(&out).expect("forwarded");
        assert_eq!(fwd.hop_count, 2);
        assert_eq!(fwd.ttl, 29);
        // Reverse route to origin via the sender.
        let e = r
            .table()
            .valid_route(NodeId(0), t(1))
            .expect("reverse route");
        assert_eq!(e.next_hop, NodeId(2));
        assert_eq!(e.hop_count, 2);
        // Duplicate is not forwarded again.
        out.clear();
        r.on_packet(Packet::Rreq(rreq), NodeId(3), &cross(), t(1), &mut out);
        assert!(find_rreq(&out).is_none());
        assert_eq!(r.stats().rreq_duplicates, 1);
    }

    #[test]
    fn target_answers_with_rrep() {
        let mut r = engine(9);
        let mut out = Vec::new();
        let rreq = Rreq {
            key: RreqKey {
                origin: NodeId(0),
                id: 1,
            },
            origin_seq: 3,
            target: NodeId(9),
            target_seq: None,
            hop_count: 2,
            path_load: 0.0,
            ttl: 28,
        };
        r.on_packet(Packet::Rreq(rreq), NodeId(4), &cross(), t(0), &mut out);
        let rrep = out
            .iter()
            .find_map(|a| match a {
                RoutingAction::Unicast {
                    packet: Packet::Rrep(p),
                    next_hop,
                } => Some((*p, *next_hop)),
                _ => None,
            })
            .expect("rrep");
        assert_eq!(rrep.0.origin, NodeId(0));
        assert_eq!(rrep.0.target, NodeId(9));
        assert_eq!(rrep.0.hop_count, 0);
        assert_eq!(rrep.1, NodeId(4));
        // The target does not rebroadcast.
        assert!(find_rreq(&out).is_none());
        assert_eq!(r.stats().rrep_generated, 1);
    }

    #[test]
    fn full_discovery_round_trip_flushes_buffer() {
        let mut origin = engine(0);
        let mut out = Vec::new();
        origin.send_data(data(0, 9), t(0), &mut out);
        out.clear();
        // An RREP arrives from neighbour 4 describing a 3-hop route.
        let rrep = Rrep {
            origin: NodeId(0),
            target: NodeId(9),
            target_seq: 5,
            hop_count: 2,
            path_load: 0.0,
        };
        origin.on_packet(Packet::Rrep(rrep), NodeId(4), &cross(), t(50), &mut out);
        // The buffered packet goes out via node 4.
        let sent = out
            .iter()
            .find_map(|a| match a {
                RoutingAction::Unicast {
                    packet: Packet::Data(d),
                    next_hop,
                } => Some((*d, *next_hop)),
                _ => None,
            })
            .expect("data flushed");
        assert_eq!(sent.1, NodeId(4));
        assert_eq!(sent.0.dst, NodeId(9));
        assert_eq!(origin.stats().discoveries_succeeded, 1);
        // Subsequent sends use the route directly.
        out.clear();
        origin.send_data(data(0, 9), t(60), &mut out);
        assert!(find_rreq(&out).is_none());
        assert!(out.iter().any(|a| matches!(
            a,
            RoutingAction::Unicast {
                packet: Packet::Data(_),
                ..
            }
        )));
    }

    #[test]
    fn rrep_forwarded_along_reverse_route() {
        let mut mid = engine(5);
        let mut out = Vec::new();
        // Establish the reverse route via an RREQ from origin 0 through 2.
        let rreq = Rreq {
            key: RreqKey {
                origin: NodeId(0),
                id: 1,
            },
            origin_seq: 3,
            target: NodeId(9),
            target_seq: None,
            hop_count: 1,
            path_load: 0.0,
            ttl: 30,
        };
        mid.on_packet(Packet::Rreq(rreq), NodeId(2), &cross(), t(0), &mut out);
        out.clear();
        // The RREP comes back from node 7 (towards target 9).
        let rrep = Rrep {
            origin: NodeId(0),
            target: NodeId(9),
            target_seq: 5,
            hop_count: 0,
            path_load: 0.0,
        };
        mid.on_packet(Packet::Rrep(rrep), NodeId(7), &cross(), t(10), &mut out);
        let (fwd, nh) = out
            .iter()
            .find_map(|a| match a {
                RoutingAction::Unicast {
                    packet: Packet::Rrep(p),
                    next_hop,
                } => Some((*p, *next_hop)),
                _ => None,
            })
            .expect("rrep forwarded");
        assert_eq!(nh, NodeId(2));
        assert_eq!(fwd.hop_count, 1);
        // Forward route to 9 installed via 7.
        assert_eq!(
            mid.table().valid_route(NodeId(9), t(11)).unwrap().next_hop,
            NodeId(7)
        );
    }

    #[test]
    fn data_forwarding_and_delivery() {
        let mut mid = engine(5);
        let mut out = Vec::new();
        // Install a route to 9 via 7 (via an RREP).
        let rrep = Rrep {
            origin: NodeId(0),
            target: NodeId(9),
            target_seq: 5,
            hop_count: 0,
            path_load: 0.0,
        };
        mid.on_packet(Packet::Rrep(rrep), NodeId(7), &cross(), t(0), &mut out);
        out.clear();
        mid.on_packet(
            Packet::Data(data(0, 9)),
            NodeId(2),
            &cross(),
            t(1),
            &mut out,
        );
        assert!(out.iter().any(|a| matches!(
            a,
            RoutingAction::Unicast { packet: Packet::Data(_), next_hop } if *next_hop == NodeId(7)
        )));
        assert_eq!(mid.stats().data_forwarded, 1);
        // Delivery at the destination.
        let mut dst = engine(9);
        out.clear();
        dst.on_packet(
            Packet::Data(data(0, 9)),
            NodeId(5),
            &cross(),
            t(2),
            &mut out,
        );
        assert!(out.iter().any(|a| matches!(a, RoutingAction::Deliver(_))));
        assert_eq!(dst.stats().data_delivered, 1);
    }

    #[test]
    fn no_route_triggers_rerr_and_drop() {
        let mut mid = engine(5);
        let mut out = Vec::new();
        mid.on_packet(
            Packet::Data(data(0, 9)),
            NodeId(2),
            &cross(),
            t(0),
            &mut out,
        );
        assert!(out.iter().any(|a| matches!(
            a,
            RoutingAction::DataDropped {
                reason: DataDropReason::NoRoute,
                ..
            }
        )));
        assert!(out.iter().any(|a| matches!(
            a,
            RoutingAction::Broadcast {
                packet: Packet::Rerr(_),
                ..
            }
        )));
    }

    #[test]
    fn discovery_retries_then_fails() {
        let mut r = engine(0);
        let mut out = Vec::new();
        r.send_data(data(0, 9), t(0), &mut out);
        let mut timers: Vec<(RoutingTimer, SimTime)> = out
            .iter()
            .filter_map(|a| match a {
                RoutingAction::SetTimer { timer, at } => Some((*timer, *at)),
                _ => None,
            })
            .collect();
        let mut rreqs = 1;
        let mut drops = 0;
        // Fire discovery timers until the engine gives up.
        while let Some((timer, at)) = timers.pop() {
            out.clear();
            r.on_timer(timer, &cross(), at, &mut out);
            rreqs += find_rreq(&out).is_some() as u32;
            drops += out
                .iter()
                .filter(|a| matches!(a, RoutingAction::DataDropped { .. }))
                .count();
            timers.extend(out.iter().filter_map(|a| match a {
                RoutingAction::SetTimer {
                    timer: t2 @ RoutingTimer::DiscoveryRetry { .. },
                    at,
                } => Some((*t2, *at)),
                _ => None,
            }));
        }
        assert_eq!(rreqs, 3, "1 initial + 2 retries");
        assert_eq!(drops, 1, "buffered packet dropped at failure");
        assert_eq!(r.stats().discoveries_failed, 1);
    }

    #[test]
    fn stale_discovery_timer_ignored_after_success() {
        let mut r = engine(0);
        let mut out = Vec::new();
        r.send_data(data(0, 9), t(0), &mut out);
        let (timer, at) = out
            .iter()
            .find_map(|a| match a {
                RoutingAction::SetTimer {
                    timer: t2 @ RoutingTimer::DiscoveryRetry { .. },
                    at,
                } => Some((*t2, *at)),
                _ => None,
            })
            .unwrap();
        // Discovery succeeds before the timer.
        let rrep = Rrep {
            origin: NodeId(0),
            target: NodeId(9),
            target_seq: 5,
            hop_count: 1,
            path_load: 0.0,
        };
        out.clear();
        r.on_packet(Packet::Rrep(rrep), NodeId(4), &cross(), t(100), &mut out);
        out.clear();
        r.on_timer(timer, &cross(), at, &mut out);
        assert!(out.is_empty(), "stale timer acted: {out:?}");
    }

    #[test]
    fn link_failure_breaks_routes_and_salvages_own_data() {
        let mut r = engine(0);
        let mut out = Vec::new();
        // Install a route to 9 via 4 and use it.
        let rrep = Rrep {
            origin: NodeId(0),
            target: NodeId(9),
            target_seq: 5,
            hop_count: 1,
            path_load: 0.0,
        };
        r.on_packet(Packet::Rrep(rrep), NodeId(4), &cross(), t(0), &mut out);
        out.clear();
        r.on_link_failure(NodeId(4), Some(Packet::Data(data(0, 9))), t(10), &mut out);
        // RERR broadcast + fresh discovery for the salvaged packet.
        assert!(out.iter().any(|a| matches!(
            a,
            RoutingAction::Broadcast {
                packet: Packet::Rerr(_),
                ..
            }
        )));
        assert!(find_rreq(&out).is_some(), "salvage re-discovers");
        assert!(r.table().valid_route(NodeId(9), t(11)).is_none());
    }

    #[test]
    fn transit_data_dropped_on_link_failure() {
        let mut r = engine(5);
        let mut out = Vec::new();
        r.on_link_failure(NodeId(4), Some(Packet::Data(data(0, 9))), t(10), &mut out);
        assert!(out.iter().any(|a| matches!(
            a,
            RoutingAction::DataDropped {
                reason: DataDropReason::LinkFailure,
                ..
            }
        )));
        assert_eq!(r.stats().data_dropped_link, 1);
    }

    #[test]
    fn rerr_propagates_only_for_affected_routes() {
        let mut r = engine(5);
        let mut out = Vec::new();
        // Route to 9 via 4.
        let rrep = Rrep {
            origin: NodeId(0),
            target: NodeId(9),
            target_seq: 5,
            hop_count: 1,
            path_load: 0.0,
        };
        r.on_packet(Packet::Rrep(rrep), NodeId(4), &cross(), t(0), &mut out);
        out.clear();
        // RERR from node 4 about 9 → we invalidate and propagate.
        let rerr = Rerr {
            unreachable: vec![(NodeId(9), 6)],
        };
        r.on_packet(
            Packet::Rerr(rerr.clone()),
            NodeId(4),
            &cross(),
            t(1),
            &mut out,
        );
        assert!(out.iter().any(|a| matches!(
            a,
            RoutingAction::Broadcast {
                packet: Packet::Rerr(_),
                ..
            }
        )));
        assert!(r.table().valid_route(NodeId(9), t(2)).is_none());
        // RERR from an unrelated node → nothing.
        out.clear();
        r.on_packet(Packet::Rerr(rerr), NodeId(8), &cross(), t(3), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn hello_updates_neighbors_and_one_hop_route() {
        let mut r = engine(0);
        let mut out = Vec::new();
        let hello = Hello {
            seq: 1,
            load: LoadDigest {
                queue_util: 0.4,
                busy_ratio: 0.2,
                mac_service_s: 0.0,
            },
            velocity: (1.0, 0.0),
        };
        r.on_packet(Packet::Hello(hello), NodeId(3), &cross(), t(0), &mut out);
        assert_eq!(r.neighbors().live_count(t(1)), 1);
        let e = r.table().valid_route(NodeId(3), t(1)).unwrap();
        assert_eq!(e.next_hop, NodeId(3));
        assert_eq!(e.hop_count, 1);
    }

    #[test]
    fn rreq_context_is_the_neighbour_tables_aggregates_in_one_pass() {
        let mut r = engine(0);
        let mut out = Vec::new();
        let mut rng = SimRng::new(5);
        // HELLOs arrive in no particular id order; 17's goes stale.
        for (from, at) in [
            (9, 23_000),
            (4, 23_200),
            (17, 1_000),
            (12, 23_400),
            (6, 23_600),
            (30, 23_800),
        ] {
            let hello = Hello {
                seq: 1,
                load: LoadDigest {
                    queue_util: rng.f64(),
                    busy_ratio: rng.f64(),
                    mac_service_s: 0.0,
                },
                velocity: (from as f64, -1.0),
            };
            r.on_packet(
                Packet::Hello(hello),
                NodeId(from),
                &cross(),
                t(at),
                &mut out,
            );
        }
        let now = t(25_000);
        let nt = r.neighbors().clone();
        assert_eq!(nt.live_count(now), 5);
        let bits = |m: Option<f64>| m.map(f64::to_bits);
        for sender in [12, 17, 99] {
            let ctx = r.rreq_context(NodeId(sender), 0, &cross(), now);
            assert_eq!(ctx.neighbor_count, 5);
            let queue = nt.mean_neighbor_load(now, |d| d.queue_util);
            let busy = nt.mean_neighbor_load(now, |d| d.busy_ratio);
            assert_eq!(bits(ctx.nbr_mean_queue), bits(queue));
            assert_eq!(bits(ctx.nbr_mean_busy), bits(busy));
            let velocity = nt.get(NodeId(sender), now).map(|n| n.velocity);
            assert_eq!(ctx.sender_velocity, velocity);
        }
    }

    #[test]
    fn hello_timer_emits_beacon_and_rearms() {
        let mut r = engine(0);
        let mut out = Vec::new();
        r.on_timer(RoutingTimer::Hello, &cross(), t(1000), &mut out);
        assert!(out.iter().any(|a| matches!(
            a,
            RoutingAction::Broadcast {
                packet: Packet::Hello(_),
                ..
            }
        )));
        assert!(out.iter().any(|a| matches!(
            a,
            RoutingAction::SetTimer { timer: RoutingTimer::Hello, at } if *at == t(2000)
        )));
        assert_eq!(r.stats().hello_sent, 1);
    }

    #[test]
    fn sweep_expires_neighbors_and_breaks_their_routes() {
        let mut r = engine(0);
        let mut out = Vec::new();
        let hello = Hello {
            seq: 1,
            load: LoadDigest::default(),
            velocity: (0.0, 0.0),
        };
        r.on_packet(Packet::Hello(hello), NodeId(3), &cross(), t(0), &mut out);
        // Also a 2-hop route via 3.
        let rrep = Rrep {
            origin: NodeId(0),
            target: NodeId(9),
            target_seq: 5,
            hop_count: 1,
            path_load: 0.0,
        };
        r.on_packet(Packet::Rrep(rrep), NodeId(3), &cross(), t(0), &mut out);
        out.clear();
        // 5 s later the neighbour has timed out (3 × 1 s hello).
        r.on_timer(RoutingTimer::Sweep, &cross(), t(5000), &mut out);
        assert!(out.iter().any(|a| matches!(
            a,
            RoutingAction::Broadcast {
                packet: Packet::Rerr(_),
                ..
            }
        )));
        assert!(r.table().valid_route(NodeId(9), t(5001)).is_none());
        assert!(out.iter().any(|a| matches!(
            a,
            RoutingAction::SetTimer {
                timer: RoutingTimer::Sweep,
                ..
            }
        )));
    }

    #[test]
    fn ttl_exhaustion_suppresses() {
        let mut r = engine(5);
        let mut out = Vec::new();
        let rreq = Rreq {
            key: RreqKey {
                origin: NodeId(0),
                id: 1,
            },
            origin_seq: 3,
            target: NodeId(9),
            target_seq: None,
            hop_count: 31,
            path_load: 0.0,
            ttl: 1,
        };
        r.on_packet(Packet::Rreq(rreq), NodeId(2), &cross(), t(0), &mut out);
        assert!(find_rreq(&out).is_none());
        assert_eq!(r.stats().rreq_suppressed, 1);
        // Reverse route still learned.
        assert!(r.table().valid_route(NodeId(0), t(1)).is_some());
    }

    #[test]
    fn counter_policy_defers_and_assesses() {
        use crate::policy::CounterBased;
        let mut r = Routing::new(
            NodeId(5),
            RoutingConfig::default(),
            Box::new(CounterBased::new(2, SimDuration::from_millis(8))),
            SimRng::new(3),
        );
        let mut out = Vec::new();
        let rreq = Rreq {
            key: RreqKey {
                origin: NodeId(0),
                id: 1,
            },
            origin_seq: 3,
            target: NodeId(9),
            target_seq: None,
            hop_count: 0,
            path_load: 0.0,
            ttl: 30,
        };
        r.on_packet(Packet::Rreq(rreq), NodeId(0), &cross(), t(0), &mut out);
        // Deferred: no broadcast yet, a RAD timer armed.
        assert!(find_rreq(&out).is_none());
        let (timer, at) = out
            .iter()
            .find_map(|a| match a {
                RoutingAction::SetTimer {
                    timer: t2 @ RoutingTimer::RadAssess { .. },
                    at,
                } => Some((*t2, *at)),
                _ => None,
            })
            .expect("rad timer");
        // One duplicate arrives during the RAD (copies = 2 ≥ threshold).
        out.clear();
        r.on_packet(Packet::Rreq(rreq), NodeId(2), &cross(), t(1), &mut out);
        out.clear();
        r.on_timer(timer, &cross(), at, &mut out);
        assert!(find_rreq(&out).is_none(), "suppressed by counter");
        assert_eq!(r.stats().rreq_suppressed, 1);
    }

    #[test]
    fn counter_policy_forwards_when_quiet() {
        use crate::policy::CounterBased;
        let mut r = Routing::new(
            NodeId(5),
            RoutingConfig::default(),
            Box::new(CounterBased::new(3, SimDuration::from_millis(8))),
            SimRng::new(3),
        );
        let mut out = Vec::new();
        let rreq = Rreq {
            key: RreqKey {
                origin: NodeId(0),
                id: 1,
            },
            origin_seq: 3,
            target: NodeId(9),
            target_seq: None,
            hop_count: 0,
            path_load: 0.0,
            ttl: 30,
        };
        r.on_packet(Packet::Rreq(rreq), NodeId(0), &cross(), t(0), &mut out);
        let (timer, at) = out
            .iter()
            .find_map(|a| match a {
                RoutingAction::SetTimer {
                    timer: t2 @ RoutingTimer::RadAssess { .. },
                    at,
                } => Some((*t2, *at)),
                _ => None,
            })
            .expect("rad timer");
        out.clear();
        r.on_timer(timer, &cross(), at, &mut out);
        let fwd = find_rreq(&out).expect("forwarded after quiet RAD");
        assert_eq!(fwd.hop_count, 1);
    }
}
