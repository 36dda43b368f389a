//! The integrated network world: event dispatch across all layers.
//!
//! All cross-layer plumbing happens here through an explicit work queue:
//! MAC actions, routing actions and medium effects are drained iteratively
//! (never recursively), so arbitrarily long action chains — a reception that
//! triggers a forward that fills a queue that starts a transmission — are
//! processed within one event without stack growth.
//!
//! # The work-queue contract
//!
//! The queue is strictly first-in first-out: everything one item produces
//! goes to the back, behind every item already waiting, so an event's
//! consequences are worked off breadth first. That order is part of the
//! simulation's result, not an implementation detail. It decides the order
//! of the `sched.at` calls, hence the sequence numbers that break ties
//! between same-instant events; the order of the draws from the medium's
//! shared RNG; and the order of the trace. Applying an item the moment it is
//! produced (direct or recursive dispatch) visits the same items depth
//! first and is therefore a different simulation, not a faster one. What
//! may change freely is how an item is stored and how cheaply it is
//! applied; `tests/work_order_golden.rs` pins the order itself.

use crate::event::Event;
use crate::medium::{EffectSink, Medium, MediumEffect};
use crate::node::Node;
use crate::scheme::Scheme;
use std::sync::Arc;
use wmn_faults::{FaultKind, TimedFault};
use wmn_mac::{Mac, MacAction, MacAddr, MacParams, BROADCAST};
use wmn_metrics::{RecoveryTracker, TimeSeries};
use wmn_routing::{DataPacket, NodeId, Packet, RoutingAction, RoutingConfig};
use wmn_sim::SimRng;
use wmn_sim::{Scheduler, SimDuration, SimTime, World};
use wmn_telemetry::{DropReason, EventKind, FaultCode, Tel};
use wmn_topology::{SpatialIndex, Vec2};
use wmn_traffic::{FlowState, FlowTracker};

wmn_telemetry::counter_set! {
    /// Network-layer loss counters by cause. A data drop is counted by
    /// [`DropCounters::count`] under its [`DropReason`]'s name, so the
    /// registry name is `counter_for_drop(reason)`. The crash counters
    /// only appear once a crash actually discarded something, so fault-free
    /// manifests do not name them.
    pub struct DropCounters: "drop_" {
        /// Interface queue overflow.
        queue_full,
        /// No route at an intermediate hop.
        no_route,
        /// Discovery buffer overflow at the origin.
        buffer_overflow,
        /// Route discovery failed after all retries.
        discovery_failed,
        /// Link-layer retry limit on the path.
        link_failure,
        /// Packet expired in the origin buffer. No full-stack code path
        /// produces it (ParMesh does); kept for the registry's layout.
        expired,
        /// Control packets (RREQ/RREP/RERR/HELLO) rejected by a full
        /// interface queue. Not part of [`DropCounters::total`], which
        /// counts data only.
        ctrl_queue_full,
    }
    if_nonzero {
        /// Data packets lost in the queues/buffers of a crashing node.
        node_down,
        /// Control packets lost in the queues of a crashing node. Like
        /// `ctrl_queue_full`, not part of [`DropCounters::total`].
        ctrl_node_down,
    }
}

impl DropCounters {
    /// Total dropped data packets.
    pub fn total(&self) -> u64 {
        self.queue_full
            + self.no_route
            + self.buffer_overflow
            + self.discovery_failed
            + self.link_failure
            + self.expired
            + self.node_down
    }

    /// Count one data packet discarded for `reason`.
    pub fn count(&mut self, reason: DropReason) {
        *match reason {
            DropReason::QueueFull => &mut self.queue_full,
            DropReason::NoRoute => &mut self.no_route,
            DropReason::BufferOverflow => &mut self.buffer_overflow,
            DropReason::DiscoveryFailed => &mut self.discovery_failed,
            DropReason::LinkFailure => &mut self.link_failure,
            DropReason::Expired => &mut self.expired,
            DropReason::NodeDown => &mut self.node_down,
            // The MAC hands a retry-limit packet back to routing, which
            // decides its fate (salvage or `LinkFailure`).
            DropReason::RetryLimit => unreachable!("a retry-limit drop is never terminal data"),
        } += 1;
    }

    /// Count one control packet discarded for `reason` (registry name
    /// `counter_for_ctrl_drop(reason)`).
    pub fn count_ctrl(&mut self, reason: DropReason) {
        *match reason {
            DropReason::QueueFull => &mut self.ctrl_queue_full,
            DropReason::NodeDown => &mut self.ctrl_node_down,
            _ => unreachable!("control is only discarded at a full queue or a crash"),
        } += 1;
    }
}

wmn_telemetry::counter_set! {
    /// Fault-injection counters (all zero — and absent from the registry —
    /// unless a fault schedule is active; names match `counter_for_event`
    /// for the corresponding trace kinds).
    pub struct FaultCounters: "fault_" {}
    if_nonzero {
        /// Node crashes applied.
        node_down,
        /// Node reboots applied.
        node_up,
        /// Non-churn faults applied (noise burst edges, link shifts).
        injected,
    }
}

/// Everything needed to rebuild a node's protocol stack cold after a
/// reboot (the builder's construction parameters, kept by the network).
pub struct RebootKit {
    /// Master seed (reboot RNG streams are salted with the incarnation).
    pub master_seed: u64,
    /// MAC parameters.
    pub mac: MacParams,
    /// Routing configuration.
    pub routing: RoutingConfig,
    /// Rebroadcast scheme (rebuilt per reboot).
    pub scheme: Scheme,
}

/// One queued unit of cross-layer work other than a carrier-sense edge or a
/// MAC action. Every item is written once and read once, so it is kept
/// small: a frame's payload is shared by its receivers (`Arc<Packet>` inside
/// `MediumEffect::Deliver`) and the wide, rare routing actions are boxed.
enum Work {
    Routing(u32, Box<RoutingAction>),
    Medium(MediumEffect),
}

/// What comes next in the FIFO: a carrier-sense edge, carried right here,
/// or the front of one of the two lanes of its [`Generation`].
#[derive(Clone, Copy)]
enum Next {
    Channel { node: u32, busy: bool },
    Mac { node: u32 },
    Wide,
}

// Enum bloat multiplies into every queued item and every future-event-list
// move; these fail the build instead of a benchmark.
const _: () = assert!(std::mem::size_of::<Next>() == 8);
const _: () = assert!(std::mem::size_of::<MacAction>() <= 40);
const _: () = assert!(std::mem::size_of::<Work>() <= 56);
const _: () = assert!(std::mem::size_of::<Event>() <= 32);

/// One generation of the FIFO. Six items in ten are carrier-sense edges,
/// nine in ten of them no-ops at the MAC: 8-byte `order` entries that
/// travel in a register. A `Mac` entry point writes its actions straight
/// into `mac`; any other item is copied into `wide`. The lanes hold one
/// item per `Next::Mac` and `Next::Wide` of `order`, in the same order.
#[derive(Default)]
struct Generation {
    order: Vec<Next>,
    mac: Vec<MacAction>,
    wide: Vec<Work>,
}

/// The cross-layer FIFO (see the module doc for its contract), drained one
/// generation at a time: items pushed while a generation is worked through
/// collect in `next`, behind all of it, so the order is exactly one FIFO's.
struct WorkQueue {
    next: Generation,
    /// The last drained generation's emptied vectors, kept for their
    /// capacity; taken while a drain runs, so a nested one is caught.
    spare: Option<Generation>,
}

/// What [`WorkQueue::drain`] applies items to: the network, or a test model.
trait Apply<C> {
    fn queue(&mut self) -> &mut WorkQueue;
    fn channel(&mut self, cx: &mut C, node: u32, busy: bool);
    fn mac(&mut self, cx: &mut C, node: u32, act: MacAction);
    fn wide(&mut self, cx: &mut C, work: Work);
}

impl WorkQueue {
    #[inline]
    fn push(&mut self, work: Work) {
        self.next.order.push(Next::Wide);
        self.next.wide.push(work);
    }

    /// Queue what one routing entry point of `node` asked for.
    #[inline]
    fn push_routing(&mut self, node: u32, actions: &mut Vec<RoutingAction>) {
        for a in actions.drain(..) {
            self.push(Work::Routing(node, Box::new(a)));
        }
    }

    /// Apply every queued item, and every item those produce, in FIFO order.
    fn drain<C>(w: &mut impl Apply<C>, cx: &mut C) {
        let queue = w.queue();
        debug_assert!(queue.spare.is_some(), "WorkQueue::drain re-entered");
        if queue.next.order.is_empty() {
            return; // a stale timer fire, for one, queues nothing
        }
        let mut current = queue.spare.take().unwrap_or_default();
        while !w.queue().next.order.is_empty() {
            std::mem::swap(&mut current, &mut w.queue().next);
            let Generation { order, mac, wide } = &mut current;
            let (mut mac, mut wide) = (mac.drain(..), wide.drain(..));
            for next in order.drain(..) {
                match next {
                    Next::Channel { node, busy } => w.channel(cx, node, busy),
                    Next::Mac { node } => w.mac(cx, node, mac.next().expect("a turn per action")),
                    Next::Wide => w.wide(cx, wide.next().expect("a turn per item")),
                }
            }
        }
        w.queue().spare = Some(current);
    }
}

/// The medium writes its effects straight into the slots they are drained
/// from.
impl EffectSink for WorkQueue {
    // `Medium::{start_tx, rx_end, tx_end}` call this once per effect. A
    // plain `#[inline]` is inlined there or not depending on how the crate
    // happens to split into codegen units; out of line it costs
    // `stack_sweep` about 1.5 % of its wall time.
    #[inline(always)]
    fn push_effect(&mut self, effect: MediumEffect) {
        match effect {
            MediumEffect::Channel { node, busy } => {
                self.next.order.push(Next::Channel { node, busy })
            }
            other => self.push(Work::Medium(other)),
        }
    }
}

impl Apply<Scheduler<Event>> for Network {
    fn queue(&mut self) -> &mut WorkQueue {
        &mut self.work
    }

    fn channel(&mut self, sched: &mut Scheduler<Event>, node: u32, busy: bool) {
        let now = sched.now();
        self.with_mac(node, |mac, out| mac.on_channel(busy, now, out));
    }

    fn mac(&mut self, sched: &mut Scheduler<Event>, node: u32, act: MacAction) {
        self.apply_mac(node, act, sched.now(), sched);
    }

    fn wide(&mut self, sched: &mut Scheduler<Event>, work: Work) {
        match work {
            Work::Routing(node, act) => self.apply_routing(node, *act, sched.now(), sched),
            Work::Medium(eff) => self.apply_medium(eff, sched.now(), sched),
        }
    }
}

/// The simulated network (implements [`World`]).
pub struct Network {
    /// All node stacks.
    pub nodes: Vec<Node>,
    /// The shared radio medium.
    pub medium: Medium,
    /// Positions (kept fresh for mobile nodes by sampling events).
    pub spatial: SpatialIndex,
    /// Per-flow delivery bookkeeping.
    pub tracker: FlowTracker,
    /// Flow emission state.
    pub flows: Vec<FlowState>,
    /// Data-loss counters.
    pub drops: DropCounters,
    /// Fault-injection counters.
    pub faults: FaultCounters,
    /// Per-second delivery events (for convergence/transient views).
    pub delivery_timeline: TimeSeries,
    /// Per-second send events (denominator for PDR-during-outage).
    pub sent_timeline: TimeSeries,
    /// Completed and open outages: `(node, down_s, up_s)`; `None` = still
    /// down at the horizon.
    pub outages: Vec<(u32, f64, Option<f64>)>,
    /// Route-repair latency tracker (fault → next delivery).
    pub recovery: RecoveryTracker,
    /// Events dispatched to this world (mirrors the engine's count; the
    /// world sees every dispatched event exactly once).
    pub events_handled: u64,
    tel: Tel,
    probe_interval: Option<SimDuration>,
    profile: bool,
    /// Wall-clock anchor of the previous engine probe: `(instant, events)`.
    probe_anchor: Option<(std::time::Instant, u64)>,
    traffic_rng: SimRng,
    position_sample: SimDuration,
    /// Ids of nodes with a mobility model, fixed at build time: position
    /// sampling iterates these instead of scanning all N nodes.
    mobile_ids: Vec<u32>,
    /// The cross-layer FIFO (see the module doc for its contract). Empty
    /// between events.
    work: WorkQueue,
    /// Reusable output buffer for the routing entry points, which report
    /// through `&mut Vec`: one short-lived `Vec` per call adds up to
    /// hundreds of thousands of allocations per run. It is filled by one
    /// call and emptied into `work` right after it, so it is empty whenever
    /// the next call borrows it.
    scratch_routing: Vec<RoutingAction>,
    /// One gate per (node, MAC timer kind); see [`TimerGate`].
    timer_gates: Vec<[TimerGate; 3]>,
    /// The expanded fault schedule (empty unless a plan was configured).
    fault_schedule: Vec<TimedFault>,
    /// Stack-reconstruction parameters for reboots (present iff faults
    /// are configured).
    reboot_kit: Option<RebootKit>,
}

/// Heap-traffic gate for MAC timers.
///
/// The DCF re-arms its Main timer on every carrier-sense edge and cancels
/// the previous arming with a generation bump, so under load most scheduled
/// timer events fire stale and no-op — they exist only to be discarded.
/// Instead of pushing every re-arm into the future-event list, the gate
/// keeps the newest request *parked* while an event with an earlier-or-equal
/// deadline is already in flight, and re-issues it when that event fires.
/// A parked request that is superseded before the fire is dropped outright:
/// generations are strictly increasing per kind, so its delivery would have
/// been a stale no-op anyway. The MAC sees exactly the same live-generation
/// `on_timer` calls either way.
#[derive(Clone, Copy, Default)]
struct TimerGate {
    /// Scheduled (not yet fired) events for this (node, kind).
    inflight: u32,
    /// Deadline of the in-flight event; only valid while `known`.
    front_at: SimTime,
    /// True only while exactly one event is in flight and its deadline is
    /// tracked. With two or more in flight the earliest deadline is no
    /// longer cheap to know, so the gate stops parking until they drain
    /// (parking against an unknown deadline could re-issue into the past).
    known: bool,
    /// Parked request `(deadline, gen, incarnation)`, re-issued at the
    /// next fire. Cleared when the node crashes (a dead MAC wants no
    /// timers); the incarnation rides along so a request parked just
    /// before a crash cannot reach the rebooted MAC.
    deferred: Option<(SimTime, u64, u32)>,
}

impl Network {
    /// Assemble a network (used by the scenario builder).
    pub fn new(
        nodes: Vec<Node>,
        medium: Medium,
        spatial: SpatialIndex,
        tracker: FlowTracker,
        flows: Vec<FlowState>,
        traffic_rng: SimRng,
        position_sample: SimDuration,
    ) -> Self {
        let n_nodes = nodes.len();
        let mobile_ids: Vec<u32> = nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.mobility.is_mobile())
            .map(|(i, _)| i as u32)
            .collect();
        Network {
            nodes,
            medium,
            spatial,
            tracker,
            flows,
            drops: DropCounters::default(),
            faults: FaultCounters::default(),
            delivery_timeline: TimeSeries::new(SimDuration::from_secs(1)),
            sent_timeline: TimeSeries::new(SimDuration::from_secs(1)),
            outages: Vec::new(),
            recovery: RecoveryTracker::new(),
            events_handled: 0,
            tel: Tel::off(),
            probe_interval: None,
            profile: false,
            probe_anchor: None,
            traffic_rng,
            position_sample,
            mobile_ids,
            work: WorkQueue {
                next: Generation::default(),
                spare: Some(Generation::default()),
            },
            scratch_routing: Vec::with_capacity(8),
            timer_gates: vec![[TimerGate::default(); 3]; n_nodes],
            fault_schedule: Vec::new(),
            reboot_kit: None,
        }
    }

    /// Install an expanded fault schedule plus the stack-reconstruction
    /// parameters reboots need. The builder primes one `Event::Fault` per
    /// entry; nothing here touches the event list, so an empty schedule
    /// leaves the run byte-identical.
    pub fn set_faults(&mut self, schedule: Vec<TimedFault>, kit: RebootKit) {
        self.fault_schedule = schedule;
        self.reboot_kit = Some(kit);
    }

    /// True if any node can move.
    pub fn any_mobile(&self) -> bool {
        !self.mobile_ids.is_empty()
    }

    /// Wire a telemetry handle through every layer: the medium, each
    /// node's MAC and routing engine (re-homed to its node id), and the
    /// network-level emitters. `probe_interval` enables the periodic
    /// cross-layer probe (the builder primes the first tick); `profile`
    /// additionally samples the event loop itself.
    pub fn set_telemetry(&mut self, tel: Tel, probe_interval: Option<SimDuration>, profile: bool) {
        self.medium.set_telemetry(tel.clone());
        for (i, node) in self.nodes.iter_mut().enumerate() {
            let t = tel.for_node(i as u32);
            node.mac.set_telemetry(t.clone());
            node.routing.set_telemetry(t);
        }
        self.tel = tel;
        self.probe_interval = probe_interval;
        self.profile = profile;
    }

    /// Flush the telemetry sink (end of run).
    pub fn flush_telemetry(&self) {
        self.tel.flush();
    }

    /// Run one telemetry probe tick: sample every node's cross-layer
    /// signals, then (under `profile`) the event loop itself.
    fn telemetry_probe(&mut self, now: SimTime, sched: &mut Scheduler<Event>) {
        for i in 0..self.nodes.len() {
            let cross = self.nodes[i].cross_layer(now);
            let rp = self.nodes[i].routing.probe(&cross, now);
            self.tel.emit_at(
                i as u32,
                now,
                EventKind::NodeProbe {
                    queue: cross.own_load.queue_util,
                    busy: cross.own_load.busy_ratio,
                    load: rp.load,
                    fwd_p: rp.forward_probability,
                },
            );
        }
        if self.profile {
            let wall = std::time::Instant::now();
            let rate = match self.probe_anchor {
                Some((t0, e0)) => {
                    let dt = wall.duration_since(t0).as_secs_f64();
                    if dt > 0.0 {
                        (self.events_handled - e0) as f64 / dt
                    } else {
                        0.0
                    }
                }
                None => 0.0,
            };
            self.probe_anchor = Some((wall, self.events_handled));
            self.tel.emit_at(
                0,
                now,
                EventKind::EngineProbe {
                    events: self.events_handled,
                    rate,
                    heap: sched.pending() as u64,
                },
            );
        }
        if let Some(tick) = self.probe_interval {
            let next = now + tick;
            if next <= sched.horizon() {
                sched.at(next, Event::TelemetryProbe);
            }
        }
    }

    /// Run one MAC entry point of `node`, which queues what it asks for in
    /// the MAC lane (most carrier-sense edges ask for nothing).
    #[inline]
    fn with_mac(&mut self, node: u32, call: impl FnOnce(&mut Mac, &mut Vec<MacAction>)) {
        let from = self.work.next.mac.len();
        call(&mut self.nodes[node as usize].mac, &mut self.work.next.mac);
        for _ in from..self.work.next.mac.len() {
            self.work.next.order.push(Next::Mac { node });
        }
    }

    /// Run one routing entry point of `node` and queue what it asks for.
    #[inline]
    fn with_routing(&mut self, node: u32, call: impl FnOnce(&mut Node, &mut Vec<RoutingAction>)) {
        call(&mut self.nodes[node as usize], &mut self.scratch_routing);
        self.work.push_routing(node, &mut self.scratch_routing);
    }

    fn submit_to_mac(&mut self, node: u32, packet: Packet, dst: MacAddr, now: SimTime) {
        let sdu = self.nodes[node as usize].make_sdu(packet, dst);
        self.with_mac(node, |mac, out| mac.enqueue(sdu, now, out));
    }

    fn apply_mac(&mut self, node: u32, act: MacAction, now: SimTime, sched: &mut Scheduler<Event>) {
        match act {
            MacAction::StartTx(frame) => {
                let payload = if frame.kind == wmn_mac::FrameKind::Data {
                    self.nodes[node as usize]
                        .outgoing
                        .get(&frame.sdu_id)
                        .cloned()
                } else {
                    None
                };
                self.medium
                    .start_tx(node, frame, payload, now, &self.spatial, &mut self.work);
            }
            // Only `on_rx_frame` delivers, and `apply_medium` takes its
            // `Deliver` out of the lane.
            MacAction::Deliver(_) => unreachable!("a Deliver in the MAC lane"),
            MacAction::TxOutcome {
                sdu_id,
                dst,
                ok,
                retries: _,
            } => {
                let payload = self.nodes[node as usize].take_payload(sdu_id);
                if !ok {
                    let payload = payload.map(Arc::unwrap_or_clone);
                    self.with_routing(node, |n, out| {
                        n.routing.on_link_failure(NodeId(dst.0), payload, now, out)
                    });
                }
            }
            MacAction::SetTimer { kind, at, gen } => {
                let inc = self.nodes[node as usize].incarnation;
                let g = &mut self.timer_gates[node as usize][kind as usize];
                if g.known && at >= g.front_at {
                    // An event with an earlier-or-equal deadline is already
                    // in flight: park this request behind it (replacing any
                    // older, now-stale parked one).
                    g.deferred = Some((at, gen, inc));
                } else {
                    g.deferred = None;
                    g.inflight += 1;
                    g.known = g.inflight == 1;
                    g.front_at = at;
                    sched.at(
                        at,
                        Event::MacTimer {
                            node,
                            kind,
                            gen,
                            inc,
                        },
                    );
                }
            }
            // Retry-limit drops are followed by TxOutcome{ok: false},
            // which owns the payload hand-off to routing (the packet's
            // terminal fate — salvage or LinkFailure — is decided there).
            MacAction::Drop {
                reason: DropReason::RetryLimit,
                ..
            } => {}
            MacAction::Drop { sdu_id, reason } => self.drop_sdu(node, sdu_id, now, reason),
        }
    }

    fn apply_routing(
        &mut self,
        node: u32,
        act: RoutingAction,
        now: SimTime,
        sched: &mut Scheduler<Event>,
    ) {
        match act {
            RoutingAction::Broadcast { packet, delay } => {
                if delay.is_zero() {
                    self.submit_to_mac(node, packet, BROADCAST, now);
                } else {
                    let inc = self.nodes[node as usize].incarnation;
                    sched.after(
                        delay,
                        Event::DelayedBroadcast {
                            node,
                            packet: Box::new(packet),
                            inc,
                        },
                    );
                }
            }
            RoutingAction::Unicast { packet, next_hop } => {
                self.submit_to_mac(node, packet, MacAddr(next_hop.0), now);
            }
            RoutingAction::Deliver(data) => {
                self.tel.emit_at(
                    node,
                    now,
                    EventKind::DataDeliver {
                        flow: data.flow.0,
                        seq: data.seq,
                    },
                );
                self.tracker
                    .on_delivered(data.flow, data.created, now, data.payload);
                self.delivery_timeline.mark(now);
                self.recovery.on_delivery(now);
            }
            RoutingAction::SetTimer { timer, at } => {
                let inc = self.nodes[node as usize].incarnation;
                sched.at(at, Event::RoutingTimer { node, timer, inc });
            }
            RoutingAction::DataDropped { packet, reason } => {
                self.drop_data(node, now, reason, &packet);
            }
        }
    }

    /// Count and trace one data packet discarded at `node`.
    fn drop_data(&mut self, node: u32, now: SimTime, reason: DropReason, data: &DataPacket) {
        self.drops.count(reason);
        self.tel.emit_at(
            node,
            now,
            EventKind::DataDrop {
                reason,
                flow: data.flow.0,
                seq: data.seq,
            },
        );
    }

    /// Count and trace the payload of SDU `sdu_id`, discarded at `node`.
    fn drop_sdu(&mut self, node: u32, sdu_id: u64, now: SimTime, reason: DropReason) {
        match self.nodes[node as usize].take_payload(sdu_id).as_deref() {
            Some(Packet::Data(data)) => self.drop_data(node, now, reason, data),
            Some(_) => {
                self.drops.count_ctrl(reason);
                self.tel.emit_at(node, now, EventKind::CtrlDrop { reason });
            }
            None => {}
        }
    }

    fn apply_medium(&mut self, eff: MediumEffect, now: SimTime, sched: &mut Scheduler<Event>) {
        match eff {
            // Queued as `Next::Channel`, never as a wide item; the arm keeps
            // the match total.
            MediumEffect::Channel { node, busy } => self.channel(sched, node, busy),
            MediumEffect::ScheduleTxEnd { node, tx_id, at } => {
                sched.at(at, Event::TxEnd { node, tx_id });
            }
            MediumEffect::ScheduleRxEnd { tx_id, at } => {
                sched.at(at, Event::RxEnd { tx_id });
            }
            MediumEffect::TxComplete { node } => {
                self.with_mac(node, |mac, out| mac.on_tx_complete(now, out));
            }
            MediumEffect::Deliver {
                node,
                frame,
                packet,
                rx_dbm,
            } => {
                // The MAC's verdict is applied here rather than queued: a
                // `Deliver` leaves the lane and goes up to routing at once
                // (only this arm holds the payload), every other action
                // keeps its place in the lane and gets its turn in order.
                let n = &mut self.nodes[node as usize];
                let mut i = self.work.next.mac.len();
                n.mac.on_rx_frame(frame, now, &mut self.work.next.mac);
                while i < self.work.next.mac.len() {
                    let MacAction::Deliver(f) = self.work.next.mac[i] else {
                        self.work.next.order.push(Next::Mac { node });
                        i += 1;
                        continue;
                    };
                    self.work.next.mac.remove(i);
                    let Some(pkt) = packet.as_deref() else {
                        continue;
                    };
                    let mut cross = n.cross_layer(now);
                    cross.last_rx_dbm = Some(rx_dbm);
                    n.routing.on_packet(
                        pkt.clone(),
                        NodeId(f.src.0),
                        &cross,
                        now,
                        &mut self.scratch_routing,
                    );
                    self.work.push_routing(node, &mut self.scratch_routing);
                }
            }
        }
    }

    fn emit_traffic(&mut self, flow_idx: usize, now: SimTime, sched: &mut Scheduler<Event>) {
        let (seq, next) = self.flows[flow_idx].emit(now, &mut self.traffic_rng);
        let spec = *self.flows[flow_idx].spec();
        if let Some(t) = next {
            if t <= sched.horizon() {
                sched.at(t, Event::TrafficEmit { flow_idx });
            }
        }
        // A crashed source offers no load: the flow clock (and its RNG
        // stream) advanced above so emissions resume on schedule at
        // reboot, but nothing is sent or counted while down.
        if self.nodes[spec.src.index()].down {
            return;
        }
        let data = DataPacket {
            flow: spec.id,
            seq,
            src: spec.src,
            dst: spec.dst,
            payload: spec.payload,
            created: now,
        };
        self.tracker.on_sent(spec.id, now);
        self.sent_timeline.mark(now);
        self.tel.emit_at(
            spec.src.0,
            now,
            EventKind::DataOriginate {
                flow: spec.id.0,
                seq,
            },
        );
        self.with_routing(spec.src.0, |n, out| n.routing.send_data(data, now, out));
    }

    fn update_position(&mut self, node: u32, now: SimTime) {
        let n = &mut self.nodes[node as usize];
        let p = n.mobility.position(now);
        self.spatial.update(node as usize, p);
    }

    /// Apply fault-schedule entry `idx` (primed by the builder).
    fn apply_fault(&mut self, idx: u32, now: SimTime, _sched: &mut Scheduler<Event>) {
        let fault = self.fault_schedule[idx as usize];
        match fault.kind {
            FaultKind::NodeDown { node } => self.crash_node(node, now),
            FaultKind::NodeUp { node } => self.reboot_node(node, now),
            FaultKind::NoiseStart {
                id,
                x_m,
                y_m,
                radius_m,
                delta_db,
            } => {
                self.faults.injected += 1;
                self.tel.emit_at(
                    0,
                    now,
                    EventKind::FaultInjected {
                        fault: FaultCode::NoiseStart,
                    },
                );
                // Membership is decided once, at burst onset: a node that
                // wanders in or out keeps its onset-time exposure until the
                // burst ends. Spatial queries return ascending ids, so the
                // medium state is schedule-independent as-is.
                let mut hit = Vec::new();
                self.spatial
                    .query_radius(Vec2::new(x_m, y_m), radius_m, usize::MAX, &mut hit);
                self.medium.apply_noise(id, delta_db, &hit);
            }
            FaultKind::NoiseEnd { id } => {
                self.faults.injected += 1;
                self.tel.emit_at(
                    0,
                    now,
                    EventKind::FaultInjected {
                        fault: FaultCode::NoiseEnd,
                    },
                );
                self.medium.clear_noise(id);
            }
            FaultKind::LinkShift { node, delta_db } => {
                self.faults.injected += 1;
                self.tel.emit_at(
                    node,
                    now,
                    EventKind::FaultInjected {
                        fault: FaultCode::LinkShift,
                    },
                );
                self.medium.shift_node_atten(node, delta_db);
            }
        }
    }

    /// Crash a node: radio off, queues and tables lost, every discard
    /// counted exactly once (packet conservation holds through the crash).
    fn crash_node(&mut self, node: u32, now: SimTime) {
        if self.nodes[node as usize].down {
            return;
        }
        self.faults.node_down += 1;
        let inc = self.nodes[node as usize].incarnation;
        self.tel
            .emit_at(node, now, EventKind::NodeDown { incarnation: inc });
        self.nodes[node as usize].down = true;
        // Parked timer requests die with the incarnation. In-flight timer
        // events still drain through the gates; the stale-incarnation check
        // at fire time keeps them away from the rebooted MAC.
        for g in &mut self.timer_gates[node as usize] {
            g.deferred = None;
        }
        // Radio off: abort any frame mid-air, strip the node from every
        // in-flight reception, silence its carrier sense.
        self.medium.set_node_down(node, now, &mut self.work);
        // Everything queued at the interface dies with the node. A hash
        // map's iteration order is no order, so drain in sdu-id (= enqueue)
        // order to keep traces deterministic.
        let mut sdus: Vec<u64> = self.nodes[node as usize].outgoing.keys().copied().collect();
        sdus.sort_unstable();
        for sdu in sdus {
            self.drop_sdu(node, sdu, now, DropReason::NodeDown);
        }
        // Data parked in the routing layer awaiting route discovery is
        // lost too (disjoint from the interface queue drained above).
        for data in self.nodes[node as usize].routing.drain_buffered() {
            self.drop_data(node, now, DropReason::NodeDown, &data);
        }
        self.recovery.on_fault(now);
        self.outages.push((node, now.as_secs_f64(), None));
    }

    /// Reboot a crashed node with cold protocol state (fresh incarnation,
    /// fresh RNG streams, empty tables), and restart its routing layer.
    fn reboot_node(&mut self, node: u32, now: SimTime) {
        if !self.nodes[node as usize].down {
            return;
        }
        self.faults.node_up += 1;
        let (seed, mac, routing, policy) = {
            let kit = self
                .reboot_kit
                .as_ref()
                .expect("node reboot without a reboot kit");
            (
                kit.master_seed,
                kit.mac.clone(),
                kit.routing.clone(),
                kit.scheme.build(),
            )
        };
        self.nodes[node as usize].reboot(seed, mac, routing, policy);
        let t = self.tel.for_node(node);
        self.nodes[node as usize].mac.set_telemetry(t.clone());
        self.nodes[node as usize].routing.set_telemetry(t);
        self.medium.set_node_up(node, now);
        let inc = self.nodes[node as usize].incarnation;
        self.tel
            .emit_at(node, now, EventKind::NodeUp { incarnation: inc });
        self.with_routing(node, |n, out| n.routing.start(now, out));
        if let Some(o) = self
            .outages
            .iter_mut()
            .rev()
            .find(|o| o.0 == node && o.2.is_none())
        {
            o.2 = Some(now.as_secs_f64());
        }
    }
}

impl World for Network {
    type Event = Event;

    fn handle(&mut self, event: Event, sched: &mut Scheduler<Event>) {
        let now = sched.now();
        self.events_handled += 1;
        match event {
            Event::MacTimer {
                node,
                kind,
                gen,
                inc,
            } => {
                let g = &mut self.timer_gates[node as usize][kind as usize];
                debug_assert!(g.inflight > 0, "timer fire with empty gate");
                g.inflight -= 1;
                g.known = false;
                if let Some((at, dgen, dinc)) = g.deferred.take() {
                    // A parked request can only exist behind a single
                    // in-flight event, so the gate is empty here and the
                    // re-issue (at `at >= now`) becomes its sole occupant.
                    g.inflight += 1;
                    g.known = g.inflight == 1;
                    g.front_at = at;
                    sched.at(
                        at,
                        Event::MacTimer {
                            node,
                            kind,
                            gen: dgen,
                            inc: dinc,
                        },
                    );
                }
                // Timers scheduled by a previous incarnation (or while the
                // node is dead) must not fire into the fresh MAC state: the
                // gate bookkeeping above still drains, the callback doesn't.
                let n = &self.nodes[node as usize];
                if n.down || inc != n.incarnation {
                    return;
                }
                self.with_mac(node, |mac, out| mac.on_timer(kind, gen, now, out));
            }
            Event::RoutingTimer { node, timer, inc } => {
                let n = &self.nodes[node as usize];
                if n.down || inc != n.incarnation {
                    return;
                }
                self.with_routing(node, |n, out| {
                    let cross = n.cross_layer(now);
                    n.routing.on_timer(timer, &cross, now, out)
                });
            }
            Event::TxEnd { node: _, tx_id } => {
                self.medium.tx_end(tx_id, now, &mut self.work);
            }
            Event::RxEnd { tx_id } => {
                self.medium.rx_end(tx_id, now, &mut self.work);
            }
            Event::DelayedBroadcast { node, packet, inc } => {
                let n = &self.nodes[node as usize];
                if n.down || inc != n.incarnation {
                    // Control traffic queued by a dead incarnation is
                    // silently dropped: it was never counted as enqueued.
                    return;
                }
                self.submit_to_mac(node, *packet, BROADCAST, now);
            }
            Event::Fault { idx } => {
                self.apply_fault(idx, now, sched);
            }
            Event::TrafficEmit { flow_idx } => {
                self.emit_traffic(flow_idx, now, sched);
            }
            Event::MobilityUpdate { node } => {
                let Node {
                    mobility,
                    mobility_rng,
                    ..
                } = &mut self.nodes[node as usize];
                mobility.advance(now, mobility_rng);
                self.update_position(node, now);
                let next = self.nodes[node as usize].mobility.next_update();
                if next < sched.horizon() && next != SimTime::MAX {
                    sched.at(next, Event::MobilityUpdate { node });
                }
            }
            Event::PositionSample => {
                // Only the mobile minority can have drifted; the id list is
                // fixed at build time, so iterate it instead of scanning
                // all N nodes every sample tick.
                let mut mobile = std::mem::take(&mut self.mobile_ids);
                for &i in &mobile {
                    self.update_position(i, now);
                }
                std::mem::swap(&mut self.mobile_ids, &mut mobile);
                let next = now + self.position_sample;
                if next <= sched.horizon() {
                    sched.at(next, Event::PositionSample);
                }
            }
            Event::TelemetryProbe => {
                self.telemetry_probe(now, sched);
            }
        }
        WorkQueue::drain(self, sched);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;
    use wmn_mac::TimerKind;

    /// How a work item is queued: a carrier-sense edge, a MAC action or a
    /// wide item.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Kind {
        Edge,
        Mac,
        Wide,
    }

    fn kind(k: u8) -> Kind {
        [Kind::Edge, Kind::Mac, Kind::Wide][k as usize % 3]
    }

    /// A random tree of work items. Ids are handed out in push order;
    /// applying item `id` pushes the children `plan[id % plan.len()]`
    /// names, until `cap` items exist. A run of MAC children is appended
    /// to the lane by one call, as one `Mac` entry point's actions are.
    struct Tree {
        queue: WorkQueue,
        plan: Vec<Vec<u8>>,
        cap: u32,
        created: u32,
        applied: Vec<(Kind, u32)>,
    }

    impl Tree {
        fn push_children(&mut self, parent: u32, kinds: &[u8]) {
            let mut mac_from = None;
            for &k in kinds {
                if self.created == self.cap {
                    break;
                }
                let id = self.created;
                self.created += 1;
                let kind = kind(k);
                if kind != Kind::Mac {
                    if let Some(from) = mac_from.take() {
                        self.queue.next.order.extend(
                            (from..self.queue.next.mac.len()).map(|_| Next::Mac { node: parent }),
                        );
                    }
                }
                let at = SimTime(id as u64);
                match kind {
                    Kind::Edge => self.queue.push_effect(MediumEffect::Channel {
                        node: id,
                        busy: id.is_multiple_of(2),
                    }),
                    Kind::Mac => {
                        mac_from.get_or_insert(self.queue.next.mac.len());
                        self.queue.next.mac.push(MacAction::SetTimer {
                            kind: TimerKind::Main,
                            at,
                            gen: id as u64,
                        });
                    }
                    Kind::Wide => self.queue.push_effect(MediumEffect::ScheduleRxEnd {
                        tx_id: id as u64,
                        at,
                    }),
                }
            }
            if let Some(from) = mac_from {
                self.queue
                    .next
                    .order
                    .extend((from..self.queue.next.mac.len()).map(|_| Next::Mac { node: parent }));
            }
        }

        fn apply(&mut self, kind: Kind, id: u32) {
            self.applied.push((kind, id));
            let children = self.plan[id as usize % self.plan.len()].clone();
            self.push_children(id, &children);
        }
    }

    impl Apply<()> for Tree {
        fn queue(&mut self) -> &mut WorkQueue {
            &mut self.queue
        }

        fn channel(&mut self, _: &mut (), node: u32, busy: bool) {
            assert_eq!(busy, node.is_multiple_of(2));
            self.apply(Kind::Edge, node);
        }

        fn mac(&mut self, _: &mut (), _node: u32, act: MacAction) {
            let MacAction::SetTimer { gen, .. } = act else {
                panic!("the tree queues only timer requests, got {act:?}");
            };
            self.apply(Kind::Mac, gen as u32);
        }

        fn wide(&mut self, _: &mut (), work: Work) {
            let Work::Medium(MediumEffect::ScheduleRxEnd { tx_id, .. }) = work else {
                panic!("the tree queues only reception ends as wide items");
            };
            self.apply(Kind::Wide, tx_id as u32);
        }
    }

    /// The same tree through one `VecDeque`, the FIFO by definition.
    fn fifo_order(plan: &[Vec<u8>], roots: &[u8], cap: u32, created: &mut u32) -> Vec<(Kind, u32)> {
        let mut fifo = VecDeque::new();
        let mut push = |fifo: &mut VecDeque<(Kind, u32)>, kinds: &[u8]| {
            for &k in kinds {
                if *created == cap {
                    break;
                }
                fifo.push_back((kind(k), *created));
                *created += 1;
            }
        };
        push(&mut fifo, roots);
        let mut order = Vec::new();
        while let Some((k, id)) = fifo.pop_front() {
            order.push((k, id));
            push(&mut fifo, &plan[id as usize % plan.len()]);
        }
        order
    }

    /// A drain started from inside another would apply the next
    /// generation before the current one is done.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "re-entered")]
    fn a_nested_drain_is_refused() {
        struct Nested(WorkQueue);
        impl Apply<()> for Nested {
            fn queue(&mut self) -> &mut WorkQueue {
                &mut self.0
            }
            fn channel(&mut self, cx: &mut (), _: u32, _: bool) {
                WorkQueue::drain(self, cx);
            }
            fn mac(&mut self, _: &mut (), _: u32, _: MacAction) {}
            fn wide(&mut self, _: &mut (), _: Work) {}
        }
        let mut nested = Nested(WorkQueue {
            next: Generation::default(),
            spare: Some(Generation::default()),
        });
        nested.0.push_effect(MediumEffect::Channel {
            node: 0,
            busy: true,
        });
        WorkQueue::drain(&mut nested, &mut ());
    }

    proptest! {
        /// The generational drain applies a random tree's items — edges,
        /// MAC actions in batches, wide items — in the order one FIFO
        /// does, twice in a row (the second drain runs on the first's
        /// recycled vectors), and leaves the queue empty.
        #[test]
        fn generations_apply_items_in_fifo_order(
            plan in prop::collection::vec(prop::collection::vec(0u8..3, 0..5), 1..24),
            roots in prop::collection::vec(0u8..3, 1..6),
            cap in 1u32..600,
        ) {
            let mut tree = Tree {
                queue: WorkQueue { next: Generation::default(), spare: Some(Generation::default()) },
                plan: plan.clone(),
                cap,
                created: 0,
                applied: Vec::new(),
            };
            let mut model_created = 0;
            for round in 0..2 {
                tree.applied.clear();
                tree.cap = cap * (round + 1);
                tree.push_children(u32::MAX, &roots);
                WorkQueue::drain(&mut tree, &mut ());
                let expected = fifo_order(&plan, &roots, cap * (round + 1), &mut model_created);
                prop_assert_eq!(&tree.applied, &expected);
                prop_assert!(tree.queue.next.order.is_empty());
                prop_assert!(tree.queue.next.mac.is_empty() && tree.queue.next.wide.is_empty());
                prop_assert!(tree.queue.spare.is_some());
            }
        }
    }
}
