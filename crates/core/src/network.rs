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
use std::collections::VecDeque;
use std::sync::Arc;
use wmn_faults::{FaultKind, TimedFault};
use wmn_mac::{Mac, MacAction, MacAddr, MacParams, TimerKind, BROADCAST};
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

/// One queued unit of cross-layer work other than a carrier-sense edge.
/// Every item is written once and read once, so it is kept small: a frame's
/// payload is shared by its receivers (`Arc<Packet>` inside
/// `MediumEffect::Deliver`) and the wide, comparatively rare routing
/// actions are boxed.
enum Work {
    Mac(u32, MacAction),
    Routing(u32, Box<RoutingAction>),
    Medium(MediumEffect),
}

/// What comes next in the FIFO: a carrier-sense edge, carried right here,
/// or the front of [`WorkQueue::wide`].
#[derive(Clone, Copy)]
enum Next {
    Channel { node: u32, busy: bool },
    Wide,
}

// Enum bloat multiplies into every queued item and every future-event-list
// move; these fail the build instead of a benchmark.
const _: () = assert!(std::mem::size_of::<Next>() == 8);
const _: () = assert!(std::mem::size_of::<Work>() <= 56);
const _: () = assert!(std::mem::size_of::<Event>() <= 32);

/// The cross-layer FIFO (see the module doc for its contract).
///
/// Six items in ten are carrier-sense edges, and nine of those ten change
/// nothing at the MAC. They are queued as 8-byte `Next::Channel` entries of
/// `order`, which travel in a register; a wider item is an enum that is
/// assembled on the stack and copied into its slot, so it waits in `wide`
/// and `order` only records its turn. The two deques together are one
/// queue: `wide` holds exactly one item per `Next::Wide` in `order`, in the
/// same order.
struct WorkQueue {
    order: VecDeque<Next>,
    wide: VecDeque<Work>,
}

impl WorkQueue {
    fn new() -> Self {
        WorkQueue {
            order: VecDeque::with_capacity(64),
            wide: VecDeque::with_capacity(64),
        }
    }

    #[inline]
    fn push(&mut self, work: Work) {
        self.order.push_back(Next::Wide);
        self.wide.push_back(work);
    }

    /// Queue what one routing entry point of `node` asked for.
    #[inline]
    fn push_routing(&mut self, node: u32, actions: &mut Vec<RoutingAction>) {
        for a in actions.drain(..) {
            self.push(Work::Routing(node, Box::new(a)));
        }
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
                self.order.push_back(Next::Channel { node, busy })
            }
            other => self.push(Work::Medium(other)),
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
    /// Reusable output buffers for the MAC and routing entry points, which
    /// report through `&mut Vec`: one short-lived `Vec` per call adds up to
    /// hundreds of thousands of allocations per run. Each is filled by one
    /// layer call and emptied into `work` right after it, so it is empty
    /// whenever the next call borrows it.
    scratch_mac: Vec<MacAction>,
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

fn timer_ix(kind: TimerKind) -> usize {
    match kind {
        TimerKind::Main => 0,
        TimerKind::Ack => 1,
        TimerKind::Nav => 2,
    }
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
            work: WorkQueue::new(),
            scratch_mac: Vec::with_capacity(8),
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

    /// The installed fault schedule (empty without a fault plan).
    pub fn fault_schedule(&self) -> &[TimedFault] {
        &self.fault_schedule
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

    fn drain(&mut self, sched: &mut Scheduler<Event>) {
        let now = sched.now();
        while let Some(next) = self.work.order.pop_front() {
            if let Next::Channel { node, busy } = next {
                self.on_channel(node, busy, now);
                continue;
            }
            match self.work.wide.pop_front() {
                Some(Work::Mac(node, act)) => self.apply_mac(node, act, now, sched),
                Some(Work::Routing(node, act)) => self.apply_routing(node, *act, now, sched),
                Some(Work::Medium(eff)) => self.apply_medium(eff, now, sched),
                None => unreachable!("`order` promised a wide item"),
            }
        }
    }

    /// A carrier-sense edge reaches `node`'s MAC.
    #[inline]
    fn on_channel(&mut self, node: u32, busy: bool, now: SimTime) {
        self.with_mac(node, |mac, out| mac.on_channel(busy, now, out));
    }

    /// Run one MAC entry point of `node` and queue what it asks for (most
    /// carrier-sense edges ask for nothing).
    #[inline]
    fn with_mac(&mut self, node: u32, call: impl FnOnce(&mut Mac, &mut Vec<MacAction>)) {
        call(&mut self.nodes[node as usize].mac, &mut self.scratch_mac);
        for a in self.scratch_mac.drain(..) {
            self.work.push(Work::Mac(node, a));
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
            MacAction::Deliver(frame) => {
                // Deliveries are normally intercepted in `apply_medium`; a
                // bare Deliver without payload can only be an ACK-free test
                // path — ignore defensively.
                debug_assert!(frame.sdu_id != 0, "unexpected bare Deliver");
            }
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
                let g = &mut self.timer_gates[node as usize][timer_ix(kind)];
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
            MediumEffect::Channel { node, busy } => self.on_channel(node, busy, now),
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
                // `Deliver` goes up to routing at once (only this arm holds
                // the payload), everything else joins the FIFO in order.
                let n = &mut self.nodes[node as usize];
                n.mac.on_rx_frame(frame, now, &mut self.scratch_mac);
                for a in self.scratch_mac.drain(..) {
                    let MacAction::Deliver(f) = a else {
                        self.work.push(Work::Mac(node, a));
                        continue;
                    };
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
                let g = &mut self.timer_gates[node as usize][timer_ix(kind)];
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
        self.drain(sched);
    }
}
