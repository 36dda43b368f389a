//! The shared radio medium.
//!
//! Tracks which transmissions are in the air, what power each receiver sees,
//! carrier-sense state, and per-reception outcomes (capture / collision /
//! noise). Pure bookkeeping: the network layer turns the returned
//! [`MediumEffect`]s into engine events and MAC calls.
//!
//! Reception model (ns-2 lineage, documented in DESIGN.md):
//! * a signal is *sensible* when its receive power ≥ the carrier-sense
//!   threshold; only sensible signals are tracked,
//! * an idle, non-transmitting radio locks onto a decodable
//!   (≥ receive-threshold) signal at its onset,
//! * a later overlapping signal within `capture_threshold_db` of the locked
//!   signal corrupts it (collision); a signal *stronger* by at least the
//!   capture threshold steals the receiver (capture),
//! * at reception end a surviving frame faces the noise-only BER draw,
//! * radios are half duplex: transmitting aborts and forbids reception.

use crate::energy::{EnergyMeter, EnergyParams, RadioMode};
use std::sync::Arc;
use wmn_mac::{FrameKind, MacFrame};
use wmn_radio::{frame as radio_frame, PhyParams, Rate};
use wmn_routing::Packet;
use wmn_sim::{IdMap, SimDuration, SimRng, SimTime};
use wmn_telemetry::{EventKind, Tel};
use wmn_topology::{SpatialIndex, Vec2};

/// An in-flight transmission.
#[derive(Clone, Debug)]
struct ActiveTx {
    src: u32,
    frame: MacFrame,
    packet: Option<Arc<Packet>>,
    /// Every radio that sensed the frame, in ascending id order. All their
    /// reception windows close at the same instant (fixed propagation
    /// allowance), so one batched RxEnd event serves the whole list.
    receivers: Vec<u32>,
}

/// A reception attempt in progress at one radio.
#[derive(Clone, Copy, Debug)]
struct RxAttempt {
    tx_id: u64,
    power_dbm: f64,
    corrupted: bool,
}

/// Per-node radio state.
#[derive(Clone, Debug, Default)]
struct RadioState {
    transmitting: Option<u64>,
    /// Sensible signals currently impinging. Carrier sense only asks
    /// whether there are any, so the signals themselves are not kept.
    n_signals: u32,
    /// `next_tx_id` as of this radio's last crash, which forgot every signal
    /// it had. A signal is added once per id, so `tx_id >= clear_mark` says
    /// exactly "this radio still counts `tx_id`".
    clear_mark: u64,
    receiving: Option<RxAttempt>,
    sensed_busy: bool,
    /// The id list the counter replaced, kept as that list was kept:
    /// `update_sense` holds the counter against it in test builds.
    #[cfg(test)]
    oracle: Vec<u64>,
}

// `start_tx` and `rx_end` visit a dozen radios per frame, each a cache miss
// on a large mesh: a radio's state stays within one 64 B line.
#[cfg(not(test))]
const _: () = assert!(std::mem::size_of::<RadioState>() <= 64);

impl RadioState {
    fn add_signal(&mut self, tx_id: u64) {
        debug_assert!(tx_id >= self.clear_mark);
        self.n_signals += 1;
        #[cfg(test)]
        self.oracle.push(tx_id);
    }

    /// Stop counting `tx_id`, unless a crash since its onset already did.
    fn remove_signal(&mut self, tx_id: u64) {
        #[cfg(test)]
        if let Some(pos) = self.oracle.iter().position(|&id| id == tx_id) {
            self.oracle.swap_remove(pos);
        }
        if tx_id >= self.clear_mark {
            debug_assert!(self.n_signals > 0, "signal counter underflow");
            self.n_signals -= 1;
        }
    }

    /// The radio crashed, with ids below `next_tx_id` handed out so far.
    fn clear_signals(&mut self, next_tx_id: u64) {
        self.n_signals = 0;
        self.clear_mark = next_tx_id;
        #[cfg(test)]
        self.oracle.clear();
    }
}

/// Medium loss/delivery counters (inputs to several figures).
#[derive(Clone, Copy, Debug, Default)]
pub struct MediumStats {
    /// Transmissions started.
    pub tx_started: u64,
    /// Frame receptions destroyed by collision.
    pub collisions: u64,
    /// Receptions stolen by a stronger frame (counted once per loser).
    pub captures: u64,
    /// Frames lost to the noise draw.
    pub noise_losses: u64,
    /// Frames delivered to a MAC.
    pub delivered: u64,
    /// Receptions aborted because the radio started transmitting.
    pub aborted_by_tx: u64,
    /// Signal onsets ignored because the radio was already transmitting.
    pub missed_while_tx: u64,
    /// Perf counter: deterministic link-budget (pathloss) evaluations.
    /// On a static topology this stops growing once every transmitter has
    /// warmed its cache line — the per-tx hot path then performs zero
    /// `log10` evaluations.
    pub pathloss_evals: u64,
    /// Perf counter: transmissions served entirely from the link cache.
    pub link_cache_hits: u64,
    /// Perf counter: link budgets consumed (Σ sensible receivers per
    /// transmission). With `pathloss_evals` this yields the budget-level
    /// reuse rate `1 − evals/budgets`: the fraction of per-receiver
    /// budgets served from memory. Identical cached/uncached (the entry
    /// lists are identical), unlike the eval/hit counters.
    pub link_budgets: u64,
}

impl MediumStats {
    /// Visit every physics counter as a stable snake_case `(name, value)`
    /// pair — the export consumed by the unified `wmn_telemetry::Counters`
    /// registry. The perf counters (`pathloss_evals`, `link_cache_hits`)
    /// are deliberately excluded: they vary with the cache setting while
    /// the physics must not, and manifests should agree across both.
    /// Names are part of the trace/manifest format; do not rename without
    /// updating `counter_for_event`.
    pub fn visit(&self, f: &mut dyn FnMut(&'static str, u64)) {
        f("phy_tx_started", self.tx_started);
        f("phy_collisions", self.collisions);
        f("phy_captures", self.captures);
        f("phy_noise_losses", self.noise_losses);
        f("phy_delivered", self.delivered);
        f("phy_aborted_by_tx", self.aborted_by_tx);
        f("phy_missed_while_tx", self.missed_while_tx);
    }
}

impl MediumStats {
    /// The physics outcome counters (everything except the perf counters).
    ///
    /// Cached and uncached runs of the same seed must agree on these
    /// exactly; they intentionally differ on `pathloss_evals` /
    /// `link_cache_hits`.
    pub fn physics(&self) -> [u64; 7] {
        [
            self.tx_started,
            self.collisions,
            self.captures,
            self.noise_losses,
            self.delivered,
            self.aborted_by_tx,
            self.missed_while_tx,
        ]
    }
}

/// Memoized link budgets for one transmitter.
///
/// Validity is checked at two levels. **L1** (O(1), the static fast path):
/// the global position epoch and global gain-event count are unchanged, so
/// *nothing* in the world moved or faulted. **L2** (neighbourhood-sharded):
/// the transmitter itself is where it was (`src_pos` bit-equal) and the
/// epoch-sums over the grid cells covering its interference disc — position
/// epochs plus the medium's per-cell fault-gain epochs — match the sums at
/// compute time. Cell epochs are monotone, so for the fixed rectangle an
/// unchanged sum proves no node moved or changed gain in, into, or out of
/// the disc; a mobile client or crash on the far side of the field no
/// longer touches this transmitter's cache. The `src_pos` guard is what
/// pins the rectangle: if the transmitter moved, sums over *different*
/// rectangles could coincide.
#[derive(Clone, Debug)]
struct CachedLinks {
    /// Global position epoch at compute time (`u64::MAX` = never).
    epoch: u64,
    /// Global gain-event count at compute time.
    gain_events: u64,
    /// Transmitter position the entries were computed at (NaN = never,
    /// which can never compare equal).
    src_pos: Vec2,
    /// Transmitter gain version at compute time.
    src_gain_ver: u64,
    /// Position epoch-sum over the disc's cell rectangle at compute time.
    pos_sum: u64,
    /// Fault-gain epoch-sum over the same rectangle at compute time.
    gain_sum: u64,
    /// Sensible receivers in ascending id order.
    entries: Vec<LinkEntry>,
}

/// One memoized link budget. `rx_dbm` is a pure function of the two
/// endpoint positions and gain states, so an entry whose receiver is
/// bit-identically where it was (and at the same gain version) can be
/// reused without re-evaluating the pathloss — even when *other* nodes in
/// the transmitter's disc moved. This per-entry reuse is what keeps the
/// recompute cost proportional to the disturbance, not the disc population.
#[derive(Clone, Copy, Debug)]
struct LinkEntry {
    /// Receiver id.
    r: u32,
    /// Receive power at `r`, dBm.
    rx_dbm: f64,
    /// Receiver position the budget was evaluated at.
    rx_pos: Vec2,
    /// Receiver gain version the budget was evaluated at.
    gain_ver: u64,
}

/// An exported link-budget cache: the warm state of one medium's
/// per-transmitter memo, transferable to another run over the *same*
/// topology (see [`Medium::export_link_cache`] /
/// [`Medium::import_link_cache`]). Opaque by design — the validity rules
/// live with the cache implementation.
#[derive(Clone, Debug)]
pub struct LinkCacheSnapshot {
    links: Vec<CachedLinks>,
}

impl LinkCacheSnapshot {
    /// Number of transmitters whose cache line is warm (has been computed
    /// at least once).
    pub fn warmed(&self) -> usize {
        self.links.iter().filter(|c| !c.src_pos.x.is_nan()).count()
    }
}

impl CachedLinks {
    fn empty() -> Self {
        CachedLinks {
            epoch: u64::MAX,
            gain_events: u64::MAX,
            src_pos: Vec2::new(f64::NAN, f64::NAN),
            src_gain_ver: 0,
            pos_sum: 0,
            gain_sum: 0,
            entries: Vec::new(),
        }
    }
}

/// One remembered noise-only packet-error rate.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct PerSlot {
    /// `power_dbm.to_bits()` of the locked signal.
    power_bits: u64,
    /// `bits << 2 | rate` of the frame.
    frame_key: u64,
    per: f64,
}

/// Exact direct-mapped memo of `rate.per(phy.sinr(power_dbm, 0.0), bits)`.
///
/// That expression is a pure function of its three arguments (the PHY is
/// fixed for the medium's lifetime) and costs five libm calls, while a mesh
/// keeps presenting the same few thousand (link budget, frame size) pairs.
/// A slot is only ever trusted on an exact key match, so a hit returns the
/// bits the expression would have produced and a collision merely
/// recomputes. The all-zero initial slot needs no "empty" marker: it is the
/// key (+0.0 dBm, DBPSK, 0 bits), whose PER is exactly 0.0 at any power.
#[derive(Clone, Debug)]
struct PerMemo {
    /// Empty until the first lookup, so building a medium (and a run that
    /// never adjudicates a reception) neither fills nor touches the table.
    slots: Vec<PerSlot>,
    /// Slot count once allocated, a power of two.
    len: usize,
}

impl PerMemo {
    /// A table for `n` radios. A radio decodes about a dozen neighbours at
    /// four or five frame sizes, so 64 slots per radio keep a static mesh's
    /// keys mostly apart (24 B each: 96 KiB for 64 routers); the cap bounds
    /// a large mesh at 1.5 MiB.
    fn new(n: usize) -> Self {
        PerMemo {
            slots: Vec::new(),
            len: (64 * n).next_power_of_two().clamp(1 << 10, 1 << 16),
        }
    }

    fn slot_of(&self, power_bits: u64, frame_key: u64) -> usize {
        let h = (power_bits ^ frame_key.rotate_left(32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> (64 - self.len.trailing_zeros())) as usize
    }

    fn noise_only_per(&mut self, phy: &PhyParams, power_dbm: f64, rate: Rate, bits: usize) -> f64 {
        if self.slots.is_empty() {
            self.slots = vec![PerSlot::default(); self.len];
        }
        let power_bits = power_dbm.to_bits();
        let frame_key = (bits as u64) << 2 | rate as u64;
        let at = self.slot_of(power_bits, frame_key);
        let slot = &mut self.slots[at];
        if slot.power_bits != power_bits || slot.frame_key != frame_key {
            *slot = PerSlot {
                power_bits,
                frame_key,
                per: rate.per(phy.sinr(power_dbm, 0.0), bits),
            };
        }
        slot.per
    }
}

/// What the network layer must do after a medium call.
#[derive(Clone, Debug)]
pub enum MediumEffect {
    /// Physical-carrier-sense transition at `node`.
    Channel {
        /// Affected node.
        node: u32,
        /// New sensed state.
        busy: bool,
    },
    /// Schedule the end-of-transmission event.
    ScheduleTxEnd {
        /// Transmitter.
        node: u32,
        /// Transmission id.
        tx_id: u64,
        /// Absolute time.
        at: SimTime,
    },
    /// Schedule the batched end-of-reception event for a transmission.
    ///
    /// All receivers of one frame close their reception windows at the same
    /// instant, so a single event covers every radio that sensed it — this
    /// keeps the future-event list ~an order of magnitude smaller than a
    /// per-receiver schedule.
    ScheduleRxEnd {
        /// Transmission id.
        tx_id: u64,
        /// Absolute time.
        at: SimTime,
    },
    /// The transmitter's own frame left the air.
    TxComplete {
        /// Transmitter.
        node: u32,
    },
    /// A frame was successfully decoded at `node`.
    Deliver {
        /// Receiver.
        node: u32,
        /// Link-layer frame.
        frame: MacFrame,
        /// Network payload (`None` for control frames), shared between
        /// every receiver of the transmission.
        packet: Option<Arc<Packet>>,
        /// Receive power, dBm (the RSSI handed to cross-layer consumers).
        rx_dbm: f64,
    },
}

/// Where a medium call writes its effects, in the order they take place.
///
/// The network implements this on its cross-layer work queue, so an effect
/// is written once, straight into the slot it is drained from; a plain
/// `Vec<MediumEffect>` collects them for tests and unit benchmarks.
pub trait EffectSink {
    /// Append one effect.
    fn push_effect(&mut self, effect: MediumEffect);
}

impl EffectSink for Vec<MediumEffect> {
    #[inline]
    fn push_effect(&mut self, effect: MediumEffect) {
        self.push(effect);
    }
}

/// The medium.
pub struct Medium {
    phy: PhyParams,
    /// Fixed air-propagation allowance added to every reception.
    prop: SimDuration,
    states: Vec<RadioState>,
    active: IdMap<u64, ActiveTx>,
    next_tx_id: u64,
    rng: SimRng,
    stats: MediumStats,
    /// Cached interference cutoff (metres).
    interference_range: f64,
    /// Query slack for mobile nodes between position samples (metres).
    range_slack: f64,
    /// Scratch buffer for neighbour queries.
    scratch: Vec<u32>,
    /// Scratch buffer for partial cache rebuilds.
    scratch_entries: Vec<LinkEntry>,
    /// Per-transmitter link-budget cache, keyed on the spatial epoch.
    links: Vec<CachedLinks>,
    /// Whether the link cache is consulted (disable to cross-check
    /// determinism; results must be bit-identical either way).
    cache_enabled: bool,
    energy_params: EnergyParams,
    energy: Vec<EnergyMeter>,
    tel: Tel,
    /// Per-node crashed flag (fault schedule): a down radio neither
    /// transmits, senses, nor receives.
    down: Vec<bool>,
    /// Per-node extra pathloss, dB (link-flap faults; applied to every
    /// frame the node sends or receives).
    node_atten_db: Vec<f64>,
    /// Per-node extra noise floor, dB above thermal (noise-burst faults).
    extra_noise_db: Vec<f64>,
    /// Active noise bursts: id → (delta_db, affected nodes), so the
    /// matching burst end can subtract exactly what it added.
    bursts: IdMap<u32, (f64, Vec<u32>)>,
    /// Count of gain-affecting fault events (crash/reboot/attenuation
    /// shift). Constant 0 in no-fault runs; the L1 cache key.
    gain_events: u64,
    /// Per-node gain versions: how many gain events have hit each node.
    gain_version: Vec<u64>,
    /// Per-cell gain epochs mirroring the spatial index's cell geometry
    /// (lazily sized on the first fault; empty means "no gain event ever").
    /// A node's gain bump lands in the cell it currently occupies, so the
    /// disc rect-sum scopes fault invalidation exactly like movement.
    gain_cells: Vec<u64>,
    /// True once any fault touched the medium (relaxes the unknown-tx
    /// assertions: a crash mid-transmission retires the record before its
    /// TxEnd/RxEnd events fire).
    faults_seen: bool,
    per_memo: PerMemo,
}

impl Medium {
    /// Create a medium for `n` radios.
    pub fn new(phy: PhyParams, n: usize, rng: SimRng, range_slack: f64) -> Self {
        let interference_range = phy.interference_range_m();
        Medium {
            phy,
            prop: SimDuration::from_micros(radio_frame::PROPAGATION_US),
            states: vec![RadioState::default(); n],
            active: IdMap::default(),
            next_tx_id: 0,
            rng,
            stats: MediumStats::default(),
            interference_range,
            range_slack,
            scratch: Vec::new(),
            scratch_entries: Vec::new(),
            links: vec![CachedLinks::empty(); n],
            cache_enabled: true,
            energy_params: EnergyParams::default(),
            energy: vec![EnergyMeter::new(SimTime::ZERO); n],
            tel: Tel::off(),
            down: vec![false; n],
            node_atten_db: vec![0.0; n],
            extra_noise_db: vec![0.0; n],
            bursts: IdMap::default(),
            gain_events: 0,
            gain_version: vec![0; n],
            gain_cells: Vec::new(),
            faults_seen: false,
            per_memo: PerMemo::new(n),
        }
    }

    /// Attach a telemetry handle (disabled by default). The medium emits
    /// on behalf of many nodes, so events are attributed explicitly.
    pub fn set_telemetry(&mut self, tel: Tel) {
        self.tel = tel;
    }

    /// Enable or disable the link-budget cache (enabled by default).
    ///
    /// Disabling recomputes every link budget per transmission — useful only
    /// to cross-check that cached runs are bit-identical.
    pub fn with_link_cache(mut self, enabled: bool) -> Self {
        self.cache_enabled = enabled;
        self
    }

    /// Export the per-transmitter link-budget cache for warm-starting an
    /// identical-topology run (see [`Medium::import_link_cache`]).
    ///
    /// Returns `None` when there is nothing safely transferable: the cache
    /// is disabled, or faults/gain events have touched this medium (a
    /// donor with gain history would smuggle stale epoch keys into a fresh
    /// world).
    pub fn export_link_cache(&self) -> Option<LinkCacheSnapshot> {
        if !self.cache_enabled || self.faults_seen || self.gain_events != 0 {
            return None;
        }
        Some(LinkCacheSnapshot {
            links: self.links.clone(),
        })
    }

    /// Warm this medium's link-budget cache from a snapshot exported by an
    /// **identical-topology** run: same node count and bit-identical
    /// positions (in practice: the same
    /// [`ScenarioBuilder::prefix_fingerprint`](crate::ScenarioBuilder::prefix_fingerprint),
    /// which pins seed, placement and PHY). Purely a performance hand-off —
    /// a warmed run is bit-identical to a cold one except for the
    /// `pathloss_evals`/`link_cache_hits` perf counters, exactly like the
    /// cache itself.
    ///
    /// Returns `false` (importing nothing) unless the guarantees hold:
    /// cache enabled, fault-free fresh medium, matching node count, and
    /// every warmed entry's transmitter position bit-equal to the current
    /// position in `positions` — the defence against a caller sharing
    /// caches across genuinely different topologies, where the O(1) epoch
    /// check alone could falsely validate foreign budgets.
    pub fn import_link_cache(
        &mut self,
        snap: &LinkCacheSnapshot,
        positions: &SpatialIndex,
    ) -> bool {
        if !self.cache_enabled
            || self.faults_seen
            || self.gain_events != 0
            || snap.links.len() != self.states.len()
        {
            return false;
        }
        for (i, cl) in snap.links.iter().enumerate() {
            if cl.src_pos.x.is_nan() {
                continue; // never warmed; carries no entries worth guarding
            }
            if cl.src_pos != positions.position(i) {
                return false;
            }
        }
        self.links = snap.links.clone();
        true
    }

    /// Energy consumed by `node` up to `until`, joules.
    pub fn energy_joules(&self, node: u32, until: SimTime) -> f64 {
        self.energy[node as usize].total_joules(until, &self.energy_params)
    }

    /// Communication-only (tx + rx) energy of `node` up to `until`, joules.
    pub fn comm_energy_joules(&self, node: u32, until: SimTime) -> f64 {
        self.energy[node as usize].comm_joules(until, &self.energy_params)
    }

    /// The energy model in force.
    pub fn energy_params(&self) -> &EnergyParams {
        &self.energy_params
    }

    /// Recompute a node's radio mode after a state transition.
    fn update_energy(&mut self, node: u32, now: SimTime) {
        let st = &self.states[node as usize];
        let mode = if self.down[node as usize] {
            RadioMode::Off
        } else if st.transmitting.is_some() {
            RadioMode::Tx
        } else if st.receiving.is_some() {
            RadioMode::Rx
        } else {
            RadioMode::Idle
        };
        self.energy[node as usize].set_mode(mode, now, &self.energy_params);
    }

    /// True while `node` is crashed.
    pub fn is_down(&self, node: u32) -> bool {
        self.down[node as usize]
    }

    /// Record a gain-affecting fault event at `node`: bump its version,
    /// the global event count, and the gain epoch of the cell it currently
    /// occupies — so only link caches whose disc covers that cell recompute.
    fn bump_gain(&mut self, node: u32, positions: &SpatialIndex) {
        self.gain_events += 1;
        self.gain_version[node as usize] += 1;
        if self.gain_cells.is_empty() {
            self.gain_cells.resize(positions.cell_count(), 0);
        }
        self.gain_cells[positions.cell_index(node as usize)] += 1;
    }

    /// Crash `node`'s radio: abort any transmission mid-air (receivers
    /// lose the signal — the frame is cut off, never decodable), drop all
    /// incoming signal state, power the radio off. `out` receives the
    /// carrier-sense transitions of receivers that go quiet.
    pub fn set_node_down(
        &mut self,
        node: u32,
        now: SimTime,
        positions: &SpatialIndex,
        out: &mut impl EffectSink,
    ) {
        self.faults_seen = true;
        self.down[node as usize] = true;
        // Abort an outgoing frame mid-air. Its TxEnd/RxEnd events still
        // fire but find no record, which `tx_end`/`rx_end` tolerate once
        // faults are active.
        if let Some(tx_id) = self.states[node as usize].transmitting.take() {
            if let Some(tx) = self.active.remove(&tx_id) {
                for &r in &tx.receivers {
                    let st = &mut self.states[r as usize];
                    st.remove_signal(tx_id);
                    if matches!(st.receiving, Some(a) if a.tx_id == tx_id) {
                        st.receiving = None;
                    }
                    self.update_sense(r, out);
                    self.update_energy(r, now);
                }
            }
        }
        let st = &mut self.states[node as usize];
        st.clear_signals(self.next_tx_id);
        st.receiving = None;
        // Dead radios sense nothing; no Channel effect — the MAC state is
        // about to be discarded anyway, and a rebooted MAC starts idle.
        st.sensed_busy = false;
        self.bump_gain(node, positions);
        self.update_energy(node, now);
    }

    /// Power `node`'s radio back on (state was cleaned at crash time).
    pub fn set_node_up(&mut self, node: u32, now: SimTime, positions: &SpatialIndex) {
        self.faults_seen = true;
        self.down[node as usize] = false;
        self.bump_gain(node, positions);
        self.update_energy(node, now);
    }

    /// Raise the noise floor at `nodes` by `delta_db` for the duration of
    /// burst `id`. Affects reception adjudication (SINR at the PER draw),
    /// not carrier sense.
    pub fn apply_noise(&mut self, id: u32, delta_db: f64, nodes: &[u32]) {
        self.faults_seen = true;
        for &n in nodes {
            self.extra_noise_db[n as usize] += delta_db;
        }
        self.bursts.insert(id, (delta_db, nodes.to_vec()));
    }

    /// End noise burst `id`, subtracting exactly what it added.
    pub fn clear_noise(&mut self, id: u32) {
        if let Some((delta_db, nodes)) = self.bursts.remove(&id) {
            for n in nodes {
                self.extra_noise_db[n as usize] -= delta_db;
            }
        }
    }

    /// Shift `node`'s pathloss by `delta_db` on every link it terminates
    /// (link-flap faults; negative deltas undo prior shifts).
    pub fn shift_node_atten(&mut self, node: u32, delta_db: f64, positions: &SpatialIndex) {
        self.faults_seen = true;
        self.node_atten_db[node as usize] += delta_db;
        self.bump_gain(node, positions);
    }

    /// Loss/delivery counters.
    pub fn stats(&self) -> &MediumStats {
        &self.stats
    }

    /// PHY parameters in force.
    pub fn phy(&self) -> &PhyParams {
        &self.phy
    }

    /// Whether `node` currently senses the channel busy.
    pub fn sensed_busy(&self, node: u32) -> bool {
        self.states[node as usize].sensed_busy
    }

    fn rate_for(&self, frame: &MacFrame) -> Rate {
        // Control frames (ACK/RTS/CTS) and broadcasts go at the basic rate.
        if frame.kind != FrameKind::Data || frame.dst.is_broadcast() {
            self.phy.basic_rate
        } else {
            self.phy.data_rate
        }
    }

    /// Airtime of `frame` under this PHY.
    pub fn airtime(&self, frame: &MacFrame) -> SimDuration {
        radio_frame::airtime(frame.air_bytes, self.rate_for(frame))
    }

    fn update_sense(&mut self, node: u32, out: &mut impl EffectSink) {
        let st = &mut self.states[node as usize];
        let busy = st.n_signals > 0;
        #[cfg(test)]
        assert_eq!(busy, !st.oracle.is_empty(), "radio {node}: counter vs list");
        if busy != st.sensed_busy {
            st.sensed_busy = busy;
            out.push_effect(MediumEffect::Channel { node, busy });
        }
    }

    /// Begin a transmission by `src`. `positions` supplies node coordinates
    /// as of the last position sample (the index may lag a mobile node by
    /// up to one sample interval, which `range_slack` covers); `packet` is
    /// the network payload handed to every MAC that decodes the frame.
    pub fn start_tx(
        &mut self,
        src: u32,
        frame: MacFrame,
        packet: Option<Arc<Packet>>,
        now: SimTime,
        positions: &SpatialIndex,
        out: &mut impl EffectSink,
    ) {
        let tx_id = self.next_tx_id;
        self.next_tx_id += 1;
        self.stats.tx_started += 1;
        self.tel.emit_at(
            src,
            now,
            EventKind::PhyTxStart {
                tx_id,
                bytes: frame.air_bytes as u32,
            },
        );

        // Half duplex: abort any reception in progress at the transmitter.
        {
            let st = &mut self.states[src as usize];
            debug_assert!(st.transmitting.is_none(), "double transmit at {src}");
            if st.receiving.take().is_some() {
                self.stats.aborted_by_tx += 1;
            }
            st.transmitting = Some(tx_id);
        }
        self.update_energy(src, now);

        let airtime = self.airtime(&frame);
        let end = now + airtime;
        out.push_effect(MediumEffect::ScheduleTxEnd {
            node: src,
            tx_id,
            at: end,
        });

        // Find every radio that can sense this transmission. The
        // (receiver, rx power) list is invariant while nothing inside the
        // transmitter's interference disc changed, so it is memoized with a
        // two-level check: L1 compares the global position epoch and
        // gain-event count (O(1); always current on a quiet world), L2
        // falls back to the neighbourhood-sharded epoch-sums over the
        // disc's cell rectangle — movement or faults *elsewhere* leave
        // this transmitter's cache valid (see [`CachedLinks`]).
        let epoch = positions.epoch();
        let radius = self.interference_range + self.range_slack;
        let src_pos = positions.position(src as usize);
        let mut pos_sum = 0u64;
        let mut gain_sum = 0u64;
        let mut sums_current = false;
        // The transmitter's side of every budget is unchanged: entries may
        // be reused (wholesale on an L2 hit, per-entry on a partial miss).
        let reusable = self.cache_enabled
            && self.links[src as usize].src_pos == src_pos
            && self.links[src as usize].src_gain_ver == self.gain_version[src as usize];
        let hit = self.cache_enabled && {
            let cl = &self.links[src as usize];
            if cl.epoch == epoch && cl.gain_events == self.gain_events {
                true
            } else if reusable {
                pos_sum = positions.epoch_sum(src_pos, radius);
                gain_sum = if self.gain_cells.is_empty() {
                    0
                } else {
                    positions.rect_sum(src_pos, radius, &self.gain_cells)
                };
                sums_current = true;
                cl.pos_sum == pos_sum && cl.gain_sum == gain_sum
            } else {
                false
            }
        };
        let mut entries = std::mem::take(&mut self.links[src as usize].entries);
        if hit {
            self.stats.link_cache_hits += 1;
        } else {
            let evals_before = self.stats.pathloss_evals;
            if reusable {
                self.merge_links(src, positions, &mut entries);
            } else {
                self.compute_links(src, positions, &mut entries);
            }
            if !sums_current {
                pos_sum = positions.epoch_sum(src_pos, radius);
                gain_sum = if self.gain_cells.is_empty() {
                    0
                } else {
                    positions.rect_sum(src_pos, radius, &self.gain_cells)
                };
            }
            // A partial rebuild that re-evaluated nothing was served
            // entirely from the cache (everything that changed was outside
            // this transmitter's disc — e.g. in an uncovered rect corner).
            if reusable && self.stats.pathloss_evals == evals_before && !entries.is_empty() {
                self.stats.link_cache_hits += 1;
            }
        }
        self.stats.link_budgets += entries.len() as u64;
        let mut receivers = Vec::with_capacity(entries.len());
        for &LinkEntry { r, rx_dbm, .. } in entries.iter() {
            receivers.push(r);
            let st = &mut self.states[r as usize];
            st.add_signal(tx_id);

            if st.transmitting.is_some() {
                self.stats.missed_while_tx += 1;
            } else if self.phy.is_decodable(rx_dbm) {
                match st.receiving {
                    None => {
                        st.receiving = Some(RxAttempt {
                            tx_id,
                            power_dbm: rx_dbm,
                            corrupted: false,
                        });
                    }
                    Some(ref mut cur) => {
                        if self.phy.captures(rx_dbm, cur.power_dbm) {
                            // The new frame steals the receiver.
                            self.stats.captures += 1;
                            self.tel.emit_at(r, now, EventKind::PhyCapture { tx_id });
                            st.receiving = Some(RxAttempt {
                                tx_id,
                                power_dbm: rx_dbm,
                                corrupted: false,
                            });
                        } else if !self.phy.captures(cur.power_dbm, rx_dbm) {
                            // Comparable powers: the locked frame dies too.
                            cur.corrupted = true;
                        }
                        // else: current frame dominates; the newcomer is
                        // harmless interference.
                    }
                }
            } else if let Some(ref mut cur) = st.receiving {
                // Sub-decode-threshold but sensible: can still corrupt a
                // marginal locked frame.
                if !self.phy.captures(cur.power_dbm, rx_dbm) {
                    cur.corrupted = true;
                }
            }
            self.update_sense(r, out);
            self.update_energy(r, now);
        }
        if !receivers.is_empty() {
            out.push_effect(MediumEffect::ScheduleRxEnd {
                tx_id,
                at: end + self.prop,
            });
        }
        // Write back, refreshing the L1 keys (an L2 hit proves the cache
        // is current as of `epoch`, so later transmissions on a quiet
        // world take the O(1) path again). On an L1 hit the sums were not
        // recomputed — the stored ones are still current by definition.
        if !sums_current && hit {
            pos_sum = self.links[src as usize].pos_sum;
            gain_sum = self.links[src as usize].gain_sum;
        }
        self.links[src as usize] = CachedLinks {
            epoch: if self.cache_enabled { epoch } else { u64::MAX },
            gain_events: if self.cache_enabled {
                self.gain_events
            } else {
                u64::MAX
            },
            src_pos: if self.cache_enabled {
                src_pos
            } else {
                Vec2::new(f64::NAN, f64::NAN)
            },
            src_gain_ver: self.gain_version[src as usize],
            pos_sum,
            gain_sum,
            entries,
        };

        self.active.insert(
            tx_id,
            ActiveTx {
                src,
                frame,
                packet,
                receivers,
            },
        );
    }

    /// Evaluate the link budget from `src` at `src_pos` to `r`, returning
    /// an entry when `r` can sense the frame.
    fn eval_link(
        &mut self,
        src: u32,
        src_pos: Vec2,
        r: u32,
        positions: &SpatialIndex,
    ) -> Option<LinkEntry> {
        if self.down[r as usize] {
            return None; // dead radios sense nothing
        }
        let rx_pos = positions.position(r as usize);
        self.stats.pathloss_evals += 1;
        // The fault attenuations are exactly 0.0 unless a link-flap
        // model is active (x - 0.0 is bitwise x, so no-fault runs are
        // untouched).
        let rx_dbm = self.rx_power(src_pos, rx_pos, src, r)
            - self.node_atten_db[src as usize]
            - self.node_atten_db[r as usize];
        if self.phy.is_sensed(rx_dbm) {
            Some(LinkEntry {
                r,
                rx_dbm,
                rx_pos,
                gain_ver: self.gain_version[r as usize],
            })
        } else {
            None // too weak to matter
        }
    }

    /// Recompute the sensible-receiver list and link budgets for `src`
    /// from scratch.
    fn compute_links(&mut self, src: u32, positions: &SpatialIndex, entries: &mut Vec<LinkEntry>) {
        entries.clear();
        let src_pos = positions.position(src as usize);
        let mut nbrs = std::mem::take(&mut self.scratch);
        positions.query_radius(
            src_pos,
            self.interference_range + self.range_slack,
            src as usize,
            &mut nbrs,
        );
        for &r in nbrs.iter() {
            if let Some(e) = self.eval_link(src, src_pos, r, positions) {
                entries.push(e);
            }
        }
        nbrs.clear();
        self.scratch = nbrs;
    }

    /// Rebuild `src`'s entry list, reusing every memoized budget whose
    /// receiver is bit-identically where it was at the same gain version
    /// (the budget is a pure function of those inputs, so the stored value
    /// is exactly what a re-evaluation would produce). Only disturbed or
    /// newly-in-range links are evaluated; candidates come from a fresh
    /// spatial query, so departures drop out naturally. Requires the
    /// caller to have checked that the transmitter's own position and gain
    /// version are unchanged.
    fn merge_links(&mut self, src: u32, positions: &SpatialIndex, entries: &mut Vec<LinkEntry>) {
        let src_pos = positions.position(src as usize);
        let mut nbrs = std::mem::take(&mut self.scratch);
        positions.query_radius(
            src_pos,
            self.interference_range + self.range_slack,
            src as usize,
            &mut nbrs,
        );
        let mut fresh = std::mem::take(&mut self.scratch_entries);
        fresh.clear();
        // Both the old entries and the query result are in ascending id
        // order: one forward pass pairs them up.
        let mut old_i = 0;
        for &r in nbrs.iter() {
            while old_i < entries.len() && entries[old_i].r < r {
                old_i += 1;
            }
            if old_i < entries.len() && entries[old_i].r == r {
                let e = entries[old_i];
                if e.rx_pos == positions.position(r as usize)
                    && e.gain_ver == self.gain_version[r as usize]
                {
                    fresh.push(e);
                    continue;
                }
            }
            if let Some(e) = self.eval_link(src, src_pos, r, positions) {
                fresh.push(e);
            }
        }
        std::mem::swap(entries, &mut fresh);
        fresh.clear();
        self.scratch_entries = fresh;
        nbrs.clear();
        self.scratch = nbrs;
    }

    /// The transmitter's frame has left the air.
    pub fn tx_end(&mut self, tx_id: u64, now: SimTime, out: &mut impl EffectSink) {
        let Some(tx) = self.active.get_mut(&tx_id) else {
            // Only a crash mid-transmission retires a record early.
            debug_assert!(self.faults_seen, "tx_end for unknown tx");
            return;
        };
        let src = tx.src;
        let done = tx.receivers.is_empty();
        let st = &mut self.states[src as usize];
        debug_assert_eq!(st.transmitting, Some(tx_id));
        st.transmitting = None;
        out.push_effect(MediumEffect::TxComplete { node: src });
        if done {
            // Nobody sensed the frame, so no RxEnd event will fire.
            self.active.remove(&tx_id);
        }
        self.update_energy(src, now);
    }

    /// All reception windows for `tx_id` closed (they end at the same
    /// instant): adjudicate the frame at every radio that sensed it.
    pub fn rx_end(&mut self, tx_id: u64, now: SimTime, out: &mut impl EffectSink) {
        // TxEnd (at `end`) always precedes RxEnd (at `end + prop`, same-time
        // ties broken by schedule order), so the record can be removed here.
        let Some(tx) = self.active.remove(&tx_id) else {
            // Only a crash mid-transmission retires a record early.
            debug_assert!(self.faults_seen, "rx_end for unknown tx");
            return;
        };
        debug_assert_ne!(self.states[tx.src as usize].transmitting, Some(tx_id));
        let rate = self.rate_for(&tx.frame);
        let bits = radio_frame::error_model_bits(tx.frame.air_bytes);
        for &node in &tx.receivers {
            let st = &mut self.states[node as usize];
            st.remove_signal(tx_id);
            // Decide the frame's fate if this radio was locked onto it.
            let attempt = match st.receiving {
                Some(a) if a.tx_id == tx_id => {
                    st.receiving = None;
                    Some(a)
                }
                _ => None,
            };
            if let Some(a) = attempt {
                if a.corrupted {
                    self.stats.collisions += 1;
                    self.tel
                        .emit_at(node, now, EventKind::PhyCollision { tx_id });
                } else {
                    let per = self.reception_per(node, a.power_dbm, rate, bits);
                    if self.rng.chance(per) {
                        self.stats.noise_losses += 1;
                        self.tel.emit_at(node, now, EventKind::PhyNoise { tx_id });
                    } else {
                        // Every decoded frame is handed to the MAC: the MAC
                        // owns address filtering so it can honour NAV
                        // reservations carried by frames addressed to others.
                        self.stats.delivered += 1;
                        self.tel.emit_at(node, now, EventKind::PhyRx { tx_id });
                        out.push_effect(MediumEffect::Deliver {
                            node,
                            frame: tx.frame,
                            packet: tx.packet.clone(),
                            rx_dbm: a.power_dbm,
                        });
                    }
                }
            }
            self.update_sense(node, out);
            self.update_energy(node, now);
        }
    }

    /// Probability that noise alone destroys a frame of `bits` bits at
    /// `rate`, locked at `power_dbm` by `node`.
    fn reception_per(&mut self, node: u32, power_dbm: f64, rate: Rate, bits: usize) -> f64 {
        // A noise-burst fault raises this receiver's floor by `extra` dB:
        // model the rise as equivalent interference power. That case is
        // rare and depends on the burst, so it bypasses the memo entirely;
        // everything else is the exact pre-fault arithmetic
        // (`sinr(p, 0.0)`), remembered.
        let extra = self.extra_noise_db[node as usize];
        if extra > 0.0 {
            let interference_mw = self.phy.noise_floor_mw() * (10f64.powf(extra / 10.0) - 1.0);
            rate.per(self.phy.sinr(power_dbm, interference_mw), bits)
        } else {
            self.per_memo
                .noise_only_per(&self.phy, power_dbm, rate, bits)
        }
    }

    fn rx_power(&self, a_pos: Vec2, b_pos: Vec2, a: u32, b: u32) -> f64 {
        self.phy.rx_power_dbm(a_pos.distance(b_pos), a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmn_mac::{MacAddr, BROADCAST};
    use wmn_topology::Region;

    fn setup(positions: Vec<Vec2>) -> (Medium, SpatialIndex) {
        let phy = PhyParams::classic_802_11b();
        let n = positions.len();
        let idx = SpatialIndex::new(Region::square(2000.0), 300.0, &positions);
        (Medium::new(phy, n, SimRng::new(7), 25.0), idx)
    }

    fn bcast_frame(src: u32) -> MacFrame {
        MacFrame {
            kind: FrameKind::Data,
            src: MacAddr(src),
            dst: BROADCAST,
            air_bytes: 100,
            sdu_id: 1,
            nav_us: 0,
        }
    }

    fn ucast_frame(src: u32, dst: u32) -> MacFrame {
        MacFrame {
            kind: FrameKind::Data,
            src: MacAddr(src),
            dst: MacAddr(dst),
            air_bytes: 100,
            sdu_id: 2,
            nav_us: 0,
        }
    }

    fn run_rx_ends(m: &mut Medium, effects: &[MediumEffect]) -> Vec<MediumEffect> {
        let mut out = Vec::new();
        for e in effects {
            match *e {
                MediumEffect::ScheduleRxEnd { tx_id, at } => m.rx_end(tx_id, at, &mut out),
                MediumEffect::ScheduleTxEnd { tx_id, at, .. } => m.tx_end(tx_id, at, &mut out),
                _ => {}
            }
        }
        out
    }

    #[test]
    fn broadcast_reaches_nodes_in_range() {
        // 0 at origin-ish; 1 at 200 m (decodable); 2 at 450 m (sense only);
        // 3 at 900 m (nothing).
        let pos = vec![
            Vec2::new(100.0, 1000.0),
            Vec2::new(300.0, 1000.0),
            Vec2::new(550.0, 1000.0),
            Vec2::new(1000.0, 1000.0),
        ];
        let (mut m, idx) = setup(pos);
        let mut fx = Vec::new();
        m.start_tx(0, bcast_frame(0), None, SimTime::ZERO, &idx, &mut fx);
        // Node 1 and 2 got busy; node 3 untouched.
        let busy: Vec<u32> = fx
            .iter()
            .filter_map(|e| match e {
                MediumEffect::Channel { node, busy: true } => Some(*node),
                _ => None,
            })
            .collect();
        assert_eq!(busy, vec![1, 2]);
        let done = run_rx_ends(&mut m, &fx);
        // Only node 1 decodes.
        let delivered: Vec<u32> = done
            .iter()
            .filter_map(|e| match e {
                MediumEffect::Deliver { node, .. } => Some(*node),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, vec![1]);
        // And both busy nodes go idle again.
        let idle: Vec<u32> = done
            .iter()
            .filter_map(|e| match e {
                MediumEffect::Channel { node, busy: false } => Some(*node),
                _ => None,
            })
            .collect();
        assert_eq!(idle, vec![1, 2]);
        assert_eq!(m.stats().delivered, 1);
    }

    #[test]
    fn unicast_not_delivered_to_third_parties() {
        let pos = vec![
            Vec2::new(100.0, 1000.0),
            Vec2::new(300.0, 1000.0),
            Vec2::new(150.0, 1000.0),
        ];
        let (mut m, idx) = setup(pos);
        let mut fx = Vec::new();
        m.start_tx(0, ucast_frame(0, 1), None, SimTime::ZERO, &idx, &mut fx);
        let done = run_rx_ends(&mut m, &fx);
        let delivered: Vec<u32> = done
            .iter()
            .filter_map(|e| match e {
                MediumEffect::Deliver { node, .. } => Some(*node),
                _ => None,
            })
            .collect();
        // The medium hands decoded frames to every receiver's MAC (node 2
        // overhears and uses the frame for NAV only); address filtering is
        // the MAC's job, verified in wmn-mac's tests.
        assert_eq!(delivered, vec![1, 2]);
    }

    #[test]
    fn concurrent_equal_power_transmissions_collide() {
        // Receiver 1 sits exactly between transmitters 0 and 2.
        let pos = vec![
            Vec2::new(800.0, 1000.0),
            Vec2::new(1000.0, 1000.0),
            Vec2::new(1200.0, 1000.0),
        ];
        let (mut m, idx) = setup(pos);
        let mut fx = Vec::new();
        m.start_tx(0, bcast_frame(0), None, SimTime::ZERO, &idx, &mut fx);
        m.start_tx(2, bcast_frame(2), None, SimTime::ZERO, &idx, &mut fx);
        let done = run_rx_ends(&mut m, &fx);
        assert!(
            !done
                .iter()
                .any(|e| matches!(e, MediumEffect::Deliver { node: 1, .. })),
            "equal-power overlap must collide"
        );
        assert!(m.stats().collisions >= 1);
    }

    #[test]
    fn capture_lets_much_stronger_late_frame_win() {
        // Node 1: first locked on far node 0 (240 m), then near node 2
        // (30 m) starts — > 10 dB stronger → capture.
        let pos = vec![
            Vec2::new(760.0, 1000.0),
            Vec2::new(1000.0, 1000.0),
            Vec2::new(1030.0, 1000.0),
        ];
        let (mut m, idx) = setup(pos);
        let mut fx = Vec::new();
        m.start_tx(0, bcast_frame(0), None, SimTime::ZERO, &idx, &mut fx);
        m.start_tx(2, bcast_frame(2), None, SimTime::ZERO, &idx, &mut fx);
        let done = run_rx_ends(&mut m, &fx);
        let delivered: Vec<(u32, u32)> = done
            .iter()
            .filter_map(|e| match e {
                MediumEffect::Deliver { node, frame, .. } => Some((*node, frame.src.0)),
                _ => None,
            })
            .collect();
        // Node 1 receives the frame from 2, not from 0.
        assert!(delivered.contains(&(1, 2)), "capture failed: {delivered:?}");
        assert!(!delivered.contains(&(1, 0)));
        assert_eq!(m.stats().captures, 1);
    }

    #[test]
    fn half_duplex_transmitter_misses_frames() {
        let pos = vec![Vec2::new(900.0, 1000.0), Vec2::new(1100.0, 1000.0)];
        let (mut m, idx) = setup(pos);
        let mut fx = Vec::new();
        m.start_tx(0, bcast_frame(0), None, SimTime::ZERO, &idx, &mut fx);
        // Node 1 also transmits while 0's frame is incoming.
        m.start_tx(1, bcast_frame(1), None, SimTime(1000), &idx, &mut fx);
        let done = run_rx_ends(&mut m, &fx);
        // Node 1 was transmitting when 0's frame arrived... 0's frame
        // arrived first, so node 1 was receiving and its own tx aborted
        // the reception.
        assert!(!done
            .iter()
            .any(|e| matches!(e, MediumEffect::Deliver { node: 1, .. })));
        assert_eq!(m.stats().aborted_by_tx, 1);
    }

    #[test]
    fn payload_travels_with_frame() {
        let pos = vec![Vec2::new(900.0, 1000.0), Vec2::new(1100.0, 1000.0)];
        let (mut m, idx) = setup(pos);
        let mut fx = Vec::new();
        let pkt = Packet::Hello(wmn_routing::Hello {
            seq: 9,
            load: Default::default(),
            velocity: (0.0, 0.0),
        });
        m.start_tx(
            0,
            bcast_frame(0),
            Some(Arc::new(pkt.clone())),
            SimTime::ZERO,
            &idx,
            &mut fx,
        );
        let done = run_rx_ends(&mut m, &fx);
        let got = done
            .iter()
            .find_map(|e| match e {
                MediumEffect::Deliver {
                    node: 1, packet, ..
                } => packet.clone(),
                _ => None,
            })
            .expect("delivery with payload");
        assert_eq!(*got, pkt);
    }

    #[test]
    fn active_map_drains() {
        let pos = vec![Vec2::new(900.0, 1000.0), Vec2::new(1100.0, 1000.0)];
        let (mut m, idx) = setup(pos);
        let mut fx = Vec::new();
        m.start_tx(0, bcast_frame(0), None, SimTime::ZERO, &idx, &mut fx);
        assert_eq!(m.active.len(), 1);
        let _ = run_rx_ends(&mut m, &fx);
        assert!(m.active.is_empty(), "transmission record leaked");
        assert!(!m.sensed_busy(1));
    }

    #[test]
    fn warm_cache_does_zero_pathloss_evals() {
        let pos = vec![
            Vec2::new(100.0, 1000.0),
            Vec2::new(300.0, 1000.0),
            Vec2::new(550.0, 1000.0),
            Vec2::new(1000.0, 1000.0),
        ];
        let (mut m, idx) = setup(pos);
        let mut fx = Vec::new();
        m.start_tx(0, bcast_frame(0), None, SimTime::ZERO, &idx, &mut fx);
        let _ = run_rx_ends(&mut m, &fx);
        let evals_after_warmup = m.stats().pathloss_evals;
        assert!(
            evals_after_warmup > 0,
            "first tx must evaluate the link budget"
        );

        // Every further transmission from node 0 on the static topology is
        // served from the cache: zero new pathloss (log10) evaluations.
        for t in 1..=10u64 {
            let mut fx = Vec::new();
            m.start_tx(
                0,
                bcast_frame(0),
                None,
                SimTime(t * 10_000_000),
                &idx,
                &mut fx,
            );
            let _ = run_rx_ends(&mut m, &fx);
        }
        assert_eq!(m.stats().pathloss_evals, evals_after_warmup);
        assert_eq!(m.stats().link_cache_hits, 10);
    }

    #[test]
    fn movement_invalidates_link_cache() {
        let pos = vec![Vec2::new(900.0, 1000.0), Vec2::new(1100.0, 1000.0)];
        let (mut m, mut idx) = setup(pos);
        let mut fx = Vec::new();
        m.start_tx(0, bcast_frame(0), None, SimTime::ZERO, &idx, &mut fx);
        let _ = run_rx_ends(&mut m, &fx);
        let warm_evals = m.stats().pathloss_evals;

        // Node 1 moves out of interference range: the epoch bump must force
        // a recompute (cache miss, no hit counted) and the new entry list
        // must exclude it. No neighbour remains, so `pathloss_evals` stays
        // flat — the miss shows up in the hit counter instead.
        idx.update(1, Vec2::new(1900.0, 1000.0));
        let mut fx = Vec::new();
        m.start_tx(0, bcast_frame(0), None, SimTime(20_000_000), &idx, &mut fx);
        let _ = run_rx_ends(&mut m, &fx);
        assert_eq!(
            m.stats().link_cache_hits,
            0,
            "stale cache served after movement"
        );
        assert!(
            !fx.iter()
                .any(|e| matches!(e, MediumEffect::Channel { node: 1, .. })),
            "out-of-range receiver still sensed from stale cache"
        );

        // Moving back within range forces another recompute that actually
        // re-evaluates the link budget.
        idx.update(1, Vec2::new(1200.0, 1000.0));
        let mut fx = Vec::new();
        m.start_tx(0, bcast_frame(0), None, SimTime(40_000_000), &idx, &mut fx);
        assert!(
            m.stats().pathloss_evals > warm_evals,
            "no recompute after moving back"
        );
        assert!(
            fx.iter().any(|e| matches!(
                e,
                MediumEffect::Channel {
                    node: 1,
                    busy: true
                }
            )),
            "in-range receiver not sensing after recompute"
        );
    }

    #[test]
    fn cached_and_uncached_medium_agree() {
        let pos: Vec<Vec2> = (0..6)
            .map(|i| Vec2::new(150.0 + 180.0 * i as f64, 1000.0))
            .collect();
        let run = |cache: bool| {
            let phy = PhyParams::classic_802_11b();
            let idx = SpatialIndex::new(Region::square(2000.0), 300.0, &pos);
            let mut m = Medium::new(phy, pos.len(), SimRng::new(7), 25.0).with_link_cache(cache);
            let mut all = Vec::new();
            for round in 0..4u64 {
                for src in 0..pos.len() as u32 {
                    let mut fx = Vec::new();
                    let at = SimTime(round * 40_000_000 + src as u64 * 6_000_000);
                    m.start_tx(src, bcast_frame(src), None, at, &idx, &mut fx);
                    all.extend(run_rx_ends(&mut m, &fx));
                }
            }
            // Keep the rx power as raw bits: cached and uncached must be
            // bit-identical, not just approximately equal.
            let delivered: Vec<(u32, u32, u64)> = all
                .iter()
                .filter_map(|e| match e {
                    MediumEffect::Deliver {
                        node,
                        frame,
                        rx_dbm,
                        ..
                    } => Some((*node, frame.src.0, rx_dbm.to_bits())),
                    _ => None,
                })
                .collect();
            (delivered, m.stats().physics())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn down_node_neither_senses_nor_receives() {
        let pos = vec![Vec2::new(900.0, 1000.0), Vec2::new(1100.0, 1000.0)];
        let (mut m, idx) = setup(pos);
        let mut fx = Vec::new();
        m.set_node_down(1, SimTime::ZERO, &idx, &mut fx);
        assert!(m.is_down(1));
        m.start_tx(0, bcast_frame(0), None, SimTime::ZERO, &idx, &mut fx);
        let done = run_rx_ends(&mut m, &fx);
        assert!(
            !fx.iter().chain(done.iter()).any(|e| matches!(
                e,
                MediumEffect::Channel { node: 1, .. } | MediumEffect::Deliver { node: 1, .. }
            )),
            "dead radio interacted with the medium"
        );
        // Reboot: the link cache must be invalidated so the node reappears.
        m.set_node_up(1, SimTime::from_millis(10), &idx);
        let mut fx = Vec::new();
        m.start_tx(
            0,
            bcast_frame(0),
            None,
            SimTime::from_millis(10),
            &idx,
            &mut fx,
        );
        let done = run_rx_ends(&mut m, &fx);
        assert!(done
            .iter()
            .any(|e| matches!(e, MediumEffect::Deliver { node: 1, .. })));
    }

    #[test]
    fn crash_mid_transmission_cuts_the_frame() {
        let pos = vec![Vec2::new(900.0, 1000.0), Vec2::new(1100.0, 1000.0)];
        let (mut m, idx) = setup(pos);
        let mut fx = Vec::new();
        m.start_tx(0, bcast_frame(0), None, SimTime::ZERO, &idx, &mut fx);
        assert!(m.sensed_busy(1));
        let mut cut = Vec::new();
        m.set_node_down(0, SimTime(1000), &idx, &mut cut);
        // The receiver's carrier sense clears with the aborted frame.
        assert!(cut.iter().any(|e| matches!(
            e,
            MediumEffect::Channel {
                node: 1,
                busy: false
            }
        )));
        // The already-scheduled TxEnd/RxEnd events find nothing — and panic
        // nothing.
        let done = run_rx_ends(&mut m, &fx);
        assert!(done.is_empty());
        assert!(m.active.is_empty());
    }

    #[test]
    fn noise_burst_destroys_reception_and_clears_exactly() {
        let pos = vec![Vec2::new(900.0, 1000.0), Vec2::new(1100.0, 1000.0)];
        let (mut m, idx) = setup(pos);
        m.apply_noise(0, 80.0, &[1]);
        let mut fx = Vec::new();
        m.start_tx(0, bcast_frame(0), None, SimTime::ZERO, &idx, &mut fx);
        let done = run_rx_ends(&mut m, &fx);
        assert!(
            !done
                .iter()
                .any(|e| matches!(e, MediumEffect::Deliver { node: 1, .. })),
            "frame decoded through an 80 dB noise burst"
        );
        assert_eq!(m.stats().noise_losses, 1);
        // Burst over: the floor returns to exactly 0 dB extra.
        m.clear_noise(0);
        assert_eq!(m.extra_noise_db[1].to_bits(), 0f64.to_bits());
        let mut fx = Vec::new();
        m.start_tx(
            0,
            bcast_frame(0),
            None,
            SimTime::from_millis(10),
            &idx,
            &mut fx,
        );
        let done = run_rx_ends(&mut m, &fx);
        assert!(done
            .iter()
            .any(|e| matches!(e, MediumEffect::Deliver { node: 1, .. })));
    }

    #[test]
    fn link_shift_beyond_margin_silences_the_link() {
        let pos = vec![Vec2::new(900.0, 1000.0), Vec2::new(1100.0, 1000.0)];
        let (mut m, idx) = setup(pos);
        // Warm the cache first so the shift must invalidate it.
        let mut fx = Vec::new();
        m.start_tx(0, bcast_frame(0), None, SimTime::ZERO, &idx, &mut fx);
        let _ = run_rx_ends(&mut m, &fx);
        m.shift_node_atten(1, 60.0, &idx);
        let mut fx = Vec::new();
        m.start_tx(
            0,
            bcast_frame(0),
            None,
            SimTime::from_millis(10),
            &idx,
            &mut fx,
        );
        let done = run_rx_ends(&mut m, &fx);
        assert!(!done
            .iter()
            .any(|e| matches!(e, MediumEffect::Deliver { node: 1, .. })));
        // Undo restores the link exactly.
        m.shift_node_atten(1, -60.0, &idx);
        assert_eq!(m.node_atten_db[1].to_bits(), 0f64.to_bits());
        let mut fx = Vec::new();
        m.start_tx(
            0,
            bcast_frame(0),
            None,
            SimTime::from_millis(20),
            &idx,
            &mut fx,
        );
        let done = run_rx_ends(&mut m, &fx);
        assert!(done
            .iter()
            .any(|e| matches!(e, MediumEffect::Deliver { node: 1, .. })));
    }

    #[test]
    fn all_zero_memo_slot_is_a_true_entry() {
        // The memo starts zeroed and has no "empty" marker: the zero slot
        // must be a correct answer for the key it spells.
        let phy = PhyParams::classic_802_11b();
        assert_eq!(Rate::Dbpsk1Mbps as u64, 0);
        let per = Rate::Dbpsk1Mbps.per(phy.sinr(f64::from_bits(0), 0.0), 0);
        assert_eq!(per.to_bits(), PerSlot::default().per.to_bits());
        let mut memo = PerMemo::new(4);
        let got = memo.noise_only_per(&phy, 0.0, Rate::Dbpsk1Mbps, 0);
        assert_eq!(got.to_bits(), per.to_bits());
    }

    #[test]
    fn late_rx_end_after_a_reboot_leaves_newer_signals_counted() {
        // 1 hears both 0 and 2; 0 and 2 are out of each other's range.
        let pos = vec![
            Vec2::new(700.0, 1000.0),
            Vec2::new(1100.0, 1000.0),
            Vec2::new(1500.0, 1000.0),
        ];
        let (mut m, idx) = setup(pos);
        let (mut old, mut new, mut fx) = (Vec::new(), Vec::new(), Vec::new());
        m.start_tx(0, bcast_frame(0), None, SimTime::ZERO, &idx, &mut old);
        assert!(m.sensed_busy(1));
        // Crash 1 mid-frame and reboot it before that frame's RxEnd.
        m.set_node_down(1, SimTime(1_000), &idx, &mut fx);
        m.set_node_up(1, SimTime(2_000), &idx);
        assert!(!m.sensed_busy(1));
        m.start_tx(2, bcast_frame(2), None, SimTime(3_000), &idx, &mut new);
        assert!(m.sensed_busy(1));
        // The old frame's RxEnd names 1 as a receiver, but 1 forgot that
        // signal when it crashed: the one it counts now is the new frame's.
        let done = run_rx_ends(&mut m, &old);
        assert!(!done.iter().any(|e| matches!(
            e,
            MediumEffect::Channel { node: 1, .. } | MediumEffect::Deliver { node: 1, .. }
        )));
        assert!(m.sensed_busy(1));
        let done = run_rx_ends(&mut m, &new);
        assert!(done.iter().any(|e| matches!(
            e,
            MediumEffect::Channel {
                node: 1,
                busy: false
            }
        )));
        assert_eq!(m.states[1].n_signals, 0);
    }

    mod signal_counter_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Random interleavings of transmissions, crashes and reboots on
            /// a 3 x 3 grid where every radio senses several others. Frames
            /// last 1 ms and steps are under 0.4 ms apart, so frames
            /// overlap, receivers and transmitters crash mid-frame, and
            /// reboots land before the cut frame's RxEnd. The signal set has
            /// one reader — `update_sense`, which in this build asserts that
            /// the counter and the list it replaced agree — so a run that
            /// gets through has made every carrier-sense decision, and with
            /// it every `Channel` effect, as the list would have. What a
            /// counter can still get wrong is leak: once the last frame has
            /// ended, no radio may count a signal or sense a carrier.
            #[test]
            fn counter_senses_what_the_signal_list_sensed(
                ops in prop::collection::vec((0u8..8, 0u32..9, 0u64..400), 400..401),
            ) {
                let pos = (0..9)
                    .map(|i| Vec2::new(800.0 + 200.0 * (i % 3) as f64, 800.0 + 200.0 * (i / 3) as f64))
                    .collect();
                let (mut m, idx) = setup(pos);
                // (time, schedule order, is RxEnd, tx id)
                let mut pending: Vec<(SimTime, usize, bool, u64)> = Vec::new();
                let mut scheduled = 0;
                let mut now = SimTime::ZERO;
                // A last step that only lets 20 ms pass ends every frame.
                let quiet = (8, 0, 20_000);
                for (op, node, dt_us) in ops.into_iter().chain([quiet]) {
                    now += SimDuration::from_micros(dt_us);
                    let mut fx = Vec::new();
                    pending.sort_unstable();
                    let due = pending.partition_point(|e| e.0 <= now);
                    for (at, _, is_rx_end, tx_id) in pending.drain(..due) {
                        if is_rx_end {
                            m.rx_end(tx_id, at, &mut fx);
                        } else {
                            m.tx_end(tx_id, at, &mut fx);
                        }
                    }
                    let up = !m.is_down(node);
                    match op {
                        0..=4 if up && m.states[node as usize].transmitting.is_none() => {
                            m.start_tx(node, bcast_frame(node), None, now, &idx, &mut fx);
                        }
                        5 if up => m.set_node_down(node, now, &idx, &mut fx),
                        6 | 7 => {
                            if let Some(n) = (0..9).find(|&n| m.is_down(n)) {
                                m.set_node_up(n, now, &idx);
                            }
                        }
                        _ => {}
                    }
                    for e in fx {
                        match e {
                            MediumEffect::ScheduleTxEnd { tx_id, at, .. } => {
                                pending.push((at, scheduled, false, tx_id));
                            }
                            MediumEffect::ScheduleRxEnd { tx_id, at } => {
                                pending.push((at, scheduled, true, tx_id));
                            }
                            _ => continue,
                        }
                        scheduled += 1;
                    }
                }
                prop_assert!(pending.is_empty() && m.active.is_empty());
                for (n, st) in m.states.iter().enumerate() {
                    prop_assert_eq!(st.n_signals, 0, "radio {} still counts a signal", n);
                    prop_assert!(!st.sensed_busy, "radio {} still senses a carrier", n);
                }
                prop_assert!(m.stats().tx_started > 100);
            }
        }
    }

    mod per_memo_properties {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        const RATES: [Rate; 4] = [
            Rate::Dbpsk1Mbps,
            Rate::Dqpsk2Mbps,
            Rate::Cck5_5Mbps,
            Rate::Cck11Mbps,
        ];
        const FRAME_BYTES: [usize; 8] = [14, 20, 62, 66, 128, 546, 1046, 1500];
        const BURST_DB: [f64; 3] = [3.0, 10.0, 25.0];

        /// Twelve sets of `(power_dbm, rate, bits)` keys that share a memo
        /// slot, out of 64 powers x 4 rates x 8 sizes. Sets in which two
        /// keys differ in only one component come first: those are the
        /// ones a sloppy key comparison would confuse.
        fn colliding_keys(memo: &PerMemo) -> Vec<Vec<(f64, Rate, usize)>> {
            let mut by_slot: BTreeMap<usize, Vec<(f64, Rate, usize)>> = BTreeMap::new();
            for p in 0..64 {
                let power_dbm = -96.0 + 0.37 * p as f64;
                for rate in RATES {
                    for bytes in FRAME_BYTES {
                        let bits = radio_frame::error_model_bits(bytes);
                        let at =
                            memo.slot_of(power_dbm.to_bits(), (bits as u64) << 2 | rate as u64);
                        by_slot.entry(at).or_default().push((power_dbm, rate, bits));
                    }
                }
            }
            let near_miss = |set: &Vec<(f64, Rate, usize)>| {
                set.iter().enumerate().any(|(i, a)| {
                    set[i + 1..]
                        .iter()
                        .any(|b| a.0 == b.0 || (a.1, a.2) == (b.1, b.2))
                })
            };
            let mut sets: Vec<_> = by_slot.into_values().filter(|s| s.len() >= 2).collect();
            sets.sort_by_key(|s| !near_miss(s));
            assert!(sets.len() >= 12 && near_miss(&sets[0]));
            sets.truncate(12);
            sets
        }

        proptest! {
            /// 300 lookups that keep evicting each other from a dozen
            /// slots, interleaved with noise bursts starting and ending at
            /// the four receivers. A quiet receiver gets the bits of the
            /// direct formula whatever the slot held; a receiver under a
            /// burst gets the burst formula even when the table holds a
            /// (poisoned) entry for its key, and leaves the table as it
            /// found it.
            #[test]
            fn memo_is_exact_and_bypassed_under_a_burst(
                ops in prop::collection::vec((0u8..8, 0u32..4, 0usize..12, 0usize..8), 300..301),
            ) {
                let phy = PhyParams::classic_802_11b();
                let (mut m, _) = setup(vec![Vec2::new(0.0, 0.0); 4]);
                let sets = colliding_keys(&m.per_memo);
                // Model of each receiver's raised floor; burst id = node.
                let mut extra = [0.0f64; 4];
                let mut evictions = 0;
                for (op, node, set, member) in ops {
                    match op {
                        6 if extra[node as usize] == 0.0 => {
                            let delta = BURST_DB[member % 3];
                            m.apply_noise(node, delta, &[node]);
                            extra[node as usize] = delta;
                            continue;
                        }
                        7 => {
                            m.clear_noise(node);
                            extra[node as usize] = 0.0;
                            continue;
                        }
                        _ => {}
                    }
                    let (power_dbm, rate, bits) = sets[set][member % sets[set].len()];
                    let key = PerSlot {
                        power_bits: power_dbm.to_bits(),
                        frame_key: (bits as u64) << 2 | rate as u64,
                        per: 2.0,
                    };
                    let at = m.per_memo.slot_of(key.power_bits, key.frame_key);
                    let burst = extra[node as usize];
                    if burst > 0.0 {
                        let before = m.per_memo.slots.clone();
                        if let Some(slot) = m.per_memo.slots.get_mut(at) {
                            *slot = key; // a wrong answer, were it read
                        }
                        let poisoned = m.per_memo.slots.clone();
                        let interference_mw =
                            phy.noise_floor_mw() * (10f64.powf(burst / 10.0) - 1.0);
                        let direct = rate.per(phy.sinr(power_dbm, interference_mw), bits);
                        let got = m.reception_per(node, power_dbm, rate, bits);
                        prop_assert_eq!(got.to_bits(), direct.to_bits());
                        prop_assert!(m.per_memo.slots == poisoned, "memo written under a burst");
                        m.per_memo.slots = before;
                    } else {
                        if let Some(slot) = m.per_memo.slots.get(at) {
                            let other_key = (slot.power_bits, slot.frame_key)
                                != (key.power_bits, key.frame_key);
                            evictions += usize::from(other_key && *slot != PerSlot::default());
                        }
                        let direct = rate.per(phy.sinr(power_dbm, 0.0), bits);
                        let got = m.reception_per(node, power_dbm, rate, bits);
                        prop_assert_eq!(got.to_bits(), direct.to_bits());
                        prop_assert_eq!(m.per_memo.slots[at], PerSlot { per: direct, ..key });
                    }
                }
                prop_assert!(evictions > 20, "only {evictions} slot collisions");
            }
        }
    }

    #[test]
    fn airtime_uses_basic_rate_for_broadcast() {
        let pos = vec![Vec2::new(0.0, 0.0)];
        let (m, _) = setup(pos);
        let b = m.airtime(&bcast_frame(0));
        let u = m.airtime(&ucast_frame(0, 1));
        // 100 B at 1 Mb/s vs 2 Mb/s (plus equal PLCP).
        assert_eq!(b.as_nanos() - 192_000, 2 * (u.as_nanos() - 192_000));
    }
}
