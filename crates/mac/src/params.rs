//! MAC-layer timing and policy parameters (802.11b DSSS defaults).

use wmn_sim::SimDuration;

/// Parameters of the CSMA/CA MAC, shared by all nodes of a scenario.
#[derive(Clone, Debug)]
pub struct MacParams {
    /// Slot time.
    pub slot: SimDuration,
    /// Short inter-frame space (before ACKs).
    pub sifs: SimDuration,
    /// DCF inter-frame space (before data contention).
    pub difs: SimDuration,
    /// Minimum contention window (`CW = cw_min` on the first attempt).
    pub cw_min: u32,
    /// Maximum contention window.
    pub cw_max: u32,
    /// Maximum transmission attempts for a unicast frame before it is
    /// reported as failed (802.11 short retry limit).
    pub retry_limit: u32,
    /// Interface queue capacity in frames (ns-2's `ifq` default is 50).
    pub queue_capacity: usize,
    /// MAC header + FCS bytes added to every data frame on air.
    pub data_overhead_bytes: usize,
    /// On-air size of an ACK frame.
    pub ack_bytes: usize,
    /// How long to wait for an ACK after a unicast transmission ends.
    pub ack_timeout: SimDuration,
    /// Unicast data frames whose on-air size exceeds this use the RTS/CTS
    /// handshake. `None` disables RTS/CTS entirely (the era's evaluations
    /// run with it off; `examples/hidden_terminal.rs` switches it on).
    pub rts_threshold: Option<usize>,
    /// On-air size of an RTS frame.
    pub rts_bytes: usize,
    /// On-air size of a CTS frame.
    pub cts_bytes: usize,
    /// How long to wait for a CTS after an RTS ends.
    pub cts_timeout: SimDuration,
    /// Basic (control/broadcast) rate in bit/s, for NAV computation.
    pub basic_rate_bps: f64,
    /// Data rate in bit/s, for NAV computation.
    pub data_rate_bps: f64,
    /// PLCP preamble + header time prepended to every frame.
    pub plcp: SimDuration,
    /// Serve control-plane SDUs (RREQ/RREP/RERR/HELLO) ahead of data
    /// (ns-2 AODV's `PriQueue`). Off by default.
    pub control_priority: bool,
}

impl Default for MacParams {
    fn default() -> Self {
        // 802.11b DSSS PHY characteristics.
        let slot = SimDuration::from_micros(20);
        let sifs = SimDuration::from_micros(10);
        let difs = SimDuration::from_micros(50); // SIFS + 2·slot
                                                 // ACK: SIFS + PLCP (192 µs) + 14 B at 1 Mb/s (112 µs) + margin.
        let ack_timeout = sifs + SimDuration::from_micros(192 + 112 + 20);
        // CTS: SIFS + PLCP (192 µs) + 14 B at 1 Mb/s (112 µs) + margin.
        let cts_timeout = sifs + SimDuration::from_micros(192 + 112 + 20);
        MacParams {
            slot,
            sifs,
            difs,
            cw_min: 31,
            cw_max: 1023,
            retry_limit: 7,
            queue_capacity: 50,
            data_overhead_bytes: 34,
            ack_bytes: 14,
            ack_timeout,
            rts_threshold: None,
            rts_bytes: 20,
            cts_bytes: 14,
            cts_timeout,
            basic_rate_bps: 1e6,
            data_rate_bps: 2e6,
            plcp: SimDuration::from_micros(192),
            control_priority: false,
        }
    }
}

impl MacParams {
    /// The next contention window after a failed attempt:
    /// `CW' = min(2·CW + 1, cw_max)`.
    pub fn next_cw(&self, cw: u32) -> u32 {
        (2 * cw + 1).min(self.cw_max)
    }

    /// Estimated on-air time of a frame of `bytes` at the basic or data
    /// rate (used for NAV reservations; the authoritative airtime lives in
    /// the PHY).
    pub fn est_airtime(&self, bytes: usize, basic: bool) -> SimDuration {
        let rate = if basic {
            self.basic_rate_bps
        } else {
            self.data_rate_bps
        };
        self.plcp + SimDuration::from_secs_f64(bytes as f64 * 8.0 / rate)
    }

    /// NAV an RTS must advertise: CTS + data + ACK + 3×SIFS.
    pub fn rts_nav(&self, data_air_bytes: usize) -> SimDuration {
        self.sifs * 3
            + self.est_airtime(self.cts_bytes, true)
            + self.est_airtime(data_air_bytes, false)
            + self.est_airtime(self.ack_bytes, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_802_11b() {
        let p = MacParams::default();
        assert_eq!(p.slot, SimDuration::from_micros(20));
        assert_eq!(p.difs, p.sifs + p.slot * 2);
        assert_eq!(p.cw_min, 31);
        assert_eq!(p.cw_max, 1023);
    }

    #[test]
    fn cw_doubles_and_saturates() {
        let p = MacParams::default();
        assert_eq!(p.next_cw(31), 63);
        assert_eq!(p.next_cw(63), 127);
        assert_eq!(p.next_cw(511), 1023);
        assert_eq!(p.next_cw(1023), 1023);
    }
}
