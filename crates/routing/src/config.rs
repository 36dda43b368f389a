//! Routing-engine configuration (AODV constants, RFC 3561 era defaults).

use wmn_sim::SimDuration;

/// Tunables of the reactive routing engine, identical across schemes so
/// that comparisons isolate the rebroadcast policy.
#[derive(Clone, Debug)]
pub struct RoutingConfig {
    /// Maximum additional discovery attempts after the first (RREQ_RETRIES).
    pub rreq_retries: u32,
    /// Base wait for a route reply; doubles per retry (NET_TRAVERSAL_TIME).
    pub rreq_timeout: SimDuration,
    /// TTL on every RREQ, retries included (fixed, so that overhead
    /// comparisons across schemes are not confounded).
    pub rreq_ttl: u8,
    /// Active-route lifetime, refreshed on every use.
    pub route_lifetime: SimDuration,
    /// Duplicate-cache lifetime (PATH_DISCOVERY_TIME).
    pub seen_lifetime: SimDuration,
    /// HELLO beacon interval.
    pub hello_interval: SimDuration,
    /// Neighbour considered lost after this silence
    /// (ALLOWED_HELLO_LOSS × hello_interval).
    pub neighbor_timeout: SimDuration,
    /// Table/cache sweep cadence.
    pub sweep_interval: SimDuration,
    /// Data packets buffered per destination while discovering.
    pub buffer_capacity: usize,
}

impl Default for RoutingConfig {
    fn default() -> Self {
        let hello = SimDuration::from_secs(1);
        RoutingConfig {
            rreq_retries: 2,
            rreq_timeout: SimDuration::from_millis(1000),
            rreq_ttl: 32,
            route_lifetime: SimDuration::from_secs(10),
            seen_lifetime: SimDuration::from_secs(5),
            hello_interval: hello,
            neighbor_timeout: hello * 3,
            sweep_interval: SimDuration::from_millis(500),
            buffer_capacity: 64,
        }
    }
}

impl RoutingConfig {
    /// Discovery timeout for attempt `retry` (0-based): binary backoff.
    pub fn timeout_for_attempt(&self, retry: u32) -> SimDuration {
        self.rreq_timeout * (1u64 << retry.min(6))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_consistent() {
        let c = RoutingConfig::default();
        assert_eq!(c.neighbor_timeout, c.hello_interval * 3);
        assert!(c.seen_lifetime < c.route_lifetime);
    }

    #[test]
    fn timeout_backoff() {
        let c = RoutingConfig::default();
        assert_eq!(c.timeout_for_attempt(0), SimDuration::from_secs(1));
        assert_eq!(c.timeout_for_attempt(1), SimDuration::from_secs(2));
        assert_eq!(c.timeout_for_attempt(2), SimDuration::from_secs(4));
        // Clamped exponent guards against overflow.
        assert_eq!(c.timeout_for_attempt(40), SimDuration::from_secs(64));
    }
}
