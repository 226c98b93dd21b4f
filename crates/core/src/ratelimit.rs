//! Per-source-prefix rate limiting.
//!
//! The paper's honeypot sensors answer at most one request every five
//! minutes *per source /24* — prefix-keyed rather than host-keyed so that
//! DoS "carpet bombs" (attacks sweeping a whole prefix of spoofed victims)
//! cannot multiply the sensor's output (§3.1).

use netsim::{IntMap, SimDuration, SimTime, TokenBucket};
use std::net::Ipv4Addr;

/// The covering /24 of an address, as a 24-bit-aligned u32.
pub fn prefix24(ip: Ipv4Addr) -> u32 {
    u32::from(ip) & 0xFFFF_FF00
}

/// Render a /24 key back to dotted form, e.g. `203.0.113.0/24`.
pub fn prefix24_to_string(prefix: u32) -> String {
    let ip = Ipv4Addr::from(prefix);
    format!("{ip}/24")
}

/// Bucket parameters for a prefix limiter.
#[derive(Debug, Clone, Copy)]
pub struct LimiterPolicy {
    /// Bucket capacity (burst size).
    pub capacity: u64,
    /// Tokens restored per period.
    pub refill: u64,
    /// Refill period.
    pub period: SimDuration,
}

impl LimiterPolicy {
    /// The paper's sensor policy: 1 answer / 5 min / source /24.
    pub fn one_per_5min() -> Self {
        LimiterPolicy {
            capacity: 1,
            refill: 1,
            period: SimDuration::from_secs(300),
        }
    }
}

/// A map of token buckets keyed by source /24.
#[derive(Debug)]
pub struct PrefixRateLimiter {
    policy: LimiterPolicy,
    buckets: IntMap<u32, TokenBucket>,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests rejected.
    pub rejected: u64,
}

impl PrefixRateLimiter {
    /// New limiter with the given per-prefix policy.
    pub fn new(policy: LimiterPolicy) -> Self {
        PrefixRateLimiter {
            policy,
            buckets: IntMap::default(),
            admitted: 0,
            rejected: 0,
        }
    }

    /// The sensor default (1 per 5 minutes per /24).
    pub fn sensor_default() -> Self {
        Self::new(LimiterPolicy::one_per_5min())
    }

    /// Admit or reject a request from `src` at `now`.
    ///
    /// A prefix's bucket is created on first sighting and anchored there
    /// ([`TokenBucket::new_at`]): refill periods are measured from the
    /// prefix's own first request, so the admit/shed sequence depends only
    /// on the inter-arrival times within the /24 — never on where those
    /// arrivals fall on the absolute simulated clock. A zero-anchored
    /// bucket would refill on absolute period boundaries and admit two
    /// requests seconds apart whenever they straddle one, which made shed
    /// counts depend on experiment scheduling (and, in sharded sweeps, on
    /// the shard partition that determines it).
    pub fn allow(&mut self, src: Ipv4Addr, now: SimTime) -> bool {
        let key = prefix24(src);
        let policy = self.policy;
        let bucket = self.buckets.entry(key).or_insert_with(|| {
            TokenBucket::new_at(policy.capacity, policy.refill, policy.period, now)
        });
        if bucket.try_take(now) {
            self.admitted += 1;
            true
        } else {
            self.rejected += 1;
            false
        }
    }

    /// Number of distinct source prefixes seen.
    pub fn prefixes_seen(&self) -> usize {
        self.buckets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_key_math() {
        assert_eq!(
            prefix24(Ipv4Addr::new(203, 0, 113, 77)),
            u32::from(Ipv4Addr::new(203, 0, 113, 0))
        );
        assert_eq!(
            prefix24_to_string(prefix24(Ipv4Addr::new(10, 1, 2, 3))),
            "10.1.2.0/24"
        );
    }

    #[test]
    fn same_prefix_shares_budget() {
        let mut l = PrefixRateLimiter::sensor_default();
        let t = SimTime::ZERO;
        assert!(l.allow(Ipv4Addr::new(203, 0, 113, 1), t));
        // A different host in the same /24 is rejected — carpet-bomb guard.
        assert!(!l.allow(Ipv4Addr::new(203, 0, 113, 200), t));
        assert_eq!(l.prefixes_seen(), 1);
        assert_eq!((l.admitted, l.rejected), (1, 1));
    }

    #[test]
    fn different_prefixes_are_independent() {
        let mut l = PrefixRateLimiter::sensor_default();
        let t = SimTime::ZERO;
        assert!(l.allow(Ipv4Addr::new(203, 0, 113, 1), t));
        assert!(l.allow(Ipv4Addr::new(203, 0, 114, 1), t));
        assert_eq!(l.prefixes_seen(), 2);
    }

    #[test]
    fn budget_recovers_after_period() {
        let mut l = PrefixRateLimiter::sensor_default();
        let src = Ipv4Addr::new(203, 0, 113, 1);
        assert!(l.allow(src, SimTime::ZERO));
        assert!(!l.allow(src, SimTime::ZERO + SimDuration::from_secs(299)));
        assert!(l.allow(src, SimTime::ZERO + SimDuration::from_secs(300)));
    }

    #[test]
    fn shed_sequence_independent_of_absolute_arrival_time() {
        // Regression for the shard-invariance contract: the same probe
        // train (0 s, +2 s, +301 s within one /24) must produce the same
        // admitted/shed sequence wherever it starts on the simulated
        // clock. Before buckets were anchored at first sighting, a train
        // starting at 299 s had its +2 s probe admitted (absolute 300 s
        // refill boundary) while a train starting at 0 s shed it.
        let src = Ipv4Addr::new(203, 0, 113, 9);
        for start_secs in [0u64, 123, 299, 300, 1799, 86_400] {
            let t0 = SimTime::ZERO + SimDuration::from_secs(start_secs);
            let mut l = PrefixRateLimiter::sensor_default();
            assert!(l.allow(src, t0), "start {start_secs}s: first admitted");
            assert!(
                !l.allow(src, t0 + SimDuration::from_secs(2)),
                "start {start_secs}s: +2 s shed"
            );
            assert!(
                l.allow(src, t0 + SimDuration::from_secs(301)),
                "start {start_secs}s: +301 s admitted"
            );
            assert_eq!((l.admitted, l.rejected), (2, 1), "start {start_secs}s");
        }
    }

    #[test]
    fn splitting_a_prefix_across_limiters_double_admits() {
        // Documents why a /24's probes must land in exactly one shard:
        // every limiter instance grants the prefix its own budget, so a
        // shard-split source would double its admitted quota and the
        // merged shed counts would depend on the partition.
        let t = SimTime::ZERO;
        let mut whole = PrefixRateLimiter::sensor_default();
        assert!(whole.allow(Ipv4Addr::new(203, 0, 113, 1), t));
        assert!(!whole.allow(Ipv4Addr::new(203, 0, 113, 2), t));

        let mut shard_a = PrefixRateLimiter::sensor_default();
        let mut shard_b = PrefixRateLimiter::sensor_default();
        assert!(shard_a.allow(Ipv4Addr::new(203, 0, 113, 1), t));
        assert!(shard_b.allow(Ipv4Addr::new(203, 0, 113, 2), t));
        assert_eq!(shard_a.rejected + shard_b.rejected, 0, "budget doubled");
    }
}
