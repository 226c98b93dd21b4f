//! Per-source-prefix rate limiting.
//!
//! The paper's honeypot sensors answer at most one request every five
//! minutes *per source /24* — prefix-keyed rather than host-keyed so that
//! DoS "carpet bombs" (attacks sweeping a whole prefix of spoofed victims)
//! cannot multiply the sensor's output (§3.1).

use netsim::{IntMap, SimDuration, SimTime};
use std::net::Ipv4Addr;

/// The sensor policy's refill period: one answer per 5 minutes.
const PERIOD: SimDuration = SimDuration::from_secs(300);

/// The covering /24 of an address, as a 24-bit-aligned u32.
pub fn prefix24(ip: Ipv4Addr) -> u32 {
    u32::from(ip) & 0xFFFF_FF00
}

/// A deterministic token bucket driven by simulated time: `capacity`
/// tokens at most, `refill_per_period` added every `period`, one taken per
/// admitted request.
#[derive(Debug, Clone)]
struct TokenBucket {
    capacity: u64,
    tokens: u64,
    refill_per_period: u64,
    period: SimDuration,
    last_refill: SimTime,
}

impl TokenBucket {
    /// New bucket, starting full, with refills anchored at `origin` — the
    /// moment the bucket comes into existence. Periods are then measured
    /// from the bucket's own first sighting, which makes admit/shed
    /// decisions a function of request *inter-arrival times* only, never
    /// of where the requests happen to fall on the absolute clock.
    fn new_at(capacity: u64, refill_per_period: u64, period: SimDuration, origin: SimTime) -> Self {
        assert!(period.as_micros() > 0, "refill period must be positive");
        TokenBucket {
            capacity,
            tokens: capacity,
            refill_per_period,
            period,
            last_refill: origin,
        }
    }

    /// Try to admit one request at time `now`.
    fn try_take(&mut self, now: SimTime) -> bool {
        if now > self.last_refill {
            let elapsed = now - self.last_refill;
            let periods = elapsed.as_micros() / self.period.as_micros();
            if periods > 0 {
                let added = periods.saturating_mul(self.refill_per_period);
                self.tokens = (self.tokens.saturating_add(added)).min(self.capacity);
                self.last_refill += SimDuration(periods * self.period.as_micros());
            }
        }
        if self.tokens > 0 {
            self.tokens -= 1;
            true
        } else {
            false
        }
    }
}

/// The paper's sensor policy, 1 answer / 5 min / source /24: a map of
/// token buckets keyed by source /24.
#[derive(Debug, Default)]
pub struct PrefixRateLimiter {
    buckets: IntMap<u32, TokenBucket>,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests rejected.
    pub rejected: u64,
}

impl PrefixRateLimiter {
    /// A limiter that has seen no request yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Admit or reject a request from `src` at `now`.
    ///
    /// A prefix's bucket is created on first sighting and anchored there
    /// (`TokenBucket::new_at`): refill periods are measured from the
    /// prefix's own first request, so the admit/shed sequence depends only
    /// on the inter-arrival times within the /24 — never on where those
    /// arrivals fall on the absolute simulated clock. A zero-anchored
    /// bucket would refill on absolute period boundaries and admit two
    /// requests seconds apart whenever they straddle one, which made shed
    /// counts depend on experiment scheduling (and, in sharded sweeps, on
    /// the shard partition that determines it).
    pub fn allow(&mut self, src: Ipv4Addr, now: SimTime) -> bool {
        let bucket = self
            .buckets
            .entry(prefix24(src))
            .or_insert_with(|| TokenBucket::new_at(1, 1, PERIOD, now));
        if bucket.try_take(now) {
            self.admitted += 1;
            true
        } else {
            self.rejected += 1;
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn prefix_key_math() {
        assert_eq!(
            prefix24(Ipv4Addr::new(203, 0, 113, 77)),
            u32::from(Ipv4Addr::new(203, 0, 113, 0))
        );
        assert_eq!(
            Ipv4Addr::from(prefix24(Ipv4Addr::new(10, 1, 2, 3))),
            Ipv4Addr::new(10, 1, 2, 0)
        );
    }

    #[test]
    fn same_prefix_shares_budget() {
        let mut l = PrefixRateLimiter::new();
        let t = SimTime::ZERO;
        assert!(l.allow(Ipv4Addr::new(203, 0, 113, 1), t));
        // A different host in the same /24 is rejected — carpet-bomb guard.
        assert!(!l.allow(Ipv4Addr::new(203, 0, 113, 200), t));
        assert_eq!((l.admitted, l.rejected), (1, 1));
    }

    #[test]
    fn different_prefixes_are_independent() {
        let mut l = PrefixRateLimiter::new();
        let t = SimTime::ZERO;
        assert!(l.allow(Ipv4Addr::new(203, 0, 113, 1), t));
        assert!(l.allow(Ipv4Addr::new(203, 0, 114, 1), t));
        assert_eq!((l.admitted, l.rejected), (2, 0));
    }

    #[test]
    fn budget_recovers_after_period() {
        let mut l = PrefixRateLimiter::new();
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
            let mut l = PrefixRateLimiter::new();
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
        let mut whole = PrefixRateLimiter::new();
        assert!(whole.allow(Ipv4Addr::new(203, 0, 113, 1), t));
        assert!(!whole.allow(Ipv4Addr::new(203, 0, 113, 2), t));

        let mut shard_a = PrefixRateLimiter::new();
        let mut shard_b = PrefixRateLimiter::new();
        assert!(shard_a.allow(Ipv4Addr::new(203, 0, 113, 1), t));
        assert!(shard_b.allow(Ipv4Addr::new(203, 0, 113, 2), t));
        assert_eq!(shard_a.rejected + shard_b.rejected, 0, "budget doubled");
    }

    #[test]
    fn bucket_serves_capacity_then_blocks() {
        let mut b = TokenBucket::new_at(3, 3, SimDuration::from_secs(1), SimTime::ZERO);
        let t0 = SimTime::ZERO;
        assert!(b.try_take(t0));
        assert!(b.try_take(t0));
        assert!(b.try_take(t0));
        assert!(
            !b.try_take(t0),
            "fourth request in the same instant must be rejected"
        );
    }

    #[test]
    fn bucket_refills_after_period() {
        let mut b = TokenBucket::new_at(1, 1, PERIOD, SimTime::ZERO);
        assert!(b.try_take(SimTime::ZERO));
        assert!(!b.try_take(SimTime::ZERO + SimDuration::from_secs(299)));
        assert!(b.try_take(SimTime::ZERO + SimDuration::from_secs(300)));
        assert!(!b.try_take(SimTime::ZERO + SimDuration::from_secs(300)));
    }

    #[test]
    fn bucket_never_exceeds_capacity() {
        let mut b = TokenBucket::new_at(2, 2, SimDuration::from_secs(1), SimTime::ZERO);
        // Long idle: refill many periods, but cap at capacity.
        let t = SimTime::ZERO + SimDuration::from_secs(100);
        assert!(b.try_take(t));
        assert!(b.try_take(t));
        assert!(!b.try_take(t));
    }

    #[test]
    fn five_minute_policy_matches_paper() {
        let mut b = TokenBucket::new_at(1, 1, PERIOD, SimTime::ZERO);
        assert!(b.try_take(SimTime::ZERO));
        // A scan retry 20 seconds later is ignored.
        assert!(!b.try_take(SimTime::ZERO + SimDuration::from_secs(20)));
        // The next periodic campaign pass (hours later) is served.
        assert!(b.try_take(SimTime::ZERO + SimDuration::from_secs(3600)));
    }

    #[test]
    fn zero_anchored_bucket_leaks_across_absolute_boundaries() {
        // The hazard anchoring at first sighting exists for: a 5-minute
        // bucket anchored at zero admits two requests 2 s apart when they
        // straddle an absolute 300 s boundary.
        let mut b = TokenBucket::new_at(1, 1, PERIOD, SimTime::ZERO);
        assert!(b.try_take(SimTime::ZERO + SimDuration::from_secs(299)));
        assert!(b.try_take(SimTime::ZERO + SimDuration::from_secs(301)));
    }

    #[test]
    fn origin_anchored_bucket_depends_on_inter_arrival_only() {
        for start_secs in [0u64, 17, 299, 600, 3601] {
            let t0 = SimTime::ZERO + SimDuration::from_secs(start_secs);
            let mut b = TokenBucket::new_at(1, 1, PERIOD, t0);
            assert!(b.try_take(t0), "first request admitted at t0+{start_secs}s");
            assert!(
                !b.try_take(t0 + SimDuration::from_secs(2)),
                "2 s later is shed whatever the absolute clock says"
            );
            assert!(
                !b.try_take(t0 + SimDuration::from_secs(299)),
                "still inside the period"
            );
            assert!(b.try_take(t0 + SimDuration::from_secs(300)));
        }
    }

    proptest! {
        #[test]
        fn token_bucket_never_exceeds_capacity(
            capacity in 1u64..20,
            refill in 1u64..20,
            period_ms in 1u64..1000,
            probes in proptest::collection::vec((0u64..100_000, any::<bool>()), 1..50),
        ) {
            let period = SimDuration::from_millis(period_ms);
            let mut bucket = TokenBucket::new_at(capacity, refill, period, SimTime::ZERO);
            let mut times: Vec<u64> = probes.iter().map(|(t, _)| *t).collect();
            times.sort_unstable();
            let mut granted_in_window = 0u64;
            let mut window_start = 0u64;
            for t in times {
                let now = SimTime(t * 1000);
                if bucket.try_take(now) {
                    // Coarse upper bound: within any single period at most
                    // capacity + refill grants can happen.
                    if t - window_start < period_ms {
                        granted_in_window += 1;
                        prop_assert!(granted_in_window <= capacity + refill,
                            "too many grants in one period");
                    } else {
                        window_start = t;
                        granted_in_window = 1;
                    }
                }
            }
        }
    }
}
