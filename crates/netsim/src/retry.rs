//! Retransmission policy for scanners and traceroute sweeps.
//!
//! The paper's census sends one probe per target and waits; on a lossy
//! network that conflates "no ODNS component" with "probe or answer
//! lost". [`RetryPolicy`] describes how a prober retransmits: how many
//! attempts, the initial retransmission timeout (doubled per retry), and
//! an optional deterministic per-probe jitter. All retry
//! scheduling is a pure function of `(policy, probe index, attempt)` —
//! no RNG — so lossy scans stay bit-identical across shard counts and
//! warm reruns.

use crate::fault::mix64;
use crate::time::SimDuration;

/// Multiplier applied to the RTO per retry round: classic exponential
/// backoff.
const BACKOFF: u64 = 2;

/// How a prober retransmits unanswered probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total transmissions per probe, including the original. `1` means
    /// no retries (the pre-retry behavior, and the default).
    pub max_attempts: u8,
    /// Retransmission timeout before the first retry; each later retry
    /// waits twice as long as the one before.
    pub initial_rto: SimDuration,
    /// Maximum deterministic extra delay added per retransmission,
    /// hash-keyed by `(probe index, attempt)` to decorrelate retry
    /// bursts. Zero (the default) disables it.
    pub jitter: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::none()
    }
}

impl RetryPolicy {
    /// No retransmissions — single-shot probing.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            initial_rto: SimDuration::from_secs(2),
            jitter: SimDuration::ZERO,
        }
    }

    /// `retries` retransmissions (so `retries + 1` attempts total) with a
    /// 2 s initial RTO and exponential doubling.
    pub fn retries(retries: u8) -> Self {
        RetryPolicy {
            max_attempts: retries.saturating_add(1),
            ..Self::none()
        }
    }

    /// Builder: set the per-retransmission jitter bound.
    pub fn with_jitter(mut self, jitter: SimDuration) -> Self {
        self.jitter = jitter;
        self
    }

    /// True when the policy actually retransmits.
    pub fn enabled(&self) -> bool {
        self.max_attempts > 1
    }

    /// Reject nonsensical policies loudly at installation.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_attempts == 0 {
            return Err("max_attempts must be >= 1 (1 = no retries)".into());
        }
        if self.enabled() && self.initial_rto == SimDuration::ZERO {
            return Err("initial_rto must be positive when retries are enabled".into());
        }
        Ok(())
    }

    /// Panicking form of [`RetryPolicy::validate`].
    pub fn assert_valid(&self) {
        if let Err(e) = self.validate() {
            panic!("invalid RetryPolicy: {e}");
        }
    }

    /// The timeout armed after transmission `attempt` (0 = original):
    /// `initial_rto * 2^attempt`, saturating.
    pub fn rto_after(&self, attempt: u8) -> SimDuration {
        let mut rto = self.initial_rto.as_micros();
        for _ in 0..attempt {
            rto = rto.saturating_mul(BACKOFF);
        }
        SimDuration(rto)
    }

    /// Deterministic jitter for retransmission `attempt` of probe
    /// `index`, in `[0, jitter]`. A pure hash — no RNG state.
    pub fn jitter_for(&self, index: u64, attempt: u8) -> SimDuration {
        if self.jitter == SimDuration::ZERO {
            return SimDuration::ZERO;
        }
        let h = mix64(mix64(index ^ 0x5E7B_A0FF) ^ (u64::from(attempt) << 56));
        SimDuration(h % (self.jitter.as_micros() + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_single_shot() {
        let p = RetryPolicy::none();
        assert!(!p.enabled());
        assert_eq!(p.max_attempts, 1);
        assert!(p.validate().is_ok());
        assert_eq!(RetryPolicy::default(), p);
    }

    #[test]
    fn retries_counts_total_attempts() {
        let p = RetryPolicy::retries(2);
        assert!(p.enabled());
        assert_eq!(p.max_attempts, 3);
        assert_eq!(RetryPolicy::retries(255).max_attempts, 255, "saturates");
    }

    #[test]
    fn rto_backs_off_exponentially() {
        let p = RetryPolicy {
            initial_rto: SimDuration::from_secs(1),
            ..RetryPolicy::retries(3)
        };
        assert_eq!(p.rto_after(0), SimDuration::from_secs(1));
        assert_eq!(p.rto_after(1), SimDuration::from_secs(2));
        assert_eq!(p.rto_after(2), SimDuration::from_secs(4));
    }

    #[test]
    fn rto_saturates_instead_of_overflowing() {
        let p = RetryPolicy {
            initial_rto: SimDuration(u64::MAX / 2),
            ..RetryPolicy::retries(200)
        };
        assert_eq!(p.rto_after(100), SimDuration(u64::MAX));
    }

    #[test]
    fn validation_rejects_degenerate_policies() {
        let zero_attempts = RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::none()
        };
        assert!(zero_attempts.validate().is_err());
        let zero_rto = RetryPolicy {
            initial_rto: SimDuration::ZERO,
            ..RetryPolicy::retries(1)
        };
        assert!(zero_rto.validate().is_err());
        // Single-shot with zero RTO is fine — the RTO is never armed.
        let single = RetryPolicy {
            initial_rto: SimDuration::ZERO,
            ..RetryPolicy::none()
        };
        assert!(single.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid RetryPolicy")]
    fn assert_valid_panics() {
        RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::none()
        }
        .assert_valid();
    }

    #[test]
    fn jitter_is_bounded_deterministic_and_keyed() {
        let p = RetryPolicy::retries(2).with_jitter(SimDuration::from_millis(10));
        let mut distinct = false;
        for i in 0..200u64 {
            let j = p.jitter_for(i, 1);
            assert!(j <= SimDuration::from_millis(10));
            assert_eq!(j, p.jitter_for(i, 1), "pure function of (index, attempt)");
            if p.jitter_for(i, 1) != p.jitter_for(i, 2) {
                distinct = true;
            }
        }
        assert!(distinct, "attempts draw different jitter");
        assert_eq!(
            RetryPolicy::none().jitter_for(3, 1),
            SimDuration::ZERO,
            "zero bound disables jitter"
        );
    }
}
