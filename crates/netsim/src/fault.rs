//! Fault injection.
//!
//! Adverse network conditions are first-class: packet drop, corruption,
//! duplication, and latency jitter are configured through a [`FaultPlan`]
//! and decided **statelessly per packet** — every verdict is a SplitMix64
//! hash of `(plan salt, src, dst, src_port, txid, attempt)`, never a draw
//! from a sequential RNG. That makes a lossy run bit-identical for any
//! shard count, any event order, and any warm-cache rerun: the fate of a
//! probe depends only on its flow identity, not on how many packets the
//! simulator happened to process before it.

use crate::time::SimDuration;
use crate::topology::{AsKind, CountryCode};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// One fault profile: probabilities plus a jitter bound. Used standalone
/// (uniform faults) or as a per-country / per-AS-kind override inside a
/// [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability a packet is silently dropped in transit.
    pub drop_probability: f64,
    /// Probability a delivered packet is duplicated (second copy arrives
    /// one jitter interval later).
    pub duplicate_probability: f64,
    /// Probability a packet is corrupted in transit (the smoltcp examples'
    /// `--corrupt-chance`). The Internet checksum provably catches every
    /// single-bit error, so the receiving UDP stack discards such packets:
    /// corruption manifests as a distinct drop class. (Content-altering
    /// middleboxes that *recompute* checksums are modeled separately via
    /// `odns::Manipulation`.)
    pub corrupt_probability: f64,
    /// Maximum uniform extra latency added per packet. Zero disables
    /// jitter. Jitter also produces reordering between back-to-back sends.
    pub max_jitter: SimDuration,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            drop_probability: 0.0,
            duplicate_probability: 0.0,
            corrupt_probability: 0.0,
            max_jitter: SimDuration::ZERO,
        }
    }
}

/// The flow identity a fault verdict is keyed on. Two packets with the
/// same key share a fate; bumping `attempt` (a retransmission) re-rolls
/// every decision independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowKey {
    /// Source address on the wire (post-spoofing).
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// UDP source port.
    pub src_port: u16,
    /// DNS transaction id (first two payload bytes; zero when absent).
    pub txid: u16,
    /// Retransmission attempt, 0 for the original send.
    pub attempt: u8,
}

/// The complete, precomputed fate of one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowVerdict {
    /// Silently dropped before routing.
    pub drop: bool,
    /// Corrupted in transit — discarded by the receiver's checksum.
    pub corrupt: bool,
    /// A second copy is delivered shortly after the first.
    pub duplicate: bool,
    /// Extra delivery latency in `[0, max_jitter]`.
    pub jitter: SimDuration,
    /// Extra latency of the duplicate copy beyond the original's arrival.
    pub duplicate_jitter: SimDuration,
}

impl FlowVerdict {
    /// The no-fault verdict (quiet plans short-circuit to this).
    pub const CLEAN: FlowVerdict = FlowVerdict {
        drop: false,
        corrupt: false,
        duplicate: false,
        jitter: SimDuration::ZERO,
        duplicate_jitter: SimDuration::ZERO,
    };
}

/// SplitMix64 finalizer, which the shard-seed derivation
/// ([`crate::shard::derive_seed`]) calls too. Public so the retry layer can
/// key its per-probe jitter off it.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-decision stream constants: each fault dimension reads an
/// independent hash of the same flow key.
const STREAM_DROP: u64 = 0xD509;
const STREAM_CORRUPT: u64 = 0xC055;
const STREAM_DUPLICATE: u64 = 0xD0B1;
const STREAM_JITTER: u64 = 0x71AA;
const STREAM_DUP_JITTER: u64 = 0x71BB;
/// Stream for deriving a plan salt from a seed (see [`FaultPlan::salted`]).
const STREAM_SALT: u64 = 0x5A17;

fn flow_hash(salt: u64, key: &FlowKey, stream: u64) -> u64 {
    let endpoints = (u64::from(u32::from(key.src)) << 32) | u64::from(u32::from(key.dst));
    let ports =
        (u64::from(key.src_port) << 32) | (u64::from(key.txid) << 16) | u64::from(key.attempt);
    let mut h = mix64(salt ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    h = mix64(h ^ endpoints);
    h = mix64(h ^ ports);
    h
}

/// Map a hash to a unit-interval f64 (53 mantissa bits, unbiased).
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

fn probability_ok(p: f64) -> bool {
    p.is_finite() && (0.0..=1.0).contains(&p)
}

impl FaultConfig {
    /// No faults at all (the default).
    pub fn none() -> Self {
        Self::default()
    }

    /// A lossy profile for failure-injection tests: `p` drop probability
    /// with proportionate duplication/corruption and mild jitter.
    pub fn lossy(p: f64) -> Self {
        FaultConfig {
            drop_probability: p,
            duplicate_probability: p / 4.0,
            corrupt_probability: p / 8.0,
            max_jitter: SimDuration::from_millis(5),
        }
    }

    /// True when this profile injects nothing.
    pub fn is_none(&self) -> bool {
        self.drop_probability == 0.0
            && self.duplicate_probability == 0.0
            && self.corrupt_probability == 0.0
            && self.max_jitter == SimDuration::ZERO
    }

    /// Reject NaN and out-of-range probabilities loudly. Runs at
    /// construction/installation time (plan builders, `Simulator::new`,
    /// `set_faults`) — decision sites never clamp.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("drop_probability", self.drop_probability),
            ("duplicate_probability", self.duplicate_probability),
            ("corrupt_probability", self.corrupt_probability),
        ] {
            if !probability_ok(p) {
                return Err(format!("{name} = {p} is not a probability in [0, 1]"));
            }
        }
        Ok(())
    }

    /// Decide this packet's complete fate from its flow key alone.
    ///
    /// Each field reads its own hash stream, and only the streams a
    /// verdict needs are hashed: a dropped verdict leaves `corrupt`,
    /// `duplicate`, `jitter` and `duplicate_jitter` zero, and a verdict
    /// that is not a duplicate leaves `duplicate_jitter` zero. Every field
    /// a delivery reads is the same as if all five were hashed.
    pub fn decide(&self, salt: u64, key: &FlowKey) -> FlowVerdict {
        let hit = |p: f64, stream| p > 0.0 && unit(flow_hash(salt, key, stream)) < p;
        // A duration in `[0, max_jitter]`.
        let delay = |stream| match self.max_jitter.as_micros() {
            0 => SimDuration::ZERO,
            max => SimDuration(flow_hash(salt, key, stream) % (max + 1)),
        };
        if hit(self.drop_probability, STREAM_DROP) {
            return FlowVerdict {
                drop: true,
                ..FlowVerdict::CLEAN
            };
        }
        let duplicate = hit(self.duplicate_probability, STREAM_DUPLICATE);
        FlowVerdict {
            drop: false,
            corrupt: hit(self.corrupt_probability, STREAM_CORRUPT),
            duplicate,
            jitter: delay(STREAM_JITTER),
            duplicate_jitter: if duplicate {
                delay(STREAM_DUP_JITTER)
            } else {
                SimDuration::ZERO
            },
        }
    }
}

/// The world's fault geography: a base profile plus per-country and
/// per-AS-kind overrides, all keyed decisions salted by one value. Every
/// shard world of a run installs the same plan, salt included, which is
/// what keeps a lossy census K-invariant.
///
/// Precedence per packet (keyed by the **destination**'s AS): country
/// override, else AS-kind override, else base.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Decision salt, used as given: `0` is a salt like any other.
    /// [`FaultPlan::salted`] derives one from a seed.
    pub salt: u64,
    /// Profile applied where no override matches.
    pub base: FaultConfig,
    /// Overrides by destination country.
    pub by_country: BTreeMap<CountryCode, FaultConfig>,
    /// Overrides by destination AS kind.
    pub by_kind: BTreeMap<AsKind, FaultConfig>,
}

impl FaultPlan {
    /// No faults anywhere.
    pub fn none() -> Self {
        Self::default()
    }

    /// The same profile everywhere (no geography).
    pub fn uniform(base: FaultConfig) -> Self {
        FaultPlan {
            base,
            ..FaultPlan::default()
        }
    }

    /// Uniform lossy profile, as [`FaultConfig::lossy`].
    pub fn lossy(p: f64) -> Self {
        Self::uniform(FaultConfig::lossy(p))
    }

    /// Builder: override the profile for one destination country.
    pub fn with_country(mut self, country: CountryCode, cfg: FaultConfig) -> Self {
        self.by_country.insert(country, cfg);
        self
    }

    /// Builder: override the profile for one destination AS kind.
    pub fn with_kind(mut self, kind: AsKind, cfg: FaultConfig) -> Self {
        self.by_kind.insert(kind, cfg);
        self
    }

    /// Fill a zero salt from `seed` (leaves explicit salts untouched): the
    /// one way to give a plan a seed-dependent fault pattern. The simulator
    /// never calls it; it installs a plan exactly as given.
    pub fn salted(mut self, seed: u64) -> Self {
        if self.salt == 0 {
            self.salt = mix64(seed ^ STREAM_SALT);
        }
        self
    }

    /// True when no profile anywhere injects anything — the hot path's
    /// one-branch fast exit.
    pub fn is_quiet(&self) -> bool {
        self.base.is_none()
            && self.by_country.values().all(FaultConfig::is_none)
            && self.by_kind.values().all(FaultConfig::is_none)
    }

    /// Validate every profile in the plan.
    pub fn validate(&self) -> Result<(), String> {
        self.base.validate().map_err(|e| format!("base: {e}"))?;
        for (c, cfg) in &self.by_country {
            cfg.validate()
                .map_err(|e| format!("country {}: {e}", c.as_str()))?;
        }
        for (k, cfg) in &self.by_kind {
            cfg.validate().map_err(|e| format!("kind {k:?}: {e}"))?;
        }
        Ok(())
    }

    /// Panicking form of [`FaultPlan::validate`], used at installation.
    pub fn assert_valid(&self) {
        if let Err(e) = self.validate() {
            panic!("invalid FaultPlan: {e}");
        }
    }

    /// The profile in effect for a destination with the given geography.
    pub fn effective(&self, country: Option<CountryCode>, kind: Option<AsKind>) -> &FaultConfig {
        if let Some(cfg) = country.and_then(|c| self.by_country.get(&c)) {
            return cfg;
        }
        if let Some(cfg) = kind.and_then(|k| self.by_kind.get(&k)) {
            return cfg;
        }
        &self.base
    }

    /// Decide a packet's fate under the effective profile.
    pub fn decide(
        &self,
        key: &FlowKey,
        country: Option<CountryCode>,
        kind: Option<AsKind>,
    ) -> FlowVerdict {
        self.effective(country, kind).decide(self.salt, key)
    }
}

impl From<FaultConfig> for FaultPlan {
    fn from(cfg: FaultConfig) -> Self {
        FaultPlan::uniform(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> FlowKey {
        FlowKey {
            src: Ipv4Addr::new(192, 0, 2, 1),
            dst: Ipv4Addr::from((i as u32) | 0x0a00_0000),
            src_port: 33_000u16.wrapping_add(i as u16),
            txid: (i >> 16) as u16,
            attempt: 0,
        }
    }

    #[test]
    fn default_faults_do_nothing() {
        let f = FaultConfig::none();
        for i in 0..100 {
            assert_eq!(f.decide(7, &key(i)), FlowVerdict::CLEAN);
        }
        assert!(FaultPlan::none().is_quiet());
    }

    /// The eager verdict: all five streams hashed for every packet.
    fn eager_decide(f: &FaultConfig, salt: u64, key: &FlowKey) -> FlowVerdict {
        let bounded = |h: u64, max: SimDuration| {
            if max == SimDuration::ZERO {
                SimDuration::ZERO
            } else {
                SimDuration(h % (max.as_micros() + 1))
            }
        };
        FlowVerdict {
            drop: f.drop_probability > 0.0
                && unit(flow_hash(salt, key, STREAM_DROP)) < f.drop_probability,
            corrupt: f.corrupt_probability > 0.0
                && unit(flow_hash(salt, key, STREAM_CORRUPT)) < f.corrupt_probability,
            duplicate: f.duplicate_probability > 0.0
                && unit(flow_hash(salt, key, STREAM_DUPLICATE)) < f.duplicate_probability,
            jitter: bounded(flow_hash(salt, key, STREAM_JITTER), f.max_jitter),
            duplicate_jitter: bounded(flow_hash(salt, key, STREAM_DUP_JITTER), f.max_jitter),
        }
    }

    #[test]
    fn lazy_verdicts_agree_with_the_eager_reference_on_every_field_read() {
        let lossy = FaultConfig::lossy(0.05);
        let profiles = [
            lossy,
            FaultConfig {
                max_jitter: SimDuration::ZERO,
                ..lossy
            },
            FaultConfig {
                duplicate_probability: 1.0,
                ..lossy
            },
        ];
        for f in profiles {
            let mut seen = [0usize; 2]; // dropped, duplicated
            for i in 0..10_000 {
                let (lazy, eager) = (f.decide(7, &key(i)), eager_decide(&f, 7, &key(i)));
                assert_eq!(lazy.drop, eager.drop, "{f:?} key {i}");
                if lazy.drop {
                    seen[0] += 1;
                    assert_eq!(
                        lazy,
                        FlowVerdict {
                            drop: true,
                            ..FlowVerdict::CLEAN
                        }
                    );
                    continue;
                }
                // A lone copy has no duplicate delay to read.
                let expected = FlowVerdict {
                    duplicate_jitter: if eager.duplicate {
                        eager.duplicate_jitter
                    } else {
                        SimDuration::ZERO
                    },
                    ..eager
                };
                assert_eq!(lazy, expected, "{f:?} key {i}");
                seen[1] += usize::from(lazy.duplicate);
            }
            assert!(seen[0] > 300 && seen[1] > 50, "{f:?}: {seen:?}");
        }
    }

    #[test]
    fn drop_rate_roughly_matches_probability() {
        let f = FaultConfig {
            drop_probability: 0.3,
            ..FaultConfig::none()
        };
        let drops = (0..10_000).filter(|&i| f.decide(42, &key(i)).drop).count();
        assert!(
            (2_500..3_500).contains(&drops),
            "got {drops} drops out of 10000"
        );
    }

    #[test]
    fn jitter_bounded_and_nontrivial() {
        let f = FaultConfig {
            max_jitter: SimDuration::from_millis(3),
            ..FaultConfig::none()
        };
        let mut nonzero = 0;
        for i in 0..1000 {
            let j = f.decide(7, &key(i)).jitter;
            assert!(j <= SimDuration::from_millis(3));
            if j > SimDuration::ZERO {
                nonzero += 1;
            }
        }
        assert!(nonzero > 900, "jitter should almost always be nonzero");
    }

    #[test]
    fn verdicts_are_a_pure_function_of_salt_and_key() {
        let f = FaultConfig::lossy(0.2);
        for i in 0..500 {
            assert_eq!(f.decide(99, &key(i)), f.decide(99, &key(i)));
        }
        let differs = (0..500).any(|i| f.decide(99, &key(i)) != f.decide(100, &key(i)));
        assert!(differs, "a different salt must change the pattern");
    }

    #[test]
    fn attempts_reroll_independently() {
        let f = FaultConfig {
            drop_probability: 0.5,
            ..FaultConfig::none()
        };
        let differs = (0..200).any(|i| {
            let k0 = key(i);
            let k1 = FlowKey { attempt: 1, ..k0 };
            f.decide(5, &k0).drop != f.decide(5, &k1).drop
        });
        assert!(
            differs,
            "retransmissions must not share the original's fate"
        );
    }

    #[test]
    fn validation_rejects_nan_and_out_of_range() {
        let nan = FaultConfig {
            drop_probability: f64::NAN,
            ..FaultConfig::none()
        };
        assert!(nan.validate().is_err());
        let big = FaultConfig {
            corrupt_probability: 1.5,
            ..FaultConfig::none()
        };
        assert!(big.validate().is_err());
        let neg = FaultConfig {
            duplicate_probability: -0.1,
            ..FaultConfig::none()
        };
        assert!(neg.validate().is_err());
        assert!(FaultConfig::lossy(0.3).validate().is_ok());
        let plan = FaultPlan::none().with_kind(AsKind::Transit, big);
        assert!(plan.validate().unwrap_err().contains("Transit"));
    }

    #[test]
    #[should_panic(expected = "invalid FaultPlan")]
    fn assert_valid_panics_loudly() {
        FaultPlan::lossy(f64::INFINITY).assert_valid();
    }

    #[test]
    fn plan_precedence_country_beats_kind_beats_base() {
        let drop_all = FaultConfig {
            drop_probability: 1.0,
            ..FaultConfig::none()
        };
        let plan = FaultPlan::uniform(FaultConfig::none())
            .with_kind(AsKind::EyeballIsp, FaultConfig::lossy(0.5))
            .with_country(CountryCode::new("BRA"), drop_all);
        let bra = Some(CountryCode::new("BRA"));
        let deu = Some(CountryCode::new("DEU"));
        let isp = Some(AsKind::EyeballIsp);
        assert_eq!(plan.effective(bra, isp), &drop_all);
        assert_eq!(plan.effective(deu, isp), &FaultConfig::lossy(0.5));
        assert_eq!(
            plan.effective(deu, Some(AsKind::Transit)),
            &FaultConfig::none()
        );
        assert_eq!(plan.effective(None, None), &FaultConfig::none());
        assert!(!plan.is_quiet());
    }

    #[test]
    fn salting_fills_only_zero_salts() {
        let derived = FaultPlan::lossy(0.1).salted(7);
        assert_ne!(derived.salt, 0);
        assert_eq!(derived.clone().salted(8).salt, derived.salt);
        let explicit = FaultPlan {
            salt: 123,
            ..FaultPlan::lossy(0.1)
        };
        assert_eq!(explicit.salted(7).salt, 123);
        assert_ne!(
            FaultPlan::lossy(0.1).salted(7).salt,
            FaultPlan::lossy(0.1).salted(9).salt
        );
    }

    #[test]
    fn plan_from_config_is_uniform() {
        let plan: FaultPlan = FaultConfig::lossy(0.2).into();
        assert_eq!(plan.base, FaultConfig::lossy(0.2));
        assert!(plan.by_country.is_empty() && plan.by_kind.is_empty());
    }
}
