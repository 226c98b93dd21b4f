//! Generator configuration and scaling.

use netsim::FaultPlan;
use rand::Rng;

/// Which countries to instantiate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CountrySelection {
    /// Everything in the calibration table.
    All,
    /// An explicit list of country codes.
    Codes(Vec<&'static str>),
}

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// RNG seed; the same seed yields a bit-identical Internet.
    pub seed: u64,
    /// Population scale denominator: a country with `N` full-scale hosts
    /// of a class receives `N / scale` (with probabilistic rounding of the
    /// remainder). `scale = 1` reproduces the full 2.1 M-host population;
    /// the default keeps benches in the seconds range.
    pub scale: u32,
    /// AS-count divisor. AS structure shrinks more gently than host
    /// counts so per-country AS diversity survives scaling.
    pub as_divisor: u32,
    /// Unresponsive probe targets mixed into the scan target list, per
    /// planted address (the real scan probes the whole IPv4 space; almost
    /// all targets never answer). A country with `P` planted addresses
    /// gets `round(P · dud_fraction)` duds in its own address region.
    pub dud_fraction: f64,
    /// Country subset.
    pub countries: CountrySelection,
    /// Fault plane injected into every shard's simulator. A zero salt is
    /// filled from the generation seed ([`FaultPlan::salted`]), which every
    /// shard shares, so a given flow sees the same fault verdicts for any
    /// shard count.
    pub faults: FaultPlan,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            seed: 0xC0DE_2021,
            scale: 500,
            as_divisor: 25,
            dud_fraction: 0.10,
            countries: CountrySelection::All,
            faults: FaultPlan::none(),
        }
    }
}

impl GenConfig {
    /// A small configuration for unit/integration tests (≈1k ODNS hosts).
    // detlint::allow(needless-pub): the world of tests/{golden_worlds,census_recovers_ground_truth,determinism_referee}.rs
    pub fn test_small() -> Self {
        GenConfig {
            scale: 2_000,
            as_divisor: 60,
            dud_fraction: 0.05,
            ..Self::default()
        }
    }

    /// A denser configuration for the prefix-density experiment: whole
    /// /24 middleboxes (254 forwarders behind one device) only materialize
    /// in countries whose scaled population clears several hundred hosts,
    /// so Figure 8 runs closer to full scale than the other experiments.
    pub fn density_scale() -> Self {
        GenConfig {
            scale: 60,
            as_divisor: 25,
            ..Self::default()
        }
    }

    /// Scale a full-scale count down, probabilistically rounding the
    /// remainder so expectations are preserved across many countries.
    pub fn scaled<R: Rng>(&self, full: u32, rng: &mut R) -> u32 {
        if self.scale <= 1 {
            return full;
        }
        let q = full / self.scale;
        let rem = full % self.scale;
        if rem > 0 && rng.gen_range(0..self.scale) < rem {
            q + 1
        } else {
            q
        }
    }

    /// Scale an AS count (at least 1).
    pub fn scaled_ases(&self, full: u16) -> u32 {
        (u32::from(full) / self.as_divisor).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn scaled_preserves_expectation() {
        let cfg = GenConfig {
            scale: 100,
            ..GenConfig::default()
        };
        let mut rng = SmallRng::seed_from_u64(7);
        let trials = 10_000;
        let total: u64 = (0..trials)
            .map(|_| u64::from(cfg.scaled(250, &mut rng)))
            .sum();
        let mean = total as f64 / trials as f64;
        assert!(
            (2.3..2.7).contains(&mean),
            "mean {mean} should approximate 2.5"
        );
    }

    #[test]
    fn scale_one_is_identity() {
        let cfg = GenConfig {
            scale: 1,
            ..GenConfig::default()
        };
        let mut rng = SmallRng::seed_from_u64(7);
        assert_eq!(cfg.scaled(123_456, &mut rng), 123_456);
    }

    #[test]
    fn ases_never_zero() {
        let cfg = GenConfig::default();
        assert_eq!(cfg.scaled_ases(1), 1);
        assert_eq!(cfg.scaled_ases(1236), 1236 / 25);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let cfg = GenConfig {
            scale: 100,
            ..GenConfig::default()
        };
        let mut a = SmallRng::seed_from_u64(9);
        let mut b = SmallRng::seed_from_u64(9);
        for full in [1u32, 99, 100, 101, 12345] {
            assert_eq!(cfg.scaled(full, &mut a), cfg.scaled(full, &mut b));
        }
    }
}
