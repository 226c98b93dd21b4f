//! Deterministic seed derivation for sharded experiments.
//!
//! A sharded experiment generates one world per disjoint partition of the
//! modeled Internet. The simulator itself draws nothing at random, but
//! world generation does: each country's population and each shard's
//! target shuffle come from their own RNG, seeded by a pure function of
//! `(base seed, stream id)` — never of the shard count or of scheduling
//! order — so that re-partitioning the same world cannot change any
//! per-country decision. [`derive_seed`] is that function; every crate
//! that derives per-shard or per-country streams goes through it.

use crate::fault::mix64;

/// Derive an independent seed from `base` for logical stream `stream`.
///
/// The SplitMix64 finalizer ([`mix64`]) over the combined value: cheap,
/// well-mixed, and stable across platforms. `derive_seed(base, a) ==
/// derive_seed(base, b)` iff `a == b`, and unrelated streams are
/// statistically independent.
pub fn derive_seed(base: u64, stream: u64) -> u64 {
    mix64(base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_deterministic() {
        assert_eq!(derive_seed(42, 7), derive_seed(42, 7));
    }

    #[test]
    fn streams_are_distinct() {
        let base = 0xC0DE_2021;
        let mut seen = std::collections::HashSet::new();
        for stream in 0..1_000u64 {
            assert!(
                seen.insert(derive_seed(base, stream)),
                "collision at stream {stream}"
            );
        }
    }
}
