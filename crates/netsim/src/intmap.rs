//! [`IntMap`]: the hash table under every id-keyed table of the
//! per-packet path.
//!
//! The boundary, stated once. A table whose keys are small integers the
//! simulator hands out (`NodeId`, `AsId`, task ids, probe indices) or at
//! most 32 bits of packet header (an address, a `(port, txid)` pair) is an
//! `IntMap`: such keys are dense, nobody gains from colliding them, and
//! SipHash's per-lookup cost was the largest single item left in the event
//! loop. A table keyed by a *wire name* — `DnsCache`, the resolver's
//! in-flight table — stays on std's randomly keyed SipHash: names are
//! unbounded strings the adversary models of the attack suite choose, which
//! is exactly what a keyed hash is for. So do maps that never see a packet
//! (pcap taps, topology-build temporaries), where the hasher buys nothing —
//! except the analysis side's per-row lookup: `inetgen::GeoDb` probes its
//! /24 prefix table once per census row (and its ASN and anycast tables
//! on the rarer paths that need them).
//!
//! A fixed seed makes an `IntMap`'s iteration order repeat from run to run
//! where `RandomState`'s did not. Repeatable is not *ordered*: the order
//! still depends on capacity and insertion history, so `detlint`'s
//! `unordered-iter` rule treats `IntMap` exactly like `HashMap`.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed by [`IntHasher`]. Build one with `IntMap::default()`
/// or `IntMap::with_capacity_and_hasher(n, Default::default())`.
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// Odd, bit-balanced multiplier (2^64 / φ).
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Fixed-seed hasher for small integer keys: every written word is folded
/// into the state with one rotate, one xor and one multiply.
///
/// Not collision-resistant — see the module docs for which tables may use
/// it.
#[derive(Debug, Default, Clone, Copy)]
pub struct IntHasher(u64);

impl IntHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for IntHasher {
    /// A multiply pushes entropy upward, so the state's low bits are its
    /// weakest; hashbrown picks the bucket from the hash's low bits and the
    /// control tag from its top seven. The rotation puts state bits 38–63
    /// at the bottom and bits 31–37 at the top: both ends come from above
    /// the middle of the product.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    /// Byte strings, eight bytes per fold. Current toolchains hash an
    /// `Ipv4Addr` as one `u32`; older ones sent its octets here behind a
    /// `usize` length prefix, and `[u8; N]` keys still arrive that way.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.fold(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.fold(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.fold(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.fold(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.fold(i as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::AsId;
    use std::hash::{BuildHasher, Hash};
    use std::net::Ipv4Addr;

    fn hash_of(key: impl Hash) -> u64 {
        BuildHasherDefault::<IntHasher>::default().hash_one(key)
    }

    /// Fullest and emptiest of the 128 bins `keys` fall into, relative to
    /// the mean, by the low seven hash bits (hashbrown's bucket index for
    /// a 128-bucket table, and the low end of every larger one) and by the
    /// top seven (its control tag).
    fn spread<K: Hash>(keys: impl Iterator<Item = K>) -> [(f64, f64); 2] {
        let mut bins = [[0u32; 128]; 2];
        let mut n = 0u32;
        for key in keys {
            let h = hash_of(key);
            bins[0][(h & 127) as usize] += 1;
            bins[1][(h >> 57) as usize] += 1;
            n += 1;
        }
        let mean = f64::from(n) / 128.0;
        bins.map(|b| {
            let (lo, hi) = (b.iter().min().unwrap(), b.iter().max().unwrap());
            (f64::from(*lo) / mean, f64::from(*hi) / mean)
        })
    }

    /// The stated bound: no bin under half or over one and a half times
    /// its fair share — about what a uniformly random function achieves at
    /// these key counts (≥ 32 per bin), and far from what a `finish` that
    /// leaves either end of the word unmixed does (most bins empty).
    fn assert_spread<K: Hash>(what: &str, keys: impl Iterator<Item = K>) {
        for (bits, (lo, hi)) in ["low 7", "top 7"].into_iter().zip(spread(keys)) {
            assert!(
                lo >= 0.5 && hi <= 1.5,
                "{what}, {bits} bits: bins hold {lo:.2}–{hi:.2} × their share"
            );
        }
    }

    #[test]
    fn sequential_port_txid_pairs_spread() {
        // Target-keyed probe tuples: the port steps with the target's low
        // 16 bits, the txid is one of a few /16s.
        assert_spread(
            "target-keyed",
            (0..4u16).flat_map(|hi| (0..2048u16).map(move |lo| (33_000 + lo, 0x0B00 + hi))),
        );
        assert_spread("txid walk", (0..8192u32).map(|i| (53u16, i as u16)));
        // A forwarder's pending table: few ports, txids as clients chose.
        assert_spread(
            "ports × txids",
            (0..64u16).flat_map(|p| (0..128u16).map(move |t| (40_000 + p, 0x2861 + t))),
        );
    }

    #[test]
    fn sequential_addresses_of_one_slash16_spread() {
        let block =
            |a, b| (0..=u16::MAX).map(move |i| Ipv4Addr::new(a, b, (i >> 8) as u8, i as u8));
        assert_spread("11.0/16", block(11, 0));
        assert_spread("203.113/16", block(203, 113));
        // One /24 is all a small world has of a prefix: 2 per bin, so only
        // the ceiling means anything.
        let hi = spread((0..=255u8).map(|d| Ipv4Addr::new(192, 0, 2, d))).map(|(_, hi)| hi);
        assert!(hi[0] <= 3.0 && hi[1] <= 3.0, "one /24: fullest bins {hi:?}");
    }

    #[test]
    fn as_pair_grids_spread() {
        let grid = |n: u32| (0..n).flat_map(move |a| (0..n).map(move |b| (AsId(a), AsId(b))));
        assert_spread("64 × 64 ASes", grid(64));
        assert_spread("one source AS", (0..4096u32).map(|b| (AsId(3), AsId(b))));
        let service = Ipv4Addr::new(8, 8, 8, 8);
        assert_spread("AS × service", (0..4096u32).map(|a| (AsId(a), service)));
    }

    #[test]
    fn byte_strings_fold_eight_bytes_at_a_time() {
        // `[u8; 4]` hashes as a `usize` length prefix, then `write`.
        let mut by_hand = IntHasher::default();
        by_hand.write_usize(4);
        by_hand.write_u32(u32::from_le_bytes([192, 0, 2, 1]));
        assert_eq!(hash_of([192u8, 0, 2, 1]), by_hand.finish());
        assert_spread(
            "octet arrays of one /16",
            (0..=u16::MAX).map(|i| [11u8, 0, (i >> 8) as u8, i as u8]),
        );
        // Longer than one word: every byte counts, in order.
        let long = |tweak: usize| {
            let mut bytes = *b"a resolver's name";
            bytes[tweak] ^= 1;
            hash_of(bytes)
        };
        let all: std::collections::BTreeSet<u64> = (0..17).map(long).collect();
        assert_eq!(all.len(), 17);
    }

    #[test]
    fn the_seed_is_fixed() {
        // Two maps built apart hash a key alike — `RandomState` keys every
        // map differently — so equal insertion histories iterate alike.
        let build = || {
            let mut map: IntMap<(u16, u16), usize> = IntMap::default();
            map.extend(
                (0..1000usize)
                    .map(|i| ((i as u16).wrapping_mul(7919), i as u16))
                    .zip(0..),
            );
            map
        };
        let (a, b) = (build(), build());
        assert_eq!(
            a.hasher().hash_one((53u16, 7u16)),
            b.hasher().hash_one((53u16, 7u16))
        );
        assert!(a.iter().eq(b.iter()), "iteration order must repeat");
        // Pinned: a changed constant or fold changes every table's layout.
        assert_eq!(hash_of(1u32), K.rotate_left(26));
    }
}
