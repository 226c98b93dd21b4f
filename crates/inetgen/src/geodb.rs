//! The measurement-side mapping databases: Routeviews-style IP→ASN and
//! whois/MaxMind-style ASN→country.
//!
//! The paper "successfully map\[s\] 99.9 % \[of\] IP addresses to ASes based
//! on Routeviews dumps" and then maps ASes to countries "with whois data
//! und MaxMind" (§4.2). The generator exports exactly such a database from
//! its ground truth — including the 0.1 % coverage gap, modeled as a
//! deterministic pseudo-random miss so analyses must tolerate unmapped
//! addresses just like the real pipeline.

use netsim::{AsKind, IntMap};
use std::net::Ipv4Addr;

/// Per-ASN registry information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct AsnInfo {
    /// ISO-alpha-3 country code.
    pub country: &'static str,
    /// Network type (PeeringDB-style; `Unclassified` for the share the
    /// paper had to classify manually).
    pub kind: AsKind,
}

/// The lookup database handed to the analysis pipeline. The default is
/// empty with full coverage (no address left unmapped).
#[derive(Debug, Clone, Default)]
pub struct GeoDb {
    /// /24-granular prefix table: `prefix24 → asn`.
    prefix_to_asn: IntMap<u32, u32>,
    /// ASN registry.
    asn_info: IntMap<u32, AsnInfo>,
    /// Anycast service addresses and their operating ASN (these are not
    /// announced like unicast space; the study attributes them by
    /// well-known address).
    anycast: IntMap<Ipv4Addr, u32>,
    /// 1-in-`miss_denominator` addresses are unmapped (0 disables).
    miss_denominator: u32,
}

fn prefix24(ip: Ipv4Addr) -> u32 {
    u32::from(ip) & 0xFFFF_FF00
}

impl GeoDb {
    /// Empty database with the paper's 99.9 % coverage (1/1000 misses).
    pub fn new() -> Self {
        GeoDb {
            miss_denominator: 1000,
            ..GeoDb::default()
        }
    }

    /// Register a /24 block as originated by `asn`.
    pub fn add_prefix24(&mut self, block: Ipv4Addr, asn: u32) {
        self.prefix_to_asn.insert(prefix24(block), asn);
    }

    /// Register ASN registry data.
    pub fn add_asn(&mut self, asn: u32, country: &'static str, kind: AsKind) {
        self.asn_info.insert(asn, AsnInfo { country, kind });
    }

    /// Register an anycast service address.
    pub fn add_anycast(&mut self, service: Ipv4Addr, asn: u32) {
        self.anycast.insert(service, asn);
    }

    /// Deterministic pseudo-random miss: mimics route-collector gaps.
    fn missing(&self, ip: Ipv4Addr) -> bool {
        if self.miss_denominator == 0 {
            return false;
        }
        // FNV-1a over the octets — stable across runs and platforms.
        let mut h: u32 = 0x811C_9DC5;
        for b in ip.octets() {
            h ^= u32::from(b);
            h = h.wrapping_mul(0x0100_0193);
        }
        h.is_multiple_of(self.miss_denominator)
    }

    /// Origin ASN for an address, Routeviews-style.
    pub fn asn_of(&self, ip: Ipv4Addr) -> Option<u32> {
        if let Some(&asn) = self.anycast.get(&ip) {
            return Some(asn);
        }
        if self.missing(ip) {
            return None;
        }
        self.prefix_to_asn.get(&prefix24(ip)).copied()
    }

    /// Country for an ASN, whois/MaxMind-style.
    pub fn country_of_asn(&self, asn: u32) -> Option<&'static str> {
        self.asn_info.get(&asn).map(|i| i.country)
    }

    /// Network kind for an ASN, PeeringDB-style.
    pub fn kind_of_asn(&self, asn: u32) -> Option<AsKind> {
        self.asn_info.get(&asn).map(|i| i.kind)
    }

    /// Country for an address (composition of the two mappings).
    pub fn country_of(&self, ip: Ipv4Addr) -> Option<&'static str> {
        self.country_of_asn(self.asn_of(ip)?)
    }

    /// Absorb another database — the merge step of a sharded census.
    ///
    /// Shard databases are disjoint over population space by
    /// construction (each country owns a fixed prefix region) and agree
    /// exactly on the replicated backbone/fixture/anycast entries, so
    /// merging is a plain union. Overlapping keys must map identically;
    /// a mismatch means the shards were generated from different seeds.
    pub fn merge(&mut self, other: GeoDb) {
        assert_eq!(
            self.miss_denominator, other.miss_denominator,
            "shard GeoDbs disagree on coverage model"
        );
        for (prefix, asn) in other.prefix_to_asn {
            let old = self.prefix_to_asn.insert(prefix, asn);
            assert!(
                old.is_none_or(|o| o == asn),
                "shard GeoDbs disagree on prefix {}: {old:?} vs {asn}",
                Ipv4Addr::from(prefix)
            );
        }
        for (asn, info) in other.asn_info {
            let old = self.asn_info.insert(asn, info.clone());
            assert!(
                old.as_ref().is_none_or(|o| *o == info),
                "shard GeoDbs disagree on ASN {asn}: {old:?} vs {info:?}"
            );
        }
        for (service, asn) in other.anycast {
            let old = self.anycast.insert(service, asn);
            assert!(
                old.is_none_or(|o| o == asn),
                "shard GeoDbs disagree on anycast {service}: {old:?} vs {asn}"
            );
        }
    }

    /// Number of registered /24 prefixes.
    pub fn prefix_count(&self) -> usize {
        self.prefix_to_asn.len()
    }

    /// Number of registered ASNs.
    pub fn asn_count(&self) -> usize {
        self.asn_info.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_lookup() {
        let mut db = GeoDb::default();
        db.add_prefix24(Ipv4Addr::new(203, 0, 113, 0), 65001);
        db.add_asn(65001, "BRA", AsKind::EyeballIsp);
        assert_eq!(db.asn_of(Ipv4Addr::new(203, 0, 113, 77)), Some(65001));
        assert_eq!(db.asn_of(Ipv4Addr::new(203, 0, 114, 1)), None);
        assert_eq!(db.country_of(Ipv4Addr::new(203, 0, 113, 5)), Some("BRA"));
        assert_eq!(db.kind_of_asn(65001), Some(AsKind::EyeballIsp));
    }

    #[test]
    fn anycast_resolves_even_with_misses() {
        let mut db = GeoDb::new();
        db.add_anycast(Ipv4Addr::new(8, 8, 8, 8), 15169);
        assert_eq!(db.asn_of(Ipv4Addr::new(8, 8, 8, 8)), Some(15169));
    }

    #[test]
    fn miss_rate_is_about_one_permille() {
        let mut db = GeoDb::new();
        // Register everything in 11.0.0.0/8's first 4096 /24s.
        for i in 0..4096u32 {
            db.add_prefix24(Ipv4Addr::from(0x0B00_0000 + (i << 8)), 65000);
        }
        let mut misses = 0u32;
        let mut total = 0u32;
        for i in 0..4096u32 {
            for host in [1u32, 99, 200] {
                let ip = Ipv4Addr::from(0x0B00_0000 + (i << 8) + host);
                total += 1;
                if db.asn_of(ip).is_none() {
                    misses += 1;
                }
            }
        }
        let rate = f64::from(misses) / f64::from(total);
        assert!(
            (0.0002..0.003).contains(&rate),
            "miss rate {rate} (misses {misses}/{total})"
        );
    }

    #[test]
    fn misses_are_deterministic() {
        let db = GeoDb::new();
        let ip = Ipv4Addr::new(11, 22, 33, 44);
        assert_eq!(db.missing(ip), db.missing(ip));
    }
}
