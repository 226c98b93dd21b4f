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
struct AsnInfo {
    /// ISO-alpha-3 country code.
    country: &'static str,
    /// Network type (PeeringDB-style; `Unclassified` for the share the
    /// paper had to classify manually).
    kind: AsKind,
}

/// One ASN some table names, and its registry entry once registered.
#[derive(Debug, Clone)]
struct AsnSlot {
    asn: u32,
    info: Option<AsnInfo>,
}

/// What the prefix table knows of one /24.
#[derive(Debug, Clone, Copy, Default)]
struct Prefix24 {
    /// Registry slot of the /24's origin ASN; `None` for a /24 listed only
    /// because an anycast service address lies in it.
    origin: Option<u32>,
    /// An anycast service address lies in the /24, so a lookup there asks
    /// the anycast table first.
    anycast: bool,
}

/// The lookup database handed to the analysis pipeline. The default is
/// empty with full coverage (no address left unmapped).
///
/// A lookup costs one probe of the /24 table: each entry names its origin
/// ASN's registry slot (a vector index, not a second probe) and says
/// whether the anycast table has anything in that /24.
#[derive(Debug, Clone, Default)]
pub struct GeoDb {
    /// /24-granular prefix table: `prefix24 → origin`.
    prefixes: IntMap<u32, Prefix24>,
    /// ASN registry, one slot per ASN any table names.
    registry: Vec<AsnSlot>,
    /// `asn → registry slot`.
    slot_of: IntMap<u32, u32>,
    /// Anycast service addresses and their operating ASN's registry slot
    /// (these are not announced like unicast space; the study attributes
    /// them by well-known address).
    anycast: IntMap<Ipv4Addr, u32>,
    /// 1-in-[`MISS_DENOMINATOR`] addresses are unmapped (`false` disables).
    misses: bool,
}

/// The paper's 99.9 % coverage: one address in this many is unmapped.
const MISS_DENOMINATOR: u32 = 1000;

fn prefix24(ip: Ipv4Addr) -> u32 {
    u32::from(ip) & 0xFFFF_FF00
}

impl GeoDb {
    /// Empty database with the paper's 99.9 % coverage (1/1000 misses).
    pub fn new() -> Self {
        GeoDb {
            misses: true,
            ..GeoDb::default()
        }
    }

    /// The registry slot for `asn`, made empty if no table named it yet.
    fn slot(&mut self, asn: u32) -> u32 {
        let next = u32::try_from(self.registry.len()).expect("fewer than 2^32 ASNs");
        let slot = *self.slot_of.entry(asn).or_insert(next);
        if slot == next {
            self.registry.push(AsnSlot { asn, info: None });
        }
        slot
    }

    /// Register a /24 block as originated by `asn`.
    pub fn add_prefix24(&mut self, block: Ipv4Addr, asn: u32) {
        let slot = self.slot(asn);
        self.prefixes.entry(prefix24(block)).or_default().origin = Some(slot);
    }

    /// Register ASN registry data.
    pub fn add_asn(&mut self, asn: u32, country: &'static str, kind: AsKind) {
        let slot = self.slot(asn);
        self.registry[slot as usize].info = Some(AsnInfo { country, kind });
    }

    /// Register an anycast service address.
    pub fn add_anycast(&mut self, service: Ipv4Addr, asn: u32) {
        let slot = self.slot(asn);
        self.anycast.insert(service, slot);
        self.prefixes.entry(prefix24(service)).or_default().anycast = true;
    }

    /// Deterministic pseudo-random miss: mimics route-collector gaps.
    #[inline]
    fn missing(&self, ip: Ipv4Addr) -> bool {
        if !self.misses {
            return false;
        }
        // FNV-1a over the octets — stable across runs and platforms.
        let mut h: u32 = 0x811C_9DC5;
        for b in ip.octets() {
            h ^= u32::from(b);
            h = h.wrapping_mul(0x0100_0193);
        }
        h.is_multiple_of(MISS_DENOMINATOR)
    }

    /// The registry slot of an address's origin: an anycast service
    /// address's operator first, then — unless the address falls in the
    /// coverage gap — its /24's origin.
    #[inline]
    fn origin_slot(&self, ip: Ipv4Addr) -> Option<&AsnSlot> {
        let prefix = self.prefixes.get(&prefix24(ip))?;
        let anycast = prefix.anycast.then(|| self.anycast.get(&ip)).flatten();
        let slot = match anycast {
            Some(&slot) => slot,
            None if self.missing(ip) => return None,
            None => prefix.origin?,
        };
        Some(&self.registry[slot as usize])
    }

    /// Origin ASN for an address, Routeviews-style.
    pub fn asn_of(&self, ip: Ipv4Addr) -> Option<u32> {
        self.origin_slot(ip).map(|s| s.asn)
    }

    /// Origin ASN for an address and that ASN's country (whois/MaxMind
    /// style), in one lookup.
    #[inline]
    pub fn origin(&self, ip: Ipv4Addr) -> Option<(u32, Option<&'static str>)> {
        self.origin_slot(ip)
            .map(|s| (s.asn, s.info.as_ref().map(|i| i.country)))
    }

    /// The registry entry for an ASN.
    fn info(&self, asn: u32) -> Option<&AsnInfo> {
        let slot = *self.slot_of.get(&asn)?;
        self.registry[slot as usize].info.as_ref()
    }

    /// Network kind for an ASN, PeeringDB-style.
    pub fn kind_of_asn(&self, asn: u32) -> Option<AsKind> {
        self.info(asn).map(|i| i.kind)
    }

    /// Country for an address (composition of the two mappings).
    pub fn country_of(&self, ip: Ipv4Addr) -> Option<&'static str> {
        self.origin(ip)?.1
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
            self.misses, other.misses,
            "shard GeoDbs disagree on coverage model"
        );
        let asn_at = |slot: u32| other.registry[slot as usize].asn;
        for (prefix, entry) in &other.prefixes {
            let Some(origin) = entry.origin else { continue };
            let asn = asn_at(origin);
            let old = self.prefixes.get(prefix).and_then(|p| p.origin);
            let old = old.map(|slot| self.registry[slot as usize].asn);
            assert!(
                old.is_none_or(|o| o == asn),
                "shard GeoDbs disagree on prefix {}: {old:?} vs {asn}",
                Ipv4Addr::from(*prefix)
            );
            self.add_prefix24(Ipv4Addr::from(*prefix), asn);
        }
        for AsnSlot { asn, info } in &other.registry {
            let Some(info) = info else { continue };
            let old = self.info(*asn);
            assert!(
                old.is_none_or(|o| o == info),
                "shard GeoDbs disagree on ASN {asn}: {old:?} vs {info:?}"
            );
            self.add_asn(*asn, info.country, info.kind);
        }
        for (service, &slot) in &other.anycast {
            let asn = asn_at(slot);
            let old = self
                .anycast
                .get(service)
                .map(|&s| self.registry[s as usize].asn);
            assert!(
                old.is_none_or(|o| o == asn),
                "shard GeoDbs disagree on anycast {service}: {old:?} vs {asn}"
            );
            self.add_anycast(*service, asn);
        }
    }

    /// Number of registered /24 prefixes.
    pub fn prefix_count(&self) -> usize {
        self.prefixes
            .values()
            .filter(|p| p.origin.is_some())
            .count()
    }

    /// Number of registered ASNs.
    pub fn asn_count(&self) -> usize {
        self.registry.iter().filter(|s| s.info.is_some()).count()
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

    #[test]
    fn anycast_outranks_the_prefix_and_the_coverage_gap() {
        // The first address of 11/8 whose FNV-1a is a multiple of 1000.
        let gap = (0x0B00_0000..0x0C00_0000)
            .map(Ipv4Addr::from)
            .find(|ip| GeoDb::new().missing(*ip))
            .expect("11/8 holds a missed address");
        let mut db = GeoDb::new();
        db.add_prefix24(gap, 65001);
        db.add_asn(65001, "BRA", AsKind::EyeballIsp);
        db.add_asn(15169, "USA", AsKind::Content);
        assert_eq!(db.origin(gap), None, "the gap unmaps a prefix address");
        db.add_anycast(gap, 15169);
        assert_eq!(db.origin(gap), Some((15169, Some("USA"))));
        let neighbour = Ipv4Addr::from(u32::from(gap) ^ 1);
        assert_eq!(db.origin(neighbour), Some((65001, Some("BRA"))));
        // An anycast address outside every registered /24, and an ASN with
        // no registry entry.
        let service = Ipv4Addr::new(9, 9, 9, 9);
        db.add_anycast(service, 19281);
        assert_eq!(db.origin(service), Some((19281, None)));
        assert_eq!(db.origin(Ipv4Addr::new(9, 9, 9, 10)), None);
        assert_eq!((db.prefix_count(), db.asn_count()), (1, 2));
    }

    #[test]
    fn merge_is_a_union_whichever_order_tables_were_filled() {
        let mut a = GeoDb::new();
        a.add_asn(65001, "BRA", AsKind::EyeballIsp);
        a.add_prefix24(Ipv4Addr::new(11, 0, 1, 0), 65001);
        let mut b = GeoDb::new();
        b.add_prefix24(Ipv4Addr::new(11, 0, 2, 0), 65002);
        b.add_anycast(Ipv4Addr::new(8, 8, 8, 8), 15169);
        b.add_asn(65002, "TUR", AsKind::Content);
        b.add_asn(65001, "BRA", AsKind::EyeballIsp);
        a.merge(b);
        assert_eq!(
            a.origin(Ipv4Addr::new(11, 0, 1, 7)),
            Some((65001, Some("BRA")))
        );
        assert_eq!(
            a.origin(Ipv4Addr::new(11, 0, 2, 7)),
            Some((65002, Some("TUR")))
        );
        assert_eq!(a.asn_of(Ipv4Addr::new(8, 8, 8, 8)), Some(15169));
        assert_eq!(a.kind_of_asn(65002), Some(AsKind::Content));
        assert_eq!((a.prefix_count(), a.asn_count()), (2, 2));
    }

    #[test]
    #[should_panic(expected = "disagree on prefix")]
    fn merge_rejects_a_prefix_two_shards_originate_differently() {
        let mut a = GeoDb::new();
        a.add_prefix24(Ipv4Addr::new(11, 0, 1, 0), 65001);
        let mut b = GeoDb::new();
        b.add_prefix24(Ipv4Addr::new(11, 0, 1, 0), 65002);
        a.merge(b);
    }
}
