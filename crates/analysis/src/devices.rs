//! Appendix E reproductions: device fingerprinting attribution, AS-type
//! classification of the top transparent-forwarder ASes, and the 32-bit
//! ASN observation.

use crate::census::Census;
use inetgen::GeoDb;
use netsim::AsKind;
use odns::Vendor;
use scanner::{attribute_vendor, HostEvidence, OdnsClass};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Vendor attribution summary over the transparent-forwarder population.
#[derive(Debug, Clone, Default)]
pub struct VendorSummary {
    /// Attributed counts per vendor, vendor-sorted so an iterated
    /// summary renders byte-identically on every run.
    pub counts: BTreeMap<Vendor, usize>,
    /// Hosts probed but unattributed (no identifying banner).
    pub unattributed: usize,
    /// Total hosts considered.
    pub total: usize,
}

impl VendorSummary {
    /// Share of a vendor among all considered hosts.
    pub fn share(&self, vendor: Vendor) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            *self.counts.get(&vendor).unwrap_or(&0) as f64 / self.total as f64
        }
    }
}

/// Attribute vendors from fingerprint evidence for the given hosts.
pub fn vendor_summary(
    evidence: &BTreeMap<Ipv4Addr, HostEvidence>,
    hosts: &[Ipv4Addr],
) -> VendorSummary {
    let mut summary = VendorSummary {
        total: hosts.len(),
        ..VendorSummary::default()
    };
    for ip in hosts {
        match evidence.get(ip).and_then(attribute_vendor) {
            Some(v) => *summary.counts.entry(v).or_insert(0) += 1,
            None => summary.unattributed += 1,
        }
    }
    summary
}

/// One row of the top-AS classification (Appendix E: "79 of the top-100
/// ASes are Cable/DSL/ISP networks", "65 ASNs are 32-bit numbers").
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TopAsRow {
    /// The ASN.
    pub asn: u32,
    /// Transparent forwarders hosted.
    pub transparent: usize,
    /// PeeringDB-style network kind.
    pub kind: Option<AsKind>,
    /// Whether the ASN needs 32 bits (RFC 4893 four-octet space).
    pub is_32bit: bool,
}

/// The top-`n` ASes by transparent-forwarder count.
fn top_ases_by_transparent(census: &Census, geo: &GeoDb, n: usize) -> Vec<TopAsRow> {
    let mut per_asn: BTreeMap<u32, usize> = BTreeMap::new();
    for row in census.of_class(OdnsClass::TransparentForwarder) {
        if let Some(asn) = row.asn {
            *per_asn.entry(asn).or_insert(0) += 1;
        }
    }
    let mut v: Vec<TopAsRow> = per_asn
        .into_iter()
        .map(|(asn, transparent)| TopAsRow {
            asn,
            transparent,
            kind: geo.kind_of_asn(asn),
            is_32bit: asn > 65_535,
        })
        .collect();
    v.sort_by(|a, b| b.transparent.cmp(&a.transparent).then(a.asn.cmp(&b.asn)));
    v.truncate(n);
    v
}

/// Summary of the top-AS classification.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TopAsSummary {
    /// ASes counted.
    pub total: usize,
    /// Eyeball (Cable/DSL/ISP) ASes.
    pub eyeball: usize,
    /// Other classified kinds.
    pub other_kinds: usize,
    /// Unclassified.
    pub unclassified: usize,
    /// 32-bit ASNs.
    pub four_octet: usize,
    /// Share of all transparent forwarders covered by these ASes.
    pub coverage: f64,
}

/// Summarize the top-`n` ASes (the Appendix E headline numbers).
pub fn top_as_summary(census: &Census, geo: &GeoDb, n: usize) -> TopAsSummary {
    let rows = top_ases_by_transparent(census, geo, n);
    let covered: usize = rows.iter().map(|r| r.transparent).sum();
    let total_transparent = census.count(OdnsClass::TransparentForwarder);
    let mut s = TopAsSummary {
        total: rows.len(),
        ..TopAsSummary::default()
    };
    for r in &rows {
        match r.kind {
            Some(AsKind::EyeballIsp) => s.eyeball += 1,
            Some(AsKind::Unclassified) | None => s.unclassified += 1,
            Some(_) => s.other_kinds += 1,
        }
        if r.is_32bit {
            s.four_octet += 1;
        }
    }
    s.coverage = if total_transparent == 0 {
        0.0
    } else {
        covered as f64 / total_transparent as f64
    };
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::census::CensusRow;
    use scanner::Verdict;

    fn census_with_asns(asns: &[(u32, usize)]) -> Census {
        let mut c = Census::default();
        for (asn, count) in asns {
            for _ in 0..*count {
                c.rows.push(CensusRow {
                    target: Ipv4Addr::new(11, 0, 0, 1),
                    verdict: Verdict::Classified {
                        class: OdnsClass::TransparentForwarder,
                        a_resolver: Ipv4Addr::new(8, 8, 8, 8),
                        response_src: Ipv4Addr::new(8, 8, 8, 8),
                    },
                    asn: Some(*asn),
                    country: Some("BRA"),
                });
            }
        }
        c
    }

    #[test]
    fn top_as_ranking_and_32bit_detection() {
        let census = census_with_asns(&[(4_200_000_001, 10), (20_001, 5), (20_002, 1)]);
        let mut geo = GeoDb::default();
        geo.add_asn(4_200_000_001, "BRA", AsKind::EyeballIsp);
        geo.add_asn(20_001, "BRA", AsKind::Content);
        geo.add_asn(20_002, "BRA", AsKind::Unclassified);
        let rows = top_ases_by_transparent(&census, &geo, 2);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].asn, 4_200_000_001);
        assert!(rows[0].is_32bit);
        assert!(!rows[1].is_32bit);

        let summary = top_as_summary(&census, &geo, 2);
        assert_eq!(summary.eyeball, 1);
        assert_eq!(summary.other_kinds, 1);
        assert_eq!(summary.four_octet, 1);
        assert!((summary.coverage - 15.0 / 16.0).abs() < 1e-9);
    }

    #[test]
    fn vendor_attribution_shares() {
        let mut evidence = BTreeMap::new();
        let a = Ipv4Addr::new(11, 0, 0, 1);
        let b = Ipv4Addr::new(11, 0, 0, 2);
        let c = Ipv4Addr::new(11, 0, 0, 3);
        let mut e = HostEvidence::default();
        e.banners.push((5678, "MikroTik RouterOS 6.45.9".into()));
        evidence.insert(a, e);
        let mut e2 = HostEvidence::default();
        e2.banners.push((7547, "Zyxel CPE".into()));
        evidence.insert(b, e2);
        // c: probed, nothing open.
        evidence.insert(c, HostEvidence::default());

        let summary = vendor_summary(&evidence, &[a, b, c]);
        assert_eq!(summary.total, 3);
        assert_eq!(summary.counts[&Vendor::MikroTik], 1);
        assert_eq!(summary.unattributed, 1);
        assert!((summary.share(Vendor::MikroTik) - 1.0 / 3.0).abs() < 1e-9);
    }
}
