//! DNS consolidation analysis: Figure 5 (resolver-project popularity per
//! country) and Table 4 (the structure of the "other" share, including
//! indirect consolidation through forwarding chains).

use crate::aggregate::Tally;
use crate::census::Census;
use inetgen::GeoDb;
use odns::ResolverProject;
use scanner::OdnsClass;
use std::collections::{BTreeMap, BTreeSet};

/// Which resolver answered a transparent forwarder's relay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ResolverSource {
    /// One of the four big projects (attributed by well-known address).
    Project(ResolverProject),
    /// Anything else — local resolvers or forwarding chains.
    Other,
}

impl ResolverSource {
    /// Figure 5's columns, in order.
    pub(crate) const COLUMNS: [ResolverSource; 5] = [
        ResolverSource::Project(ResolverProject::Google),
        ResolverSource::Project(ResolverProject::Cloudflare),
        ResolverSource::Project(ResolverProject::Quad9),
        ResolverSource::Project(ResolverProject::OpenDns),
        ResolverSource::Other,
    ];

    /// Index in [`ResolverSource::COLUMNS`] of the source answering from
    /// `ip`.
    pub(crate) fn column(ip: std::net::Ipv4Addr) -> usize {
        let source = ResolverSource::of(ip);
        (ResolverSource::COLUMNS.iter())
            .position(|column| *column == source)
            .expect("COLUMNS lists every source")
    }

    /// Attribute a response source address.
    pub fn of(ip: std::net::Ipv4Addr) -> Self {
        match ResolverProject::from_service_ip(ip) {
            Some(p) => ResolverSource::Project(p),
            None => ResolverSource::Other,
        }
    }

    /// Display label matching Figure 5's legend.
    pub fn label(&self) -> &'static str {
        match self {
            ResolverSource::Project(p) => p.name(),
            ResolverSource::Other => "Other",
        }
    }
}

/// Per-country resolver-source shares among transparent forwarders.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CountryConsolidation {
    /// Counts per source, in [`ResolverSource`] order (deterministic
    /// iteration keeps Figure 5 renderings byte-stable).
    pub counts: BTreeMap<ResolverSource, usize>,
    /// Total transparent forwarders with a known response source.
    pub total: usize,
}

impl CountryConsolidation {
    /// Share of a source in [0, 1].
    pub fn share(&self, source: ResolverSource) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            *self.counts.get(&source).unwrap_or(&0) as f64 / self.total as f64
        }
    }
}

/// Figure 5: per-country project shares behind transparent forwarders.
/// Country-sorted (`BTreeMap`) so renderings are byte-stable across runs.
pub fn figure5_by_country(census: &Census) -> BTreeMap<&'static str, CountryConsolidation> {
    (Tally::of(census).ranked().into_iter())
        .filter(|(_, stats, _)| stats.transparent_forwarders > 0)
        .map(|(country, stats, sources)| {
            let counts = (ResolverSource::COLUMNS.into_iter().zip(sources))
                .filter(|(_, n)| *n > 0)
                .collect();
            let total = stats.transparent_forwarders;
            (country, CountryConsolidation { counts, total })
        })
        .collect()
}

/// One row of Table 4: the structure of a country's "other" share.
#[derive(Debug, Clone)]
pub struct OtherShareRow {
    /// Country code.
    pub country: &'static str,
    /// ASN from which most "other" responses arrived.
    pub top_asn: Option<u32>,
    /// Transparent forwarders whose response source was "other".
    pub other_transparent: usize,
    /// Share of "other" responses whose `A_resolver` maps to a big-4 ASN —
    /// indirect consolidation through forwarding chains.
    pub indirect_share: f64,
    /// Distinct "other" resolver addresses serving this country (the
    /// "1 to 10 local resolvers" observation).
    pub distinct_other_resolvers: usize,
}

/// Table 4: top-`n` countries by absolute "other" share, with indirect
/// consolidation computed from the `A_resolver` record's ASN.
pub fn table4_other_share(census: &Census, geo: &GeoDb, n: usize) -> Vec<OtherShareRow> {
    struct Acc {
        by_asn: BTreeMap<u32, usize>,
        other_total: usize,
        indirect: usize,
        resolvers: BTreeSet<std::net::Ipv4Addr>,
    }
    let mut per_country: BTreeMap<&'static str, Acc> = BTreeMap::new();
    for row in census.of_class(OdnsClass::TransparentForwarder) {
        let (Some(country), Some((src, a_resolver))) = (row.country, row.answer_addrs()) else {
            continue;
        };
        if ResolverSource::of(src) != ResolverSource::Other {
            continue;
        }
        let acc = per_country.entry(country).or_insert_with(|| Acc {
            by_asn: BTreeMap::new(),
            other_total: 0,
            indirect: 0,
            resolvers: BTreeSet::new(),
        });
        acc.other_total += 1;
        acc.resolvers.insert(src);
        if let Some(asn) = geo.asn_of(src) {
            *acc.by_asn.entry(asn).or_insert(0) += 1;
        }
        // Indirect consolidation: the forwarding chain's *last* hop (the
        // auth's immediate client, reflected in A_resolver) belongs to a
        // big-4 project even though the response came from elsewhere.
        if geo
            .asn_of(a_resolver)
            .and_then(ResolverProject::from_asn)
            .is_some()
        {
            acc.indirect += 1;
        }
    }
    let mut rows: Vec<OtherShareRow> = per_country
        .into_iter()
        .map(|(country, acc)| OtherShareRow {
            country,
            // Ties on count resolve to the lowest ASN explicitly: the
            // rendered Table 4 must not depend on which tied ASN the
            // iterator happens to visit last.
            top_asn: acc
                .by_asn
                .iter()
                .max_by_key(|(a, c)| (**c, std::cmp::Reverse(**a)))
                .map(|(a, _)| *a),
            other_transparent: acc.other_total,
            indirect_share: if acc.other_total == 0 {
                0.0
            } else {
                acc.indirect as f64 / acc.other_total as f64
            },
            distinct_other_resolvers: acc.resolvers.len(),
        })
        .collect();
    rows.sort_by(|a, b| {
        b.other_transparent
            .cmp(&a.other_transparent)
            .then(a.country.cmp(b.country))
    });
    rows.truncate(n);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::census::CensusRow;
    use scanner::Verdict;
    use std::net::Ipv4Addr;

    fn row(country: &'static str, response_src: Ipv4Addr, a_resolver: Ipv4Addr) -> CensusRow {
        CensusRow {
            target: Ipv4Addr::new(203, 0, 113, 1),
            verdict: Verdict::Classified {
                class: OdnsClass::TransparentForwarder,
                a_resolver,
                response_src,
            },
            asn: Some(650),
            country: Some(country),
        }
    }

    fn geo() -> GeoDb {
        let mut g = GeoDb::default();
        g.add_prefix24(Ipv4Addr::new(8, 8, 4, 0), 15169);
        g.add_anycast(Ipv4Addr::new(8, 8, 8, 8), 15169);
        g.add_prefix24(Ipv4Addr::new(11, 0, 1, 0), 65001); // local resolver
        g.add_prefix24(Ipv4Addr::new(11, 0, 2, 0), 65002); // chain head
        g.add_asn(15169, "USA", netsim::AsKind::Content);
        g.add_asn(65001, "TUR", netsim::AsKind::EyeballIsp);
        g.add_asn(65002, "TUR", netsim::AsKind::EyeballIsp);
        g
    }

    #[test]
    fn figure5_attributes_projects() {
        let google = Ipv4Addr::new(8, 8, 8, 8);
        let local = Ipv4Addr::new(11, 0, 1, 9);
        let mut c = Census::default();
        c.rows.push(row("IND", google, Ipv4Addr::new(8, 8, 4, 1)));
        c.rows.push(row("IND", google, Ipv4Addr::new(8, 8, 4, 1)));
        c.rows.push(row("IND", local, local));
        let f5 = figure5_by_country(&c);
        let ind = &f5["IND"];
        assert_eq!(ind.total, 3);
        let g = ind.share(ResolverSource::Project(ResolverProject::Google));
        assert!((g - 2.0 / 3.0).abs() < 1e-9);
        assert!((ind.share(ResolverSource::Other) - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(ResolverSource::of(google).label(), "Google");
    }

    #[test]
    fn table4_separates_direct_local_from_chains() {
        let local = Ipv4Addr::new(11, 0, 1, 9); // local open resolver
        let chain_head = Ipv4Addr::new(11, 0, 2, 9); // forwards to Google
        let google_egress = Ipv4Addr::new(8, 8, 4, 1);
        let mut c = Census::default();
        // Two forwarders behind the local resolver: A_resolver = local.
        c.rows.push(row("TUR", local, local));
        c.rows.push(row("TUR", local, local));
        // One behind a chain: response from the chain head, but the auth
        // saw Google's egress.
        c.rows.push(row("TUR", chain_head, google_egress));
        let t4 = table4_other_share(&c, &geo(), 10);
        assert_eq!(t4.len(), 1);
        let r = &t4[0];
        assert_eq!(r.country, "TUR");
        assert_eq!(r.other_transparent, 3);
        assert!((r.indirect_share - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(r.distinct_other_resolvers, 2);
        assert_eq!(r.top_asn, Some(65001), "local resolver's AS dominates");
    }

    #[test]
    fn project_responses_not_in_other() {
        let mut c = Census::default();
        c.rows.push(row(
            "IND",
            Ipv4Addr::new(8, 8, 8, 8),
            Ipv4Addr::new(8, 8, 4, 1),
        ));
        let t4 = table4_other_share(&c, &geo(), 10);
        assert!(t4.is_empty());
    }
}
