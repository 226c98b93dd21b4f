//! Per-country aggregation: the data behind Figures 3 and 4.

use crate::cdf::Cdf;
use crate::census::Census;
use crate::consolidation::ResolverSource;
use scanner::{OdnsClass, Verdict};
use std::collections::BTreeMap;

/// Per-country ODNS composition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountryStats {
    /// Recursive resolvers.
    pub resolvers: usize,
    /// Recursive forwarders.
    pub recursive_forwarders: usize,
    /// Transparent forwarders.
    pub transparent_forwarders: usize,
    /// Distinct ASNs with at least one transparent forwarder.
    pub transparent_asns: usize,
}

impl CountryStats {
    /// Total ODNS components.
    pub fn total(&self) -> usize {
        self.resolvers + self.recursive_forwarders + self.transparent_forwarders
    }

    /// Transparent share in [0, 1].
    pub fn transparent_share(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.transparent_forwarders as f64 / self.total() as f64
        }
    }
}

/// Aggregate a census by country. Rows without a country mapping (the
/// 0.1 % geo gap) are collected under `None`.
///
/// `BTreeMap`-backed so that report surfaces iterating it render
/// byte-identically on every run — merged sharded reports rely on this
/// (`HashMap` iteration order varies per instance within one process).
pub fn by_country(census: &Census) -> BTreeMap<Option<&'static str>, CountryStats> {
    let tally = Tally::of(census);
    tally.slots.keys.into_iter().zip(tally.stats).collect()
}

/// A census's classified rows counted per country in one walk: a row
/// finds its country's slot without a map probe ([`CountrySlots`]), and
/// every count it adds to is a vector index. A discarded row is skipped
/// once its verdict is read, so every report built on a tally reads only
/// classified rows.
pub(crate) struct Tally {
    slots: CountrySlots,
    /// Composition per slot.
    stats: Vec<CountryStats>,
    /// Figure 5's resolver-source counts per slot over the slot's
    /// transparent forwarders, in [`ResolverSource::COLUMNS`] order.
    sources: Vec<[usize; 5]>,
}

impl Tally {
    pub(crate) fn of(census: &Census) -> Self {
        let mut tally = Tally {
            slots: CountrySlots::new(),
            stats: Vec::new(),
            sources: Vec::new(),
        };
        // `(slot, asn)` of every transparent forwarder, counted distinct
        // once the walk is done.
        let mut transparent_asns: Vec<(usize, u32)> = Vec::new();
        for row in &census.rows {
            let Verdict::Classified {
                class,
                response_src,
                ..
            } = row.verdict
            else {
                continue;
            };
            let at = tally.slots.find_or_push(row.country);
            if at == tally.stats.len() {
                tally.stats.push(CountryStats::default());
                tally.sources.push([0; 5]);
            }
            let stats = &mut tally.stats[at];
            match class {
                OdnsClass::RecursiveResolver => stats.resolvers += 1,
                OdnsClass::RecursiveForwarder => stats.recursive_forwarders += 1,
                OdnsClass::TransparentForwarder => {
                    stats.transparent_forwarders += 1;
                    tally.sources[at][ResolverSource::column(response_src)] += 1;
                    transparent_asns.extend(row.asn.map(|asn| (at, asn)));
                }
            }
        }
        transparent_asns.sort_unstable();
        transparent_asns.dedup();
        for (at, _) in transparent_asns {
            tally.stats[at].transparent_asns += 1;
        }
        tally
    }

    /// Mapped countries with their composition and Figure 5 source
    /// counts, ranked by transparent-forwarder count, descending (ties by
    /// code).
    pub(crate) fn ranked(&self) -> Vec<(&'static str, CountryStats, [usize; 5])> {
        let mut ranked: Vec<_> = (self.slots.keys.iter().zip(&self.stats).zip(&self.sources))
            .filter_map(|((code, stats), sources)| code.map(|code| (code, *stats, *sources)))
            .collect();
        ranked.sort_by(|a, b| {
            b.1.transparent_forwarders
                .cmp(&a.1.transparent_forwarders)
                .then(a.0.cmp(b.0))
        });
        ranked
    }
}

/// Which tally slot each country code names. A code of three capital
/// letters — every code the geo database hands out — and the geo gap's
/// `None` index `by_code` directly; a census built by hand may spell a
/// country any other way, and such a code is found by content in `keys`.
struct CountrySlots {
    /// Country of each slot, in first-seen order.
    keys: Vec<Option<&'static str>>,
    /// `slot + 1` per three-letter code, then one entry for `None`; 0 for
    /// a code not met yet.
    by_code: Vec<u16>,
}

impl CountrySlots {
    /// Entries of `by_code`: 26³ codes and `None`.
    const CODES: usize = 26 * 26 * 26 + 1;

    fn new() -> Self {
        CountrySlots {
            keys: Vec::new(),
            by_code: vec![0; Self::CODES],
        }
    }

    /// Where `country` sits in `keys`, appended if it is new.
    fn find_or_push(&mut self, country: Option<&'static str>) -> usize {
        let code = match country {
            None => Some(Self::CODES - 1),
            Some(code) => Self::code_index(code),
        };
        if let Some(held) = code.map(|i| self.by_code[i]).filter(|&held| held != 0) {
            return usize::from(held) - 1;
        }
        let at = match self.keys.iter().position(|held| *held == country) {
            Some(at) => at,
            None => {
                self.keys.push(country);
                self.keys.len() - 1
            }
        };
        if let (Some(i), Ok(held)) = (code, u16::try_from(at + 1)) {
            self.by_code[i] = held;
        }
        at
    }

    /// `AAA` → 0 … `ZZZ` → 26³ − 1; `None` for any other spelling.
    fn code_index(code: &str) -> Option<usize> {
        let &[a, b, c] = code.as_bytes() else {
            return None;
        };
        let letter = |l: u8| l.is_ascii_uppercase().then(|| usize::from(l - b'A'));
        Some((letter(a)? * 26 + letter(b)?) * 26 + letter(c)?)
    }
}

/// Countries ranked by transparent-forwarder count, descending (the
/// Figure 3/4 x-axis). Unmapped rows excluded.
pub fn rank_by_transparent(census: &Census) -> Vec<(&'static str, CountryStats)> {
    (Tally::of(census).ranked().into_iter())
        .map(|(code, stats, _)| (code, stats))
        .collect()
}

/// Figure 3: cumulative share of transparent forwarders over countries
/// ranked descending. Returns `(rank, cumulative_share)` points plus the
/// share of ODNS countries hosting no transparent forwarder at all.
pub fn figure3_cumulative(census: &Census) -> (Vec<(usize, f64)>, f64) {
    let ranked = rank_by_transparent(census);
    let total: usize = ranked.iter().map(|(_, s)| s.transparent_forwarders).sum();
    let mut points = Vec::with_capacity(ranked.len());
    let mut cum = 0usize;
    for (i, (_, stats)) in ranked.iter().enumerate() {
        cum += stats.transparent_forwarders;
        points.push((
            i + 1,
            if total == 0 {
                0.0
            } else {
                cum as f64 / total as f64
            },
        ));
    }
    let zero_countries = ranked
        .iter()
        .filter(|(_, s)| s.transparent_forwarders == 0)
        .count();
    let zero_share = if ranked.is_empty() {
        0.0
    } else {
        zero_countries as f64 / ranked.len() as f64
    };
    (points, zero_share)
}

/// CDF of per-country transparent counts (for summary statistics).
pub fn transparent_count_cdf(census: &Census) -> Cdf {
    Cdf::from_samples(
        rank_by_transparent(census)
            .into_iter()
            .map(|(_, s)| s.transparent_forwarders as f64),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::census::CensusRow;
    use scanner::Verdict;
    use std::net::Ipv4Addr;

    fn row(country: Option<&'static str>, asn: u32, class: OdnsClass) -> CensusRow {
        let target = Ipv4Addr::new(203, 0, 113, 1);
        CensusRow {
            target,
            verdict: Verdict::Classified {
                class,
                a_resolver: Ipv4Addr::new(8, 8, 8, 8),
                response_src: Ipv4Addr::new(8, 8, 8, 8),
            },
            asn: Some(asn),
            country,
        }
    }

    fn census() -> Census {
        let mut c = Census::default();
        for _ in 0..8 {
            c.rows
                .push(row(Some("BRA"), 650, OdnsClass::TransparentForwarder));
        }
        c.rows
            .push(row(Some("BRA"), 651, OdnsClass::TransparentForwarder));
        c.rows
            .push(row(Some("BRA"), 650, OdnsClass::RecursiveForwarder));
        for _ in 0..3 {
            c.rows
                .push(row(Some("DEU"), 700, OdnsClass::RecursiveForwarder));
        }
        c.rows
            .push(row(Some("DEU"), 700, OdnsClass::RecursiveResolver));
        c.rows.push(row(None, 999, OdnsClass::RecursiveForwarder));
        c
    }

    #[test]
    fn aggregation_by_country() {
        let m = by_country(&census());
        let bra = m[&Some("BRA")];
        assert_eq!(bra.transparent_forwarders, 9);
        assert_eq!(bra.recursive_forwarders, 1);
        assert_eq!(bra.transparent_asns, 2);
        assert_eq!(bra.total(), 10);
        assert!((bra.transparent_share() - 0.9).abs() < 1e-9);
        let deu = m[&Some("DEU")];
        assert_eq!(deu.transparent_forwarders, 0);
        assert_eq!(deu.resolvers, 1);
        assert!(m.contains_key(&None), "geo gap bucket");
    }

    #[test]
    fn equal_codes_at_different_addresses_share_a_bucket() {
        // `rows` is `pub`: a hand-built census may spell a country with a
        // string of its own, which the address scan cannot find.
        let elsewhere: &'static str = String::from("BRA").leak();
        assert_ne!(elsewhere.as_ptr(), "BRA".as_ptr());
        let mut c = census();
        c.rows
            .push(row(Some(elsewhere), 652, OdnsClass::TransparentForwarder));
        c.rows.push(row(None, 998, OdnsClass::RecursiveResolver));
        let m = by_country(&c);
        assert_eq!(m.len(), 3, "BRA, DEU and the geo gap: {:?}", m.keys());
        assert_eq!(m[&Some("BRA")].transparent_forwarders, 10);
        assert_eq!(m[&Some("BRA")].transparent_asns, 3);
        assert_eq!(m[&None].total(), 2);
    }

    #[test]
    fn ranking_descending() {
        let r = rank_by_transparent(&census());
        assert_eq!(r[0].0, "BRA");
        assert_eq!(r[1].0, "DEU");
    }

    #[test]
    fn figure3_points_reach_one_and_count_zero_countries() {
        let (points, zero_share) = figure3_cumulative(&census());
        assert_eq!(points.len(), 2);
        assert!((points[1].1 - 1.0).abs() < 1e-9);
        assert!(
            (zero_share - 0.5).abs() < 1e-9,
            "DEU has no transparent forwarders"
        );
    }
}
