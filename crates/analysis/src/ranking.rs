//! Table 5: country rankings by ODNS components — the study's complete
//! view vs a Shadowserver-style response-only view.

use crate::aggregate::by_country;
use crate::census::Census;
use std::collections::BTreeMap;

/// One row of the Table 5 comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct RankingRow {
    /// Country code.
    pub country: &'static str,
    /// Rank by the study's method (1-based).
    pub our_rank: usize,
    /// ODNS count by the study's method.
    pub our_count: usize,
    /// Rank in the Shadowserver-style view (None if absent there).
    pub shadow_rank: Option<usize>,
    /// Count in the Shadowserver-style view.
    pub shadow_count: usize,
}

impl RankingRow {
    /// Rank difference (positive = the country rises once transparent
    /// forwarders are counted), `None` when absent from the other view.
    pub fn rank_delta(&self) -> Option<isize> {
        self.shadow_rank
            .map(|s| s as isize - self.our_rank as isize)
    }

    /// Count difference (ours − Shadowserver's).
    pub fn count_delta(&self) -> isize {
        self.our_count as isize - self.shadow_count as isize
    }
}

/// Build the Table 5 comparison: rank countries by the census (ours) and
/// by a Shadowserver-style per-country count, and join. The map is
/// country-sorted so two identical inputs always produce the identical
/// table (see [`crate::census::run_shadowserver_census`]).
pub fn table5_ranking(
    census: &Census,
    shadowserver: &BTreeMap<&'static str, usize>,
    top_n: usize,
) -> Vec<RankingRow> {
    let ours: Vec<(&'static str, usize)> = {
        let mut v: Vec<(&'static str, usize)> = by_country(census)
            .into_iter()
            .filter_map(|(c, s)| c.map(|code| (code, s.total())))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        v
    };
    let shadow_ranks: BTreeMap<&'static str, (usize, usize)> = {
        let mut v: Vec<(&'static str, usize)> =
            shadowserver.iter().map(|(c, n)| (*c, *n)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        v.into_iter()
            .enumerate()
            .map(|(i, (c, n))| (c, (i + 1, n)))
            .collect()
    };

    ours.into_iter()
        .take(top_n)
        .enumerate()
        .map(|(i, (country, our_count))| {
            let (shadow_rank, shadow_count) = match shadow_ranks.get(country) {
                Some((r, n)) => (Some(*r), *n),
                None => (None, 0),
            };
            RankingRow {
                country,
                our_rank: i + 1,
                our_count,
                shadow_rank,
                shadow_count,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::census::CensusRow;
    use scanner::{OdnsClass, Verdict};
    use std::net::Ipv4Addr;

    fn rows(country: &'static str, n: usize, class: OdnsClass) -> Vec<CensusRow> {
        (0..n)
            .map(|_| CensusRow {
                target: Ipv4Addr::new(203, 0, 113, 1),
                verdict: Verdict::Classified {
                    class,
                    a_resolver: Ipv4Addr::new(8, 8, 8, 8),
                    response_src: Ipv4Addr::new(8, 8, 8, 8),
                },
                asn: Some(1),
                country: Some(country),
            })
            .collect()
    }

    #[test]
    fn ranking_join_and_deltas() {
        let mut census = Census::default();
        // BRA: 10 ODNS of which 8 transparent; DEU: 5, none transparent.
        census
            .rows
            .extend(rows("BRA", 8, OdnsClass::TransparentForwarder));
        census
            .rows
            .extend(rows("BRA", 2, OdnsClass::RecursiveForwarder));
        census
            .rows
            .extend(rows("DEU", 5, OdnsClass::RecursiveForwarder));
        // Shadowserver sees only non-transparent components.
        let mut shadow = BTreeMap::new();
        shadow.insert("BRA", 2usize);
        shadow.insert("DEU", 5usize);

        let table = table5_ranking(&census, &shadow, 20);
        assert_eq!(table.len(), 2);
        let bra = &table[0];
        assert_eq!(bra.country, "BRA");
        assert_eq!(bra.our_rank, 1);
        assert_eq!(bra.shadow_rank, Some(2), "Shadowserver underrates Brazil");
        assert_eq!(bra.rank_delta(), Some(1));
        assert_eq!(bra.count_delta(), 8);
        let deu = &table[1];
        assert_eq!(deu.our_rank, 2);
        assert_eq!(deu.shadow_rank, Some(1));
        assert_eq!(deu.rank_delta(), Some(-1));
    }

    #[test]
    fn missing_from_shadowserver() {
        let mut census = Census::default();
        census
            .rows
            .extend(rows("MUS", 3, OdnsClass::TransparentForwarder));
        let table = table5_ranking(&census, &BTreeMap::new(), 5);
        assert_eq!(table[0].shadow_rank, None);
        assert_eq!(table[0].rank_delta(), None);
        assert_eq!(table[0].count_delta(), 3);
    }

    #[test]
    fn top_n_truncation() {
        let mut census = Census::default();
        for (i, c) in ["AAA", "BBB", "CCC"].iter().enumerate() {
            census
                .rows
                .extend(rows(c, 3 - i, OdnsClass::RecursiveForwarder));
        }
        let table = table5_ranking(&census, &BTreeMap::new(), 2);
        assert_eq!(table.len(), 2);
        assert_eq!(table[0].country, "AAA");
    }
}
