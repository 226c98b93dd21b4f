//! Rendered reproductions: one function per table/figure, producing both
//! the data and a printable text artifact. `bench::PAPER` and the examples
//! call these to emit the same rows/series the paper reports.

use crate::aggregate::{by_country, figure3_cumulative, rank_by_transparent};
use crate::census::Census;
use crate::chart::{render_stacked_bar, Segment};
use crate::consolidation::{figure5_by_country, table4_other_share, ResolverSource};
use crate::density::PrefixDensity;
use crate::ranking::table5_ranking;
use crate::table::{pct, TextTable};
use inetgen::GeoDb;
use odns::ResolverProject;
use scanner::OdnsClass;
use std::collections::BTreeMap;

/// Table 1: the ODNS composition.
pub fn table1(census: &Census) -> TextTable {
    let mut t = TextTable::new(["Component", "Count", "Share"]);
    let total = census.odns_total();
    for class in OdnsClass::all() {
        let n = census.count(class);
        t.row([
            class.name().to_string(),
            n.to_string(),
            pct(n as f64, total as f64),
        ]);
    }
    t.row([
        "All ODNSes".to_string(),
        total.to_string(),
        "100.0%".to_string(),
    ]);
    t
}

/// Figure 3: cumulative transparent-forwarder share over ranked countries.
pub fn figure3(census: &Census) -> (TextTable, f64, f64) {
    let (points, zero_share) = figure3_cumulative(census);
    let mut t = TextTable::new(["Country rank", "Cumulative share"]);
    for (rank, share) in &points {
        if *rank <= 10 || rank % 25 == 0 || *rank == points.len() {
            t.row([rank.to_string(), format!("{:.3}", share)]);
        }
    }
    let top10 = points
        .get(9)
        .map(|(_, s)| *s)
        .unwrap_or_else(|| points.last().map(|(_, s)| *s).unwrap_or(0.0));
    (t, top10, zero_share)
}

/// Figure 4: the top-`n` countries with component shares.
pub fn figure4(census: &Census, n: usize) -> TextTable {
    let mut t = TextTable::new([
        "Country",
        "#ASes",
        "Transparent",
        "% Transp",
        "% RecFwd",
        "% Resolver",
        "Bar",
    ]);
    for (code, stats) in rank_by_transparent(census).into_iter().take(n) {
        let total = stats.total() as f64;
        let bar = render_stacked_bar(
            &[
                Segment {
                    glyph: 'T',
                    share: stats.transparent_forwarders as f64 / total,
                },
                Segment {
                    glyph: 'f',
                    share: stats.recursive_forwarders as f64 / total,
                },
                Segment {
                    glyph: 'r',
                    share: stats.resolvers as f64 / total,
                },
            ],
            24,
        );
        t.row([
            code.to_string(),
            stats.transparent_asns.to_string(),
            stats.transparent_forwarders.to_string(),
            pct(stats.transparent_forwarders as f64, total),
            pct(stats.recursive_forwarders as f64, total),
            pct(stats.resolvers as f64, total),
            bar,
        ]);
    }
    t
}

/// Figure 5: resolver-project popularity per country (top-`n` countries by
/// transparent forwarders).
pub fn figure5(census: &Census, n: usize) -> TextTable {
    let consolidation = figure5_by_country(census);
    let mut t = TextTable::new([
        "Country",
        "Google",
        "Cloudflare",
        "Quad9",
        "OpenDNS",
        "Other",
        "Bar",
    ]);
    for (code, _) in rank_by_transparent(census).into_iter().take(n) {
        let Some(c) = consolidation.get(code) else {
            continue;
        };
        let shares = [
            c.share(ResolverSource::Project(ResolverProject::Google)),
            c.share(ResolverSource::Project(ResolverProject::Cloudflare)),
            c.share(ResolverSource::Project(ResolverProject::Quad9)),
            c.share(ResolverSource::Project(ResolverProject::OpenDns)),
            c.share(ResolverSource::Other),
        ];
        let bar = render_stacked_bar(
            &[
                Segment {
                    glyph: 'G',
                    share: shares[0],
                },
                Segment {
                    glyph: 'C',
                    share: shares[1],
                },
                Segment {
                    glyph: 'q',
                    share: shares[2],
                },
                Segment {
                    glyph: 'o',
                    share: shares[3],
                },
                Segment {
                    glyph: '.',
                    share: shares[4],
                },
            ],
            24,
        );
        t.row([
            code.to_string(),
            pct(shares[0], 1.0),
            pct(shares[1], 1.0),
            pct(shares[2], 1.0),
            pct(shares[3], 1.0),
            pct(shares[4], 1.0),
            bar,
        ]);
    }
    t
}

/// Table 4: top-`n` countries by "other" share.
pub fn table4(census: &Census, geo: &GeoDb, n: usize) -> TextTable {
    let mut t = TextTable::new([
        "Country",
        "Top ASN",
        "# Transp. (other)",
        "Indirect consolidation",
        "Distinct other resolvers",
    ]);
    for row in table4_other_share(census, geo, n) {
        t.row([
            row.country.to_string(),
            row.top_asn
                .map(|a| a.to_string())
                .unwrap_or_else(|| "n/a".into()),
            row.other_transparent.to_string(),
            pct(row.indirect_share, 1.0),
            row.distinct_other_resolvers.to_string(),
        ]);
    }
    t
}

/// Table 5: top-`n` country ranking vs the Shadowserver-style view.
pub fn table5(
    census: &Census,
    shadowserver: &BTreeMap<&'static str, usize>,
    n: usize,
) -> TextTable {
    let mut t = TextTable::new([
        "Country", "Rank", "#ODNS", "SS Rank", "SS #ODNS", "ΔRank", "ΔCount",
    ]);
    for row in table5_ranking(census, shadowserver, n) {
        t.row([
            row.country.to_string(),
            row.our_rank.to_string(),
            row.our_count.to_string(),
            row.shadow_rank
                .map(|r| r.to_string())
                .unwrap_or_else(|| "n/a".into()),
            row.shadow_count.to_string(),
            row.rank_delta()
                .map(|d| format!("{d:+}"))
                .unwrap_or_else(|| "n/a".into()),
            format!("{:+}", row.count_delta()),
        ]);
    }
    t
}

/// Figure 8: the /24 density profile of transparent forwarders.
pub fn figure8(census: &Census) -> (TextTable, PrefixDensity) {
    let density = PrefixDensity::from_ips(census.transparent_targets());
    let mut t = TextTable::new(["Metric", "Value"]);
    t.row([
        "Transparent forwarders".to_string(),
        density.total().to_string(),
    ]);
    t.row([
        "Covering /24 prefixes".to_string(),
        density.prefix_count().to_string(),
    ]);
    t.row([
        "Share in sparse prefixes (<=25)".to_string(),
        pct(
            density.share_in_density_at_most(crate::density::SPARSE_MAX),
            1.0,
        ),
    ]);
    t.row([
        "Share in full prefixes (>=254)".to_string(),
        pct(
            density.share_in_density_at_least(crate::density::FULL_MIN),
            1.0,
        ),
    ]);
    t.row([
        "Completely populated prefixes".to_string(),
        density.full_prefixes().to_string(),
    ]);
    (t, density)
}

/// Country-level sanity summary used by examples.
pub fn country_summary(census: &Census) -> TextTable {
    let mut t = TextTable::new(["Country", "ODNS", "Transparent", "Share"]);
    let mut rows: Vec<_> = by_country(census)
        .into_iter()
        .filter_map(|(c, s)| c.map(|code| (code, s)))
        .collect();
    rows.sort_by_key(|(_, s)| std::cmp::Reverse(s.total()));
    for (code, stats) in rows {
        t.row([
            code.to_string(),
            stats.total().to_string(),
            stats.transparent_forwarders.to_string(),
            pct(stats.transparent_share(), 1.0),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::census::CensusRow;
    use scanner::Verdict;
    use std::net::Ipv4Addr;

    fn mini_census() -> Census {
        let mut c = Census::default();
        let mk = |country: &'static str, class: OdnsClass, src: Ipv4Addr, last: u8| CensusRow {
            target: Ipv4Addr::new(11, 0, 0, last),
            verdict: Verdict::Classified {
                class,
                a_resolver: src,
                response_src: src,
            },
            asn: Some(650),
            country: Some(country),
            response_src: Some(src),
            a_resolver: Some(src),
        };
        for i in 0..6 {
            c.rows.push(mk(
                "BRA",
                OdnsClass::TransparentForwarder,
                Ipv4Addr::new(8, 8, 8, 8),
                i,
            ));
        }
        for i in 0..3 {
            c.rows.push(mk(
                "BRA",
                OdnsClass::RecursiveForwarder,
                Ipv4Addr::new(11, 0, 0, 99),
                10 + i,
            ));
        }
        c.rows.push(mk(
            "BRA",
            OdnsClass::RecursiveResolver,
            Ipv4Addr::new(11, 0, 0, 99),
            20,
        ));
        c
    }

    #[test]
    fn table1_shares_sum_up() {
        let t = table1(&mini_census());
        let rendered = t.render();
        assert!(rendered.contains("Transparent Forwarder"));
        assert!(rendered.contains("60.0%"), "6/10 transparent:\n{rendered}");
        assert!(rendered.contains("All ODNSes"));
    }

    #[test]
    fn figure_reports_render() {
        let c = mini_census();
        let (f3, top10, zero) = figure3(&c);
        assert!(f3.row_count() >= 1);
        assert!((top10 - 1.0).abs() < 1e-9, "single country holds all");
        assert_eq!(zero, 0.0);
        assert!(figure4(&c, 10).render().contains("BRA"));
        assert!(figure5(&c, 10).render().contains("100.0%"));
        let (f8, density) = figure8(&c);
        assert_eq!(density.total(), 6);
        assert!(f8.render().contains("Covering /24 prefixes"));
        assert!(country_summary(&c).render().contains("BRA"));
    }

    #[test]
    fn table5_renders_deltas() {
        let mut shadow = BTreeMap::new();
        shadow.insert("BRA", 4usize);
        let t = table5(&mini_census(), &shadow, 5);
        let rendered = t.render();
        assert!(rendered.contains("BRA"));
        assert!(rendered.contains("+6"), "count delta 10-4:\n{rendered}");
    }

    #[test]
    fn report_surfaces_render_byte_stably() {
        // Two independently-built (identical) censuses must render the
        // identical bytes on every surface that aggregates per country —
        // the guarantee merged sharded reports rely on. Each construction
        // allocates fresh maps, so any HashMap-iteration-order dependence
        // in the aggregation surfaces would show up here.
        let render_all = || {
            let c = mini_census();
            let mut shadow = BTreeMap::new();
            shadow.insert("BRA", 4usize);
            let geo = inetgen::GeoDb::perfect();
            format!(
                "{}\n{}\n{}\n{}\n{}\n{}",
                table1(&c).render(),
                figure4(&c, 10).render(),
                figure5(&c, 10).render(),
                table4(&c, &geo, 10).render(),
                table5(&c, &shadow, 10).render(),
                country_summary(&c).render(),
            )
        };
        assert_eq!(render_all(), render_all());
    }
}
