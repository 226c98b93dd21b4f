//! The census pipeline: run the transactional scan over a generated
//! Internet, classify every transaction, and enrich with geo/ASN data —
//! producing the dataframe every table and figure is computed from
//! (the paper's `dns-measurement-analysis` artifact).

use crate::table::{push_csv_cell, push_ipv4};
use inetgen::{GeoDb, Internet, ShardWorldCache, Worlds};
use scanner::{
    classify, ClassifierConfig, Discard, OdnsClass, ScanConfig, ScanOutcome, Transaction, Verdict,
};
use std::fmt::Write as _;
use std::net::Ipv4Addr;

/// One classified probe, enriched with mapping data.
#[derive(Debug, Clone, PartialEq)]
pub struct CensusRow {
    /// Probed address.
    pub target: Ipv4Addr,
    /// Classification verdict.
    pub verdict: Verdict,
    /// Target's origin ASN (Routeviews-style lookup; `None` for the 0.1 %
    /// coverage gap).
    pub asn: Option<u32>,
    /// Target's country (via ASN → country).
    pub country: Option<&'static str>,
    /// Who answered (for classified rows).
    pub response_src: Option<Ipv4Addr>,
    /// The dynamic `A_resolver` record (for classified rows).
    pub a_resolver: Option<Ipv4Addr>,
}

impl CensusRow {
    /// The ODNS class, if classified.
    pub fn class(&self) -> Option<OdnsClass> {
        self.verdict.class()
    }
}

/// The census dataset. `PartialEq` row for row — what the capture-driven
/// verification asserts against the live census.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Census {
    /// One row per probe.
    pub rows: Vec<CensusRow>,
    /// Responses that matched no probe.
    pub unmatched_responses: usize,
    /// Responses that arrived past the timeout.
    pub late_responses: usize,
    /// Answers discarded because their probe was already answered — wire
    /// duplicates and answers from superseded retransmission attempts.
    pub late_answers_discarded: usize,
}

impl Census {
    /// Build from correlated transactions plus the lookup database.
    pub fn from_transactions(
        transactions: &[Transaction],
        geo: &GeoDb,
        config: &ClassifierConfig,
    ) -> Self {
        let rows = transactions
            .iter()
            .map(|t| {
                let verdict = classify(t, config);
                let (response_src, a_resolver) = match verdict {
                    Verdict::Classified {
                        response_src,
                        a_resolver,
                        ..
                    } => (Some(response_src), Some(a_resolver)),
                    Verdict::Discarded(_) => (None, None),
                };
                let asn = geo.asn_of(t.probe.target);
                CensusRow {
                    target: t.probe.target,
                    verdict,
                    asn,
                    country: asn.and_then(|a| geo.country_of_asn(a)),
                    response_src,
                    a_resolver,
                }
            })
            .collect();
        Census {
            rows,
            unmatched_responses: 0,
            late_responses: 0,
            late_answers_discarded: 0,
        }
    }

    /// Build from a correlated scan: classify its transactions and carry
    /// its unmatched/late/discarded counters over.
    pub fn from_outcome(outcome: &ScanOutcome, geo: &GeoDb, config: &ClassifierConfig) -> Self {
        Census {
            unmatched_responses: outcome.unmatched_responses,
            late_responses: outcome.late_responses,
            late_answers_discarded: outcome.late_answers_discarded,
            ..Census::from_transactions(&outcome.transactions, geo, config)
        }
    }

    /// Rows classified as `class`.
    pub fn of_class(&self, class: OdnsClass) -> impl Iterator<Item = &CensusRow> {
        self.rows.iter().filter(move |r| r.class() == Some(class))
    }

    /// Count per class.
    pub fn count(&self, class: OdnsClass) -> usize {
        self.of_class(class).count()
    }

    /// Total classified ODNS components.
    pub fn odns_total(&self) -> usize {
        self.rows.iter().filter(|r| r.class().is_some()).count()
    }

    /// Count of discarded probes by reason.
    pub fn discarded(&self, reason: Discard) -> usize {
        self.rows
            .iter()
            .filter(|r| r.verdict == Verdict::Discarded(reason))
            .count()
    }

    /// The transparent forwarders' addresses (DNSRoute++ targets).
    pub fn transparent_targets(&self) -> Vec<Ipv4Addr> {
        self.of_class(OdnsClass::TransparentForwarder)
            .map(|r| r.target)
            .collect()
    }

    /// Share of a class among all ODNS components, in [0, 1].
    pub fn share(&self, class: OdnsClass) -> f64 {
        let total = self.odns_total();
        if total == 0 {
            0.0
        } else {
            self.count(class) as f64 / total as f64
        }
    }

    /// Export the full dataframe as CSV — the paper's
    /// `dns-measurement-analysis` artifact produces exactly such a table
    /// for downstream notebooks. Rows are written straight into one
    /// pre-sized buffer, under [`crate::table::TextTable::to_csv`]'s quoting
    /// rule.
    pub fn to_csv(&self) -> String {
        /// Longest unquoted row: three dotted quads (45), `classified` +
        /// the longest class name (31), a 10-digit ASN, a 3-letter
        /// country, six commas and the newline.
        const ROW_BYTES: usize = 96;
        let mut out = String::with_capacity(64 + self.rows.len() * ROW_BYTES);
        out.push_str("target,verdict,class,response_src,a_resolver,asn,country\n");
        for row in &self.rows {
            push_ipv4(&mut out, row.target);
            out.push(',');
            match &row.verdict {
                Verdict::Classified { class, .. } => {
                    out.push_str("classified,");
                    push_csv_cell(&mut out, class.name());
                }
                Verdict::Discarded(reason) => {
                    // `fmt::Write` into a `String` cannot fail.
                    let _ = write!(out, "{reason:?},");
                }
            }
            for ip in [row.response_src, row.a_resolver] {
                out.push(',');
                if let Some(ip) = ip {
                    push_ipv4(&mut out, ip);
                }
            }
            out.push(',');
            if let Some(asn) = row.asn {
                let _ = write!(out, "{asn}");
            }
            out.push(',');
            push_csv_cell(&mut out, row.country.unwrap_or(""));
            out.push('\n');
        }
        out
    }
}

/// Run the full transactional census against a generated Internet and
/// classify with `config`. Scanner state lives at the pre-provisioned
/// fixture node; the simulator's event loop drains completely (probe
/// pacing + 20 s timeout are simulated time, not wall time).
///
/// This is also every sharded experiment's in-worker census pass: raw
/// responses (payload-bearing, the bulk of a sweep's memory) die here, on
/// the worker thread; only classified rows cross back. Using the shard's
/// own [`GeoDb`] is exact, not approximate: countries own disjoint
/// address regions and a shard generates every prefix its own targets can
/// fall in, so shard-local lookups equal merged-database lookups for
/// every probed address (the `0.1 %` coverage gap is a pure per-prefix
/// hash, independent of partitioning).
pub fn run_census(internet: &mut Internet, config: &ClassifierConfig) -> Census {
    let scan = census_scan_config(internet);
    let outcome = scanner::run_scan(&mut internet.sim, internet.fixtures.scanner, scan);
    Census::from_outcome(&outcome, &internet.geo, config)
}

/// The scan configuration every in-worker scan of a world gets: the
/// paper's defaults on a clean network; on a faulty one, target-keyed
/// tuples — the fault plane's verdicts hash each probe's flow identity,
/// and only the target-keyed identity is the same for every shard count,
/// so lossy censuses stay partition-invariant (see
/// [`scanner::TupleScheme`]).
pub(crate) fn census_scan_config(world: &Internet) -> ScanConfig {
    let scan = ScanConfig::new(world.targets.clone());
    if world.sim.faults_active() {
        scan.with_target_keyed_tuples()
    } else {
        scan
    }
}

/// Concatenate per-shard census parts (ascending shard order, which is
/// how the sharded runner returns its outputs) into the merged census —
/// row for row what one scanner over the union target list would have
/// produced, since rows carry no probe index and classification is
/// per-transaction.
pub(crate) fn merge_census_parts(parts: Vec<Census>) -> Census {
    let mut merged = Census::default();
    merged
        .rows
        .reserve(parts.iter().map(|p| p.rows.len()).sum());
    for part in parts {
        merged.rows.extend(part.rows);
        merged.unmatched_responses += part.unmatched_responses;
        merged.late_responses += part.late_responses;
        merged.late_answers_discarded += part.late_answers_discarded;
    }
    merged
}

/// Run a `shards`-way sharded census: drive every shard world's
/// transactional scan on a worker thread pool, and correlate + classify
/// each shard's records *on its worker* ([`run_census`]) — only
/// classified census rows survive the shard, so the merge is a
/// concatenation and peak memory stays per-shard-sized.
///
/// `worlds` is a `&GenConfig` (fresh worlds, generated and dropped on the
/// workers) or a `&mut ShardWorldCache` (generate once, reset and reuse) —
/// see [`inetgen::Worlds`]; the census is bit-identical either way.
/// Classification counts are independent of `shards`: per-country
/// generation derives only from `(seed, country)` (see
/// [`inetgen::generate_shard`]), and rows carry no cross-shard state.
/// `shards = 1` reproduces [`run_census`] over [`inetgen::generate`]
/// exactly.
pub fn run_census_sharded<'a>(
    worlds: impl Into<Worlds<'a>>,
    shards: u32,
    config: &ClassifierConfig,
) -> Census {
    let run = inetgen::run_sharded(worlds, shards, |_, world| run_census(world, config));
    merge_census_parts(run.outputs)
}

/// [`run_census_sharded`] over a [`ShardWorldCache`], under the name the
/// repo benchmark calls.
pub fn run_census_cached(
    cache: &mut ShardWorldCache,
    shards: u32,
    config: &ClassifierConfig,
) -> Census {
    run_census_sharded(cache, shards, config)
}

/// Run a Shadowserver-style campaign pass over the same Internet and
/// aggregate its reported ODNS addresses per country. Returned map:
/// country → reported count (country-sorted, so downstream renderings are
/// byte-stable). Used for the Table 5 comparison.
pub fn run_shadowserver_census(
    internet: &mut Internet,
) -> std::collections::BTreeMap<&'static str, usize> {
    use scanner::{run_campaign, Campaign, CampaignConfig};
    let report = run_campaign(
        &mut internet.sim,
        internet.fixtures.campaign_scanners[0],
        CampaignConfig::new(Campaign::Shadowserver, internet.targets.clone()),
    );
    campaign_country_counts(&report, &internet.geo)
}

/// Per-country counts of a campaign's reported ODNS addresses — the raw
/// material of the paper's Table 5 comparison, shared by the unsharded
/// Shadowserver pass above and the sharded campaign sweep.
pub fn campaign_country_counts(
    report: &scanner::CampaignReport,
    geo: &GeoDb,
) -> std::collections::BTreeMap<&'static str, usize> {
    let mut per_country = std::collections::BTreeMap::new();
    for ip in &report.odns {
        if let Some(country) = geo.country_of(*ip) {
            *per_country.entry(country).or_insert(0) += 1;
        }
    }
    per_country
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanner::records::{ProbeRecord, ResponseRecord};

    fn geo() -> GeoDb {
        let mut g = GeoDb::default();
        g.add_prefix24(Ipv4Addr::new(203, 0, 113, 0), 65001);
        g.add_asn(65001, "BRA", netsim::AsKind::EyeballIsp);
        g
    }

    fn tx(target: Ipv4Addr, response_src: Ipv4Addr, addrs: &[Ipv4Addr]) -> Transaction {
        use dnswire::{DnsName, MessageBuilder, Record, RrType};
        let qname = DnsName::parse("odns-study.example.").unwrap();
        let q = MessageBuilder::query(5, qname.clone(), RrType::A).build();
        let mut resp = MessageBuilder::response_to(&q).build();
        for a in addrs {
            resp.answers.push(Record::a(qname.clone(), 300, *a));
        }
        Transaction {
            probe: ProbeRecord {
                index: 0,
                target,
                sent_at: netsim::SimTime(0),
                src_port: 33000,
                txid: 5,
            },
            response: Some(ResponseRecord {
                received_at: netsim::SimTime(100),
                src: response_src,
                dst_port: 33000,
                payload: resp.encode().into(),
            }),
        }
    }

    #[test]
    fn census_rows_enriched_with_geo() {
        let target = Ipv4Addr::new(203, 0, 113, 1);
        let resolver = Ipv4Addr::new(8, 8, 8, 8);
        let t = tx(target, resolver, &[resolver, odns::study::CONTROL_A]);
        let census = Census::from_transactions(&[t], &geo(), &ClassifierConfig::default());
        assert_eq!(census.rows.len(), 1);
        let row = &census.rows[0];
        assert_eq!(row.class(), Some(OdnsClass::TransparentForwarder));
        assert_eq!(row.country, Some("BRA"));
        assert_eq!(row.asn, Some(65001));
        assert_eq!(row.a_resolver, Some(resolver));
        assert_eq!(census.transparent_targets(), vec![target]);
        assert_eq!(census.odns_total(), 1);
        assert!((census.share(OdnsClass::TransparentForwarder) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn discard_counting() {
        let target = Ipv4Addr::new(203, 0, 113, 2);
        let t = tx(target, target, &[target]); // single record: strict discard
        let census = Census::from_transactions(&[t], &geo(), &ClassifierConfig::default());
        assert_eq!(census.odns_total(), 0);
        assert_eq!(census.discarded(Discard::WrongRecordCount), 1);
    }

    #[test]
    fn counters_are_summed() {
        let part = |last_octet, unmatched, late, discarded| Census {
            rows: vec![CensusRow {
                target: Ipv4Addr::new(203, 0, 113, last_octet),
                verdict: Verdict::Discarded(Discard::NoResponse),
                asn: None,
                country: None,
                response_src: None,
                a_resolver: None,
            }],
            unmatched_responses: unmatched,
            late_responses: late,
            late_answers_discarded: discarded,
        };
        let merged = merge_census_parts(vec![part(1, 1, 0, 1), part(2, 0, 2, 3)]);
        let targets: Vec<u8> = merged.rows.iter().map(|r| r.target.octets()[3]).collect();
        assert_eq!(targets, vec![1, 2], "parts concatenate in the order given");
        assert_eq!(merged.unmatched_responses, 1);
        assert_eq!(merged.late_responses, 2);
        assert_eq!(merged.late_answers_discarded, 4);
    }

    #[test]
    fn csv_export_contains_every_row() {
        let target = Ipv4Addr::new(203, 0, 113, 1);
        let resolver = Ipv4Addr::new(8, 8, 8, 8);
        let classified = tx(target, resolver, &[resolver, odns::study::CONTROL_A]);
        let discarded = tx(
            Ipv4Addr::new(203, 0, 113, 2),
            Ipv4Addr::new(203, 0, 113, 2),
            &[],
        );
        let census = Census::from_transactions(
            &[classified, discarded],
            &geo(),
            &ClassifierConfig::default(),
        );
        let csv = census.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 rows:\n{csv}");
        assert!(lines[0].starts_with("target,verdict,class"));
        assert!(lines[1].contains("Transparent Forwarder"));
        assert!(lines[1].contains("8.8.8.8"));
        assert!(lines[1].contains("BRA"));
        assert!(lines[2].contains("NoAnswer"));
    }

    #[test]
    fn streamed_csv_equals_the_text_table_rendering() {
        // The reference is the old implementation: one `String` per cell
        // into a `TextTable`, rendered by its `to_csv`.
        let reference = |census: &Census| {
            let mut t = crate::table::TextTable::new([
                "target",
                "verdict",
                "class",
                "response_src",
                "a_resolver",
                "asn",
                "country",
            ]);
            for row in &census.rows {
                let (verdict, class) = match &row.verdict {
                    Verdict::Classified { class, .. } => {
                        ("classified".to_string(), class.to_string())
                    }
                    Verdict::Discarded(reason) => (format!("{reason:?}"), String::new()),
                };
                t.row([
                    row.target.to_string(),
                    verdict,
                    class,
                    row.response_src.map(|i| i.to_string()).unwrap_or_default(),
                    row.a_resolver.map(|i| i.to_string()).unwrap_or_default(),
                    row.asn.map(|a| a.to_string()).unwrap_or_default(),
                    row.country.unwrap_or("").to_string(),
                ]);
            }
            t.to_csv()
        };
        let ip = |d| Ipv4Addr::new(203, 0, 113, d);
        let classified = |class, country| CensusRow {
            target: ip(1),
            verdict: Verdict::Classified {
                class,
                a_resolver: ip(8),
                response_src: ip(9),
            },
            asn: Some(u32::MAX),
            country,
            response_src: Some(ip(9)),
            a_resolver: Some(ip(8)),
        };
        let discarded = |reason| CensusRow {
            target: Ipv4Addr::new(255, 255, 255, 255),
            verdict: Verdict::Discarded(reason),
            asn: None,
            country: None,
            response_src: None,
            a_resolver: None,
        };
        let census = Census {
            rows: vec![
                classified(OdnsClass::TransparentForwarder, Some("BRA")),
                classified(OdnsClass::RecursiveForwarder, Some("Korea, \"South\"\nKOR")),
                classified(OdnsClass::RecursiveResolver, None),
                classified(OdnsClass::TransparentForwarder, Some("carriage\rreturn")),
                discarded(Discard::NoResponse),
                discarded(Discard::Malformed),
                discarded(Discard::NoAnswer),
                discarded(Discard::WrongRecordCount),
                discarded(Discard::ControlRecordViolated),
            ],
            ..Census::default()
        };
        let csv = census.to_csv();
        assert_eq!(csv, reference(&census));
        assert!(csv.contains(",\"Korea, \"\"South\"\"\nKOR\"\n"), "{csv}");
        assert!(csv.contains(",\"carriage\rreturn\"\n"), "{csv}");
        assert_eq!(Census::default().to_csv(), reference(&Census::default()));
    }

    #[test]
    fn an_unsalted_plan_set_in_every_shard_is_shard_count_invariant() {
        // Every shard world installs the same plan, salt 0 included, so
        // each flow meets the same verdict whichever shard probes it.
        let config = inetgen::GenConfig {
            seed: 23,
            scale: 2_500,
            dud_fraction: 0.05,
            countries: inetgen::CountrySelection::Codes(vec!["BRA", "TUR", "MUS"]),
            ..inetgen::GenConfig::default()
        };
        let classifier = ClassifierConfig::default();
        let rows = |k| {
            let run = inetgen::run_sharded(&config, k, |_, world| {
                world.sim.set_faults(netsim::FaultPlan::lossy(0.10));
                run_census(world, &classifier)
            });
            let mut rows = merge_census_parts(run.outputs).rows;
            rows.sort_by_key(|r| r.target);
            rows
        };
        let single = rows(1);
        assert!(
            single.iter().any(|r| r.class().is_some()),
            "world must answer"
        );
        assert!(
            single
                .iter()
                .any(|r| r.verdict == Verdict::Discarded(Discard::NoResponse)),
            "losses must bite"
        );
        for k in [2, 8] {
            let sharded = rows(k);
            assert_eq!(sharded.len(), single.len(), "K={k}: one row per target");
            let differ = sharded.iter().zip(&single).filter(|(a, b)| a != b).count();
            assert_eq!(differ, 0, "K={k}: {differ} of {} rows differ", single.len());
        }
    }
}
