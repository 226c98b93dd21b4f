//! The census pipeline: run the transactional scan over a generated
//! Internet, classify every transaction, and enrich with geo/ASN data —
//! producing the dataframe every table and figure is computed from
//! (the paper's `dns-measurement-analysis` artifact).

use crate::table::{needs_quotes, push_csv_cell};
use inetgen::{GeoDb, Internet, ShardWorldCache, Worlds};
use scanner::{
    classify, ClassifierConfig, Discard, OdnsClass, ScanConfig, ScanOutcome, Transaction, Verdict,
};
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
}

impl CensusRow {
    /// The ODNS class, if classified.
    pub fn class(&self) -> Option<OdnsClass> {
        self.verdict.class()
    }

    /// Who answered and the `A_resolver` record, if classified.
    pub(crate) fn answer_addrs(&self) -> Option<(Ipv4Addr, Ipv4Addr)> {
        match self.verdict {
            Verdict::Classified {
                a_resolver,
                response_src,
                ..
            } => Some((response_src, a_resolver)),
            Verdict::Discarded(_) => None,
        }
    }
}

/// The census dataset. `PartialEq` compares rows in order; [`diff`]
/// compares two censuses by target.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Census {
    /// One row per probe, in probe order: each shard's shuffle, shards
    /// ascending, so the order (and the CSV's bytes) depends on K.
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
                let origin = geo.origin(t.probe.target);
                CensusRow {
                    target: t.probe.target,
                    verdict: classify(t, config),
                    asn: origin.map(|(asn, _)| asn),
                    country: origin.and_then(|(_, country)| country),
                }
            })
            .collect();
        Census {
            rows,
            ..Census::default()
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
    /// for downstream notebooks, under [`crate::table::TextTable::to_csv`]'s
    /// quoting rule. Each row is built in a stack buffer, its write
    /// position held in a local, and appended to one buffer sized to the
    /// CSV (a quoted country aside).
    pub fn to_csv(&self) -> String {
        let size = CSV_HEADER.len() + self.rows.iter().map(csv_row_len).sum::<usize>();
        let mut out = Vec::with_capacity(size);
        out.extend_from_slice(CSV_HEADER);
        let mut line = [0; CSV_LINE];
        for row in &self.rows {
            let mut at = put_ipv4(&mut line, 0, row.target);
            match row.verdict {
                Verdict::Classified {
                    class,
                    a_resolver,
                    response_src,
                } => {
                    at = put(&mut line, at, b",classified,");
                    at = put(&mut line, at, class.name().as_bytes());
                    at = put(&mut line, at, b",");
                    at = put_ipv4(&mut line, at, response_src);
                    at = put(&mut line, at, b",");
                    at = put_ipv4(&mut line, at, a_resolver);
                }
                Verdict::Discarded(reason) => {
                    at = put(&mut line, at, b",");
                    at = put(&mut line, at, reason.name().as_bytes());
                    at = put(&mut line, at, b",,,");
                }
            }
            at = put(&mut line, at, b",");
            if let Some(asn) = row.asn {
                at = put_decimal(&mut line, at, asn);
            }
            at = put(&mut line, at, b",");
            let country = row.country.unwrap_or("");
            if at + country.len() < CSV_LINE && !needs_quotes(country) {
                at = put(&mut line, at, country.as_bytes());
                at = put(&mut line, at, b"\n");
                out.extend_from_slice(&line[..at]);
            } else {
                out.extend_from_slice(&line[..at]);
                let mut cell = String::new();
                push_csv_cell(&mut cell, country);
                out.extend_from_slice(cell.as_bytes());
                out.push(b'\n');
            }
        }
        String::from_utf8(out).expect("every CSV cell is UTF-8")
    }
}

const CSV_HEADER: &[u8] = b"target,verdict,class,response_src,a_resolver,asn,country\n";

/// The bytes `row` takes in the CSV, its country unquoted. The buffer is
/// sized to the rows, not to the longest row: reserving 96 bytes a row
/// (2.5× `census_warm_dud`'s CSV) put 7 of 11 of its 8 s runs into a mode
/// where every rep faulted its big buffers in afresh, at −10 to −30 %
/// `ops_per_s`; sized exactly, 1 of 14.
fn csv_row_len(row: &CensusRow) -> usize {
    let verdict = match row.verdict {
        Verdict::Classified {
            class,
            a_resolver,
            response_src,
        } => {
            ",classified,".len()
                + class.name().len()
                + 2
                + ipv4_len(response_src)
                + ipv4_len(a_resolver)
        }
        Verdict::Discarded(reason) => 1 + reason.name().len() + 3,
    };
    let asn = row.asn.map_or(0, decimal_len);
    ipv4_len(row.target) + verdict + 1 + asn + 1 + row.country.map_or(0, str::len) + 1
}

/// The row buffer: the longest row up to its country cell — three dotted
/// quads (45), `classified` and the longest class name (31), a 10-digit
/// ASN and six commas (92) — then a country of up to 35 bytes and the
/// newline; a longer or quoted country is written straight to the output.
const CSV_LINE: usize = 128;

/// Copy `bytes` into `line` at `at`; returns the position after them.
fn put(line: &mut [u8; CSV_LINE], at: usize, bytes: &[u8]) -> usize {
    let end = at + bytes.len();
    line[at..end].copy_from_slice(bytes);
    end
}

/// `ip` as a dotted quad: each octet's digits come from [`OCTETS`], copied
/// three bytes wide and kept as long as the octet is.
fn put_ipv4(line: &mut [u8; CSV_LINE], mut at: usize, ip: Ipv4Addr) -> usize {
    for (i, octet) in ip.octets().into_iter().enumerate() {
        if i > 0 {
            at = put(line, at, b".");
        }
        let [a, b, c, len] = OCTETS[usize::from(octet)];
        line[at..at + 3].copy_from_slice(&[a, b, c]);
        at += usize::from(len);
    }
    at
}

fn ipv4_len(ip: Ipv4Addr) -> usize {
    let digits: u8 = ip.octets().iter().map(|&o| OCTETS[usize::from(o)][3]).sum();
    usize::from(digits) + 3
}

fn decimal_len(n: u32) -> usize {
    n.checked_ilog10().unwrap_or(0) as usize + 1
}

fn put_decimal(line: &mut [u8; CSV_LINE], at: usize, mut n: u32) -> usize {
    let end = at + decimal_len(n);
    for digit in line[at..end].iter_mut().rev() {
        *digit = b'0' + (n % 10) as u8;
        n /= 10;
    }
    end
}

/// Each octet's decimal digits, left-aligned, then their count.
static OCTETS: [[u8; 4]; 256] = {
    let mut table = [[0; 4]; 256];
    let mut i = 0;
    while i < 256 {
        let n = i as u8;
        table[i] = match n {
            0..=9 => [b'0' + n, 0, 0, 1],
            10..=99 => [b'0' + n / 10, b'0' + n % 10, 0, 2],
            _ => [b'0' + n / 100, b'0' + n / 10 % 10, b'0' + n % 10, 3],
        };
        i += 1;
    }
    table
};

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
    let scan = ScanConfig::new(internet.targets.clone());
    let outcome = scanner::run_scan(&mut internet.sim, internet.fixtures.scanner, scan);
    Census::from_outcome(&outcome, &internet.geo, config)
}

/// Concatenate per-shard census parts (ascending shard order, which is
/// how the sharded runner returns its outputs) into the merged census —
/// by target, the rows one scanner over the union target list would have
/// produced, since rows carry no probe index and classification is
/// per-transaction; their order is each shard's probe shuffle.
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

/// What differs between two censuses, target by target: built by
/// [`diff`]. It prints the counts, the differing rows by country, then
/// the first 8 rows as `target: before → after`.
#[derive(Debug)]
pub struct CensusDelta {
    /// `(before, after)` per differing row, in target order: a lost row
    /// has no `after`, a gained row no `before`.
    rows: Vec<(Option<CensusRow>, Option<CensusRow>)>,
    /// Each side's unmatched, late and late-discarded counters.
    counters: [[usize; 3]; 2],
}

impl CensusDelta {
    /// True when the censuses agree by target and in their counters.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty() && self.counters[0] == self.counters[1]
    }
}

/// Compare two censuses by target. Row order is each shard's probe
/// shuffle, so it is never compared. A target with more rows on one side
/// than the other shows the extra rows as lost or gained.
pub fn diff(before: &Census, after: &Census) -> CensusDelta {
    let mut sides: Vec<(bool, &CensusRow)> = before.rows.iter().map(|r| (false, r)).collect();
    sides.extend(after.rows.iter().map(|r| (true, r)));
    // Stable: within a target, `before`'s rows stay ahead of `after`'s.
    sides.sort_by_key(|(_, r)| r.target);
    let mut rows = Vec::new();
    for group in sides.chunk_by(|x, y| x.1.target == y.1.target) {
        // Rows equal on both sides cancel; the rest pair up in order as
        // changed, and the longer side's tail is lost or gained.
        let (b, a) = group.split_at(group.partition_point(|(is_after, _)| !is_after));
        let mut gained: Vec<&CensusRow> = a.iter().map(|(_, r)| *r).collect();
        let lost: Vec<&CensusRow> = (b.iter().map(|(_, r)| *r))
            .filter(|r| (gained.iter().position(|g| g == r).map(|i| gained.remove(i))).is_none())
            .collect();
        for i in 0..lost.len().max(gained.len()) {
            let side = |rows: &[&CensusRow]| rows.get(i).copied().cloned();
            rows.push((side(&lost), side(&gained)));
        }
    }
    let counters = [before, after].map(|c| {
        [
            c.unmatched_responses,
            c.late_responses,
            c.late_answers_discarded,
        ]
    });
    CensusDelta { rows, counters }
}

impl std::fmt::Display for CensusDelta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let lost = self.rows.iter().filter(|(_, a)| a.is_none()).count();
        let gained = self.rows.iter().filter(|(b, _)| b.is_none()).count();
        let changed = self.rows.len() - lost - gained;
        write!(f, "{lost} lost, {gained} gained, {changed} changed")?;
        let [before, after] = self.counters;
        if before != after {
            write!(f, "; unmatched, late, discarded {before:?} → {after:?}")?;
        }
        let mut by_country = std::collections::BTreeMap::new();
        for (b, a) in &self.rows {
            let country = b.as_ref().or(a.as_ref()).and_then(|r| r.country);
            *by_country.entry(country.unwrap_or("?")).or_insert(0) += 1;
        }
        if !by_country.is_empty() {
            write!(f, "\nby country: {by_country:?}")?;
        }
        let side = |row: &Option<CensusRow>| match row {
            Some(r) => {
                let asn = r.asn.map_or("?".to_string(), |a| a.to_string());
                format!("{:?} {} AS{asn}", r.verdict, r.country.unwrap_or("?"))
            }
            None => "absent".to_string(),
        };
        for (b, a) in self.rows.iter().take(8) {
            if let Some(row) = b.as_ref().or(a.as_ref()) {
                write!(f, "\n  {}: {} → {}", row.target, side(b), side(a))?;
            }
        }
        if self.rows.len() > 8 {
            write!(f, "\n  +{} more", self.rows.len() - 8)?;
        }
        Ok(())
    }
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

/// The seed-7 census of a `scale` 1000 world whose duds outnumber its
/// hosts four to one (most rows discarded), with the world's geo database
/// — built once per test binary.
#[cfg(test)]
pub(crate) fn seed7_dud_census() -> &'static (Census, GeoDb) {
    static CENSUS: std::sync::OnceLock<(Census, GeoDb)> = std::sync::OnceLock::new();
    CENSUS.get_or_init(|| {
        let mut world = inetgen::generate(&inetgen::GenConfig {
            seed: 7,
            scale: 1_000,
            dud_fraction: 4.0,
            ..inetgen::GenConfig::default()
        });
        let census = run_census(&mut world, &ClassifierConfig::default());
        (census, world.geo)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanner::records::{ProbeRecord, ResponseRecord};
    use std::fmt::Write as _;

    /// `Census::to_csv` as it was before rows were built on the stack:
    /// every cell pushed into one `String`, the verdict column written as
    /// the `Debug` text of the discard reason.
    fn reference_csv(census: &Census) -> String {
        use crate::table::push_ipv4;
        const ROW_BYTES: usize = 96;
        let mut out = String::with_capacity(64 + census.rows.len() * ROW_BYTES);
        out.push_str("target,verdict,class,response_src,a_resolver,asn,country\n");
        for row in &census.rows {
            push_ipv4(&mut out, row.target);
            out.push(',');
            match &row.verdict {
                Verdict::Classified { class, .. } => {
                    out.push_str("classified,");
                    push_csv_cell(&mut out, class.name());
                }
                Verdict::Discarded(reason) => {
                    let _ = write!(out, "{reason:?},");
                }
            }
            let (response_src, a_resolver) = row.answer_addrs().unzip();
            for ip in [response_src, a_resolver] {
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

    /// Every discard reason and class; rows with no ASN and no country;
    /// country cells that need quoting, one too long for the row buffer;
    /// and every octet value in every position of all three address
    /// columns.
    fn csv_corner_census() -> Census {
        let reasons = [
            Discard::NoResponse,
            Discard::Malformed,
            Discard::NoAnswer,
            Discard::WrongRecordCount,
            Discard::ControlRecordViolated,
        ];
        let countries = [
            None,
            Some("BRA"),
            Some("a,b"),
            Some("say \"hi\""),
            Some("carriage\rreturn"),
            Some("line\nfeed"),
            Some("a country name longer than the 35 bytes the row buffer spares"),
            Some(""),
        ];
        let octets = |i: usize, shift: usize| {
            Ipv4Addr::from([0, 1, 2, 3].map(|k| ((i + shift + 64 * k) % 256) as u8))
        };
        let asns = [None, Some(0), Some(9), Some(65_001), Some(u32::MAX)];
        let mut rows: Vec<CensusRow> = (0..256)
            .map(|i| CensusRow {
                target: octets(i, 0),
                verdict: Verdict::Classified {
                    class: OdnsClass::all()[i % 3],
                    a_resolver: octets(255 - i, 0),
                    response_src: octets(i, 7),
                },
                asn: asns[i % asns.len()],
                country: countries[i % countries.len()],
            })
            .collect();
        for (i, reason) in reasons.into_iter().cycle().take(40).enumerate() {
            rows.push(CensusRow {
                target: octets(i, 3),
                verdict: Verdict::Discarded(reason),
                asn: asns[i % asns.len()],
                country: countries[i % countries.len()],
            });
        }
        census_of(rows)
    }

    #[test]
    fn csv_equals_the_reference_on_corner_cases() {
        let census = csv_corner_census();
        let csv = census.to_csv();
        assert_eq!(csv, reference_csv(&census));
        assert!(csv.contains(",\"a,b\"\n") && csv.contains(",\"say \"\"hi\"\"\"\n"));
        assert_eq!(
            Census::default().to_csv(),
            reference_csv(&Census::default())
        );
    }

    #[test]
    fn csv_equals_the_reference_on_the_seed_7_dud_census() {
        let (census, _) = seed7_dud_census();
        let answered = census.odns_total();
        assert!(
            answered > 0 && answered * 4 < census.rows.len(),
            "mostly duds"
        );
        let csv = census.to_csv();
        assert_eq!(csv, reference_csv(census));
        assert_eq!(csv.capacity(), csv.len(), "sized exactly");
    }

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
        assert_eq!(row.answer_addrs(), Some((resolver, resolver)));
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
                let (response_src, a_resolver) = row.answer_addrs().unzip();
                t.row([
                    row.target.to_string(),
                    verdict,
                    class,
                    response_src.map(|i| i.to_string()).unwrap_or_default(),
                    a_resolver.map(|i| i.to_string()).unwrap_or_default(),
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
        };
        let discarded = |reason| CensusRow {
            target: Ipv4Addr::new(255, 255, 255, 255),
            verdict: Verdict::Discarded(reason),
            asn: None,
            country: None,
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
        let census = |k| {
            let run = inetgen::run_sharded(&config, k, |_, world| {
                world.sim.set_faults(netsim::FaultPlan::lossy(0.10));
                run_census(world, &classifier)
            });
            merge_census_parts(run.outputs)
        };
        let single = census(1);
        assert!(single.odns_total() > 0, "world must answer");
        assert!(single.discarded(Discard::NoResponse) > 0, "losses bite");
        for k in [2, 8] {
            let delta = diff(&single, &census(k));
            assert!(delta.is_empty(), "K={k}: {delta}");
        }
    }

    fn row(last_octet: u8, verdict: Verdict, country: &'static str) -> CensusRow {
        CensusRow {
            target: Ipv4Addr::new(203, 0, 113, last_octet),
            verdict,
            asn: Some(65001),
            country: Some(country),
        }
    }

    fn transparent(via: u8) -> Verdict {
        let resolver = Ipv4Addr::new(8, 8, 8, via);
        Verdict::Classified {
            class: OdnsClass::TransparentForwarder,
            a_resolver: resolver,
            response_src: resolver,
        }
    }

    fn census_of(rows: Vec<CensusRow>) -> Census {
        Census {
            rows,
            ..Census::default()
        }
    }

    #[test]
    fn a_census_and_its_reversal_diff_empty() {
        let mut rows: Vec<CensusRow> = (1..=20).map(|i| row(i, transparent(i), "BRA")).collect();
        rows.push(row(7, Verdict::Discarded(Discard::NoResponse), "BRA"));
        let census = census_of(rows);
        let mut reversed = census.clone();
        reversed.rows.reverse();
        assert_ne!(census, reversed, "row order differs");
        let delta = diff(&census, &reversed);
        assert!(delta.is_empty(), "{delta}");
        assert_eq!(delta.to_string(), "0 lost, 0 gained, 0 changed");
    }

    #[test]
    fn lost_gained_and_changed_rows_are_each_reported() {
        let no_response = Verdict::Discarded(Discard::NoResponse);
        let before = census_of(vec![
            row(1, transparent(8), "BRA"),
            row(2, no_response, "BRA"),
            row(3, Verdict::Discarded(Discard::NoAnswer), "BRA"),
            row(4, transparent(8), "BRA"),
            row(5, transparent(8), "BRA"),
        ]);
        let after = census_of(vec![
            row(5, transparent(8), "BRA"),
            row(3, Verdict::Discarded(Discard::Malformed), "BRA"),
            row(1, no_response, "BRA"),
            row(4, transparent(8), "TUR"),
            row(6, no_response, "MUS"),
        ]);
        let delta = diff(&before, &after);
        let expected = vec![
            // class → discard
            (
                Some(row(1, transparent(8), "BRA")),
                Some(row(1, no_response, "BRA")),
            ),
            (Some(row(2, no_response, "BRA")), None),
            // discard reason
            (
                Some(row(3, Verdict::Discarded(Discard::NoAnswer), "BRA")),
                Some(row(3, Verdict::Discarded(Discard::Malformed), "BRA")),
            ),
            // country
            (
                Some(row(4, transparent(8), "BRA")),
                Some(row(4, transparent(8), "TUR")),
            ),
            (None, Some(row(6, no_response, "MUS"))),
        ];
        assert_eq!(delta.rows, expected);
        let text = delta.to_string();
        assert!(
            text.starts_with("1 lost, 1 gained, 3 changed\nby country: {\"BRA\": 4, \"MUS\": 1}\n"),
            "{text}"
        );
        let lines = [
            "  203.0.113.1: Classified { class: TransparentForwarder, a_resolver: 8.8.8.8, \
             response_src: 8.8.8.8 } BRA AS65001 → Discarded(NoResponse) BRA AS65001",
            "  203.0.113.2: Discarded(NoResponse) BRA AS65001 → absent",
            "  203.0.113.3: Discarded(NoAnswer) BRA AS65001 → Discarded(Malformed) BRA AS65001",
            "  203.0.113.4: Classified { class: TransparentForwarder, a_resolver: 8.8.8.8, \
             response_src: 8.8.8.8 } BRA AS65001 → Classified { class: TransparentForwarder, \
             a_resolver: 8.8.8.8, response_src: 8.8.8.8 } TUR AS65001",
            "  203.0.113.6: absent → Discarded(NoResponse) MUS AS65001",
        ];
        assert_eq!(text.lines().skip(2).collect::<Vec<_>>(), lines);
    }

    #[test]
    fn a_duplicated_target_shows_as_an_extra_row() {
        let once = census_of(vec![
            row(1, transparent(8), "BRA"),
            row(2, transparent(8), "BRA"),
        ]);
        let mut twice = once.clone();
        twice.rows.insert(0, row(2, transparent(8), "BRA"));
        let delta = diff(&once, &twice);
        assert_eq!(
            delta.rows,
            vec![(None, Some(row(2, transparent(8), "BRA")))]
        );
        assert!(diff(&twice, &once)
            .to_string()
            .starts_with("1 lost, 0 gained, 0 changed"));
    }

    #[test]
    fn a_difference_only_in_the_counters_is_reported() {
        let before = census_of(vec![row(1, transparent(8), "BRA")]);
        let after = Census {
            late_responses: 2,
            late_answers_discarded: 1,
            ..before.clone()
        };
        let delta = diff(&before, &after);
        assert!(!delta.is_empty());
        assert!(delta.rows.is_empty());
        assert_eq!(
            delta.to_string(),
            "0 lost, 0 gained, 0 changed; unmatched, late, discarded [0, 0, 0] → [0, 2, 1]"
        );
    }

    #[test]
    fn display_shows_eight_rows_then_the_rest_as_a_count() {
        let before = census_of(
            (1..=11)
                .map(|i| row(i, transparent(8), if i % 2 == 0 { "BRA" } else { "TUR" }))
                .collect(),
        );
        let text = diff(&before, &Census::default()).to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "11 lost, 0 gained, 0 changed", "{text}");
        assert_eq!(lines[1], r#"by country: {"BRA": 5, "TUR": 6}"#, "{text}");
        assert_eq!(lines.len(), 2 + 8 + 1, "{text}");
        assert!(lines[2].starts_with("  203.0.113.1: "), "{text}");
        assert!(lines[9].starts_with("  203.0.113.8: "), "{text}");
        assert_eq!(lines[10], "  +3 more", "{text}");
    }

    #[test]
    fn a_perturbed_sharded_census_names_exactly_the_perturbed_target() {
        let config = inetgen::GenConfig {
            scale: 2_500,
            countries: inetgen::CountrySelection::Codes(vec!["BRA", "MUS"]),
            ..inetgen::GenConfig::default()
        };
        let census = run_census_sharded(&config, 2, &ClassifierConfig::default());
        let mut perturbed = census.clone();
        let row = perturbed
            .rows
            .iter_mut()
            .find(|r| r.class().is_some())
            .expect("world must answer");
        row.country = Some("XXX");
        let target = row.target;
        let delta = diff(&census, &perturbed);
        let named: Vec<Ipv4Addr> = delta
            .rows
            .iter()
            .map(|(b, a)| b.as_ref().or(a.as_ref()).unwrap().target)
            .collect();
        assert_eq!(named, vec![target], "{delta}");
        assert!(
            delta.to_string().contains(&format!("\n  {target}: ")),
            "{delta}"
        );
    }
}
