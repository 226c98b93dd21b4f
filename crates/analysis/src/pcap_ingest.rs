//! Offline pcap ingestion: rebuild scan transactions from a raw capture.
//!
//! The paper's pipeline stores the complete scan traffic with `dumpcap`
//! and correlates offline (§A.2). This module proves our pipeline is
//! equally capture-driven: given only the scanner's pcap bytes, it
//! reconstructs probes (the scanner's outgoing queries), responses
//! (everything it received), and correlates them by `(port, TXID)` within
//! the timeout — independently of the in-memory records the scanner kept.
//!
//! The sharded drivers extend this to per-shard taps, and the replay runs
//! the live code: every shard's scanner capture goes through the stages a
//! live shard's records do — correlate, classify, merge rows
//! ([`census_from_captures`]) — and a campaign's capture through the
//! campaign's own processing rule ([`campaign_report_from_pcap`]). So the
//! whole sharded pipeline is reproducible from its captures, like the
//! paper's.

use crate::census::{merge_census_parts, Census};
use netsim::pcap::{read_pcap, PcapError};
use netsim::wire::{decode, DecodedPacket};
use netsim::{Datagram, SimDuration, SimTime};
use scanner::records::{ProbeRecord, ResponseRecord, ScanOutcome};
use scanner::{Campaign, CampaignReport, ClassifierConfig, ScanConfig};
use std::collections::BTreeSet;

/// Errors during capture ingestion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// The pcap container was malformed.
    Pcap(PcapError),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Pcap(e) => write!(f, "pcap: {e}"),
        }
    }
}

impl std::error::Error for IngestError {}

/// The capture's UDP datagrams with their timestamps, in capture order.
/// Packets that fail IP/UDP decoding are skipped (they would be ICMP or
/// corruption — dumpcap keeps them too, the analyzer ignores them).
fn udp_datagrams(pcap: &[u8]) -> Result<impl Iterator<Item = (SimTime, Datagram)>, IngestError> {
    let records = read_pcap(pcap).map_err(IngestError::Pcap)?;
    Ok(records
        .into_iter()
        .filter_map(|rec| match decode(&rec.data) {
            Ok(DecodedPacket::Udp(d)) => Some((rec.ts, d)),
            _ => None,
        }))
}

/// Reconstruct the raw probe/response record streams from capture bytes —
/// exactly what the live scanner's `run_scan_raw` returns, but computed
/// from the tap's pcap alone.
///
/// Direction goes by address, not port: a datagram is outgoing when it
/// comes from the scanner, the source of the capture's first query to port
/// 53 (nothing reaches a scanner before its first probe). The port walk
/// sends one probe per 65 k block from port 53, and that probe's answer
/// arrives on port 53 too.
///
/// A retransmission is not a new probe: the live scanner keeps one
/// [`ProbeRecord`] per probe, timed at its first send, so a repeated
/// outgoing `(src_port, txid, dst)` is skipped.
pub fn streams_from_pcap(
    pcap: &[u8],
) -> Result<(Vec<ProbeRecord>, Vec<ResponseRecord>), IngestError> {
    let mut probes: Vec<ProbeRecord> = Vec::new();
    let mut responses: Vec<ResponseRecord> = Vec::new();
    let mut sent = BTreeSet::new();
    let mut scanner_ip = None;
    for (ts, d) in udp_datagrams(pcap)? {
        if scanner_ip.is_none() && d.dst_port == dnswire::DNS_PORT {
            scanner_ip = Some(d.src);
        }
        if scanner_ip == Some(d.src) {
            let Some(txid) = dnswire::peek_id(&d.payload) else {
                continue;
            };
            if !sent.insert((d.src_port, txid, d.dst)) {
                continue;
            }
            probes.push(ProbeRecord {
                index: probes.len(),
                target: d.dst,
                sent_at: ts,
                src_port: d.src_port,
                txid,
            });
        } else {
            responses.push(ResponseRecord {
                received_at: ts,
                src: d.src,
                dst_port: d.dst_port,
                payload: d.payload,
            });
        }
    }
    Ok((probes, responses))
}

/// Reconstruct a [`ScanOutcome`] from raw capture bytes, through the same
/// offline pass as the live scanner.
pub fn outcome_from_pcap(pcap: &[u8], timeout: SimDuration) -> Result<ScanOutcome, IngestError> {
    let (probes, responses) = streams_from_pcap(pcap)?;
    Ok(scanner::correlate_owned(probes, responses, timeout))
}

/// The capture-driven sharded census: every `(shard id, scanner capture)`
/// goes through what a live shard's records go through — correlate,
/// classify into a [`Census`] part — and the parts merge in ascending
/// shard id like [`crate::run_census_sharded`]'s, whatever order
/// `captures` lists them in. Given the captures of a
/// [`crate::run_campaign_sharded`] (or any sharded scan with per-shard
/// scanner taps), the result equals the in-memory census row for row.
///
/// `(port, txid)` tuples restart in every shard, so captures are ingested
/// one by one, never concatenated. Panics on a duplicate shard id: a
/// shard's capture split in two would correlate each half against its own
/// probes only and quietly lose the answers that cross the cut.
pub fn census_from_captures<S: AsRef<[u8]>>(
    captures: &[(u32, S)],
    geo: &inetgen::GeoDb,
    classifier: &ClassifierConfig,
) -> Result<Census, IngestError> {
    let mut ordered: Vec<&(u32, S)> = captures.iter().collect();
    ordered.sort_by_key(|(shard, _)| *shard);
    if let Some(pair) = ordered.windows(2).find(|w| w[0].0 == w[1].0) {
        panic!("duplicate shard id {} in merge", pair[0].0);
    }
    let mut parts = Vec::with_capacity(ordered.len());
    for (_, pcap) in ordered {
        let outcome = outcome_from_pcap(pcap.as_ref(), ScanConfig::DEFAULT_TIMEOUT)?;
        parts.push(Census::from_outcome(&outcome, geo, classifier));
    }
    Ok(merge_census_parts(parts))
}

/// Replay a campaign's processing rule ([`scanner::replay_campaign`], the
/// live `CampaignScanner`'s own) over its capture, rebuilding the
/// [`CampaignReport`] it published — the offline proof that a campaign's
/// feed is a pure function of the traffic it saw plus its (stateless or
/// connected-socket) pipeline. ICMP never reaches that pipeline.
pub fn campaign_report_from_pcap(
    campaign: Campaign,
    pcap: &[u8],
) -> Result<CampaignReport, IngestError> {
    let tapped = udp_datagrams(pcap)?.map(|(_, d)| d);
    Ok(scanner::replay_campaign(campaign, tapped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswire::{MessageBuilder, RrType};
    use netsim::pcap::PcapWriter;
    use netsim::wire::encode_udp;
    use netsim::{Datagram, SimTime};
    use std::net::Ipv4Addr;

    const SCANNER: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);
    const TARGET: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 1);
    const RESOLVER: Ipv4Addr = Ipv4Addr::new(8, 8, 8, 8);

    fn query_bytes(txid: u16) -> Vec<u8> {
        MessageBuilder::query(txid, odns::study::study_qname(), RrType::A)
            .build()
            .encode()
    }

    fn response_bytes(txid: u16) -> Vec<u8> {
        let q = MessageBuilder::query(txid, odns::study::study_qname(), RrType::A).build();
        MessageBuilder::response_to(&q)
            .answer_a(odns::study::study_qname(), 300, RESOLVER)
            .answer_a(odns::study::study_qname(), 300, odns::study::CONTROL_A)
            .build()
            .encode()
    }

    fn capture() -> Vec<u8> {
        let mut w = PcapWriter::new();
        // Probe out at t=0.
        let probe = Datagram {
            src: SCANNER,
            dst: TARGET,
            src_port: 33000,
            dst_port: 53,
            ttl: 64,
            payload: query_bytes(7).into(),
        };
        w.write(SimTime(0), &encode_udp(&probe, 1));
        // Response from the resolver (transparent forwarder!) at t=40ms.
        let resp = Datagram {
            src: RESOLVER,
            dst: SCANNER,
            src_port: 53,
            dst_port: 33000,
            ttl: 60,
            payload: response_bytes(7).into(),
        };
        w.write(SimTime(40_000), &encode_udp(&resp, 2));
        w.finish()
    }

    #[test]
    fn transactions_rebuilt_from_capture_alone() {
        let outcome = outcome_from_pcap(&capture(), SimDuration::from_secs(20)).unwrap();
        assert_eq!(outcome.transactions.len(), 1);
        let t = &outcome.transactions[0];
        assert_eq!(t.probe.target, TARGET);
        assert_eq!(t.response_src(), Some(RESOLVER));
        assert_eq!(outcome.unmatched_responses, 0);
        // The classifier works on reconstructed transactions too.
        let v = scanner::classify(t, &scanner::ClassifierConfig::default());
        assert_eq!(v.class(), Some(scanner::OdnsClass::TransparentForwarder));
    }

    #[test]
    fn late_response_rejected_by_timeout() {
        let mut w = PcapWriter::new();
        let probe = Datagram {
            src: SCANNER,
            dst: TARGET,
            src_port: 33000,
            dst_port: 53,
            ttl: 64,
            payload: query_bytes(9).into(),
        };
        w.write(SimTime(0), &encode_udp(&probe, 1));
        let resp = Datagram {
            src: RESOLVER,
            dst: SCANNER,
            src_port: 53,
            dst_port: 33000,
            ttl: 60,
            payload: response_bytes(9).into(),
        };
        w.write(SimTime(25_000_000), &encode_udp(&resp, 2)); // 25 s
        let outcome = outcome_from_pcap(&w.finish(), SimDuration::from_secs(20)).unwrap();
        assert!(outcome.transactions[0].response.is_none());
        assert_eq!(outcome.late_responses, 1);
    }

    #[test]
    fn unsolicited_response_counted() {
        let mut w = PcapWriter::new();
        let resp = Datagram {
            src: RESOLVER,
            dst: SCANNER,
            src_port: 53,
            dst_port: 40000,
            ttl: 60,
            payload: response_bytes(1).into(),
        };
        w.write(SimTime(0), &encode_udp(&resp, 1));
        let outcome = outcome_from_pcap(&w.finish(), SimDuration::from_secs(20)).unwrap();
        assert!(outcome.transactions.is_empty());
        assert_eq!(outcome.unmatched_responses, 1);
    }

    #[test]
    fn bad_pcap_rejected() {
        assert!(matches!(
            outcome_from_pcap(&[0u8; 10], SimDuration::from_secs(20)),
            Err(IngestError::Pcap(_))
        ));
        assert!(matches!(
            census_from_captures(
                &[(0, [0u8; 10])],
                &inetgen::GeoDb::perfect(),
                &ClassifierConfig::default()
            ),
            Err(IngestError::Pcap(_))
        ));
        assert!(matches!(
            campaign_report_from_pcap(Campaign::Censys, &[0u8; 10]),
            Err(IngestError::Pcap(_))
        ));
    }

    #[test]
    fn a_probe_from_port_53_is_not_mistaken_for_its_answer() {
        // The port walk sends probe 32 589 of every block from port 53.
        let (port, txid) = ScanConfig::probe_tuple(32_589);
        assert_eq!(port, dnswire::DNS_PORT);
        let mut w = PcapWriter::new();
        let probe = Datagram {
            src: SCANNER,
            dst: TARGET,
            src_port: port,
            dst_port: 53,
            ttl: 64,
            payload: query_bytes(txid).into(),
        };
        w.write(SimTime(0), &encode_udp(&probe, 1));
        let resp = Datagram {
            src: TARGET,
            dst: SCANNER,
            src_port: 53,
            dst_port: port,
            ttl: 60,
            payload: response_bytes(txid).into(),
        };
        w.write(SimTime(40_000), &encode_udp(&resp, 2));
        let outcome = outcome_from_pcap(&w.finish(), SimDuration::from_secs(20)).unwrap();
        assert_eq!(outcome.transactions.len(), 1);
        assert_eq!(outcome.transactions[0].probe.target, TARGET);
        assert_eq!(outcome.transactions[0].response_src(), Some(TARGET));
        assert_eq!(outcome.unmatched_responses, 0);
    }

    #[test]
    fn shard_records_rebuilt_with_shard_local_indices() {
        let (probes, responses) = streams_from_pcap(&capture()).unwrap();
        assert_eq!(probes.len(), 1);
        assert_eq!(probes[0].index, 0, "indices restart per capture");
        assert_eq!(probes[0].target, TARGET);
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].src, RESOLVER);
    }

    /// One shard's capture: probes to `11.<shard>.0.<i>` for `i < n`, each
    /// reusing the tuple `(33000, i)` every other shard uses too, and an
    /// answer from the target itself for every `i` in `answered`.
    fn shard_capture(shard: u8, n: u8, answered: &[u8]) -> Vec<u8> {
        let target = |i: u8| Ipv4Addr::new(11, shard, 0, i);
        let mut w = PcapWriter::new();
        for i in 0..n {
            let probe = Datagram {
                src: SCANNER,
                dst: target(i),
                src_port: 33000,
                dst_port: 53,
                ttl: 64,
                payload: query_bytes(i.into()).into(),
            };
            w.write(SimTime(i.into()), &encode_udp(&probe, i.into()));
        }
        for &i in answered {
            let resp = Datagram {
                src: target(i),
                dst: SCANNER,
                src_port: 53,
                dst_port: 33000,
                ttl: 60,
                payload: response_bytes(i.into()).into(),
            };
            w.write(SimTime(1_000 + u64::from(i)), &encode_udp(&resp, 100));
        }
        w.finish()
    }

    fn census_of(captures: &[(u32, Vec<u8>)]) -> Census {
        let geo = inetgen::GeoDb::perfect();
        census_from_captures(captures, &geo, &ClassifierConfig::default()).unwrap()
    }

    #[test]
    fn census_from_captures_is_input_order_independent() {
        let shard = |id: u8, n, answered: &[u8]| (u32::from(id), shard_capture(id, n, answered));
        let a = census_of(&[shard(0, 2, &[0]), shard(1, 4, &[2]), shard(2, 1, &[])]);
        let b = census_of(&[shard(2, 1, &[]), shard(0, 2, &[0]), shard(1, 4, &[2])]);
        assert_eq!(a, b);
        let targets: Vec<Ipv4Addr> = a.rows.iter().map(|r| r.target).collect();
        let expected: Vec<Ipv4Addr> = [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (1, 3), (2, 0)]
            .map(|(shard, i)| Ipv4Addr::new(11, shard, 0, i))
            .to_vec();
        assert_eq!(targets, expected, "ascending shard id, probe order within");
    }

    #[test]
    fn colliding_tuples_across_shards_stay_separate() {
        // Same (port, txid) in both shards — each shard's response must
        // match its own probe only.
        let census = census_of(&[
            (0, shard_capture(0, 1, &[0])),
            (1, shard_capture(1, 1, &[0])),
        ]);
        let answered_by: Vec<_> = census.rows.iter().map(|r| r.response_src).collect();
        assert_eq!(
            answered_by,
            vec![
                Some(Ipv4Addr::new(11, 0, 0, 0)),
                Some(Ipv4Addr::new(11, 1, 0, 0))
            ]
        );
        assert_eq!(census.unmatched_responses, 0);
    }

    #[test]
    #[should_panic(expected = "duplicate shard id 7")]
    fn census_from_captures_rejects_duplicate_shards() {
        census_of(&[
            (7, shard_capture(0, 1, &[])),
            (3, shard_capture(1, 2, &[])),
            (7, shard_capture(2, 1, &[])),
        ]);
    }

    #[test]
    fn campaign_replay_applies_sanitizing_rules() {
        // The capture of `capture()` holds a probe to TARGET answered from
        // RESOLVER — a source mismatch.
        let shadow = campaign_report_from_pcap(Campaign::Shadowserver, &capture()).unwrap();
        assert!(shadow.odns.contains(&RESOLVER), "responder reported");
        assert!(!shadow.odns.contains(&TARGET));
        assert_eq!(shadow.sanitized_out, 0);

        let censys = campaign_report_from_pcap(Campaign::Censys, &capture()).unwrap();
        assert!(censys.odns.is_empty(), "mismatched source dropped");
        assert_eq!(censys.sanitized_out, 1);
    }

    #[test]
    fn campaign_replay_counts_invalid_responses() {
        let mut w = PcapWriter::new();
        let garbage = Datagram {
            src: RESOLVER,
            dst: SCANNER,
            src_port: 53,
            dst_port: 41_000,
            ttl: 60,
            payload: vec![0xFF, 0x01].into(),
        };
        w.write(SimTime(0), &encode_udp(&garbage, 1));
        // A well-formed response without A records is invalid too.
        let q = MessageBuilder::query(3, odns::study::study_qname(), RrType::A).build();
        let empty = q.response_skeleton();
        let no_answers = Datagram {
            src: RESOLVER,
            dst: SCANNER,
            src_port: 53,
            dst_port: 41_000,
            ttl: 60,
            payload: empty.encode().into(),
        };
        w.write(SimTime(10), &encode_udp(&no_answers, 2));
        let report = campaign_report_from_pcap(Campaign::Shadowserver, &w.finish()).unwrap();
        assert_eq!(report.invalid, 2);
        assert!(report.odns.is_empty());
    }

    /// A campaign target that answers every probe in one scripted way.
    #[derive(Clone, Copy)]
    enum Reply {
        /// The genuine answer, sent twice.
        Twice,
        /// The genuine answer from another address.
        FromElsewhere,
        /// The probe's txid followed by a truncated header.
        Undecodable,
        /// A well-formed response without an A record.
        Answerless,
    }

    const ELSEWHERE: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 9);

    impl netsim::Host for Reply {
        fn on_datagram(&mut self, ctx: &mut netsim::Ctx<'_>, dgram: Datagram) {
            let query = dnswire::Message::decode(&dgram.payload).expect("campaign probe");
            let answer = MessageBuilder::response_to(&query)
                .answer_a(odns::study::study_qname(), 300, dgram.dst)
                .build()
                .encode();
            let mut send = |src: Ipv4Addr, payload: Vec<u8>| {
                ctx.send_udp(netsim::UdpSend {
                    src: Some(src),
                    src_port: dnswire::DNS_PORT,
                    dst: dgram.src,
                    dst_port: dgram.src_port,
                    ttl: None,
                    payload: payload.into(),
                });
            };
            match self {
                Reply::Twice => {
                    send(dgram.dst, answer.clone());
                    send(dgram.dst, answer);
                }
                Reply::FromElsewhere => send(ELSEWHERE, answer),
                Reply::Undecodable => {
                    send(dgram.dst, vec![dgram.payload[0], dgram.payload[1], 0xFF])
                }
                Reply::Answerless => send(dgram.dst, query.response_skeleton().encode()),
            }
        }
    }

    #[test]
    fn campaign_replay_equals_the_host_on_every_kind_of_response() {
        let replies = [
            Reply::Twice,
            Reply::FromElsewhere,
            Reply::Undecodable,
            Reply::Answerless,
        ];
        let targets: Vec<Ipv4Addr> = (1..=4).map(|i| Ipv4Addr::new(203, 0, 113, i)).collect();
        for campaign in Campaign::all() {
            let mut ips = vec![SCANNER];
            ips.extend(&targets);
            let (topo, nodes) = netsim::testkit::playground(&ips);
            let mut sim = netsim::Simulator::new(topo, netsim::SimConfig::default());
            for (node, reply) in nodes[1..].iter().zip(replies) {
                sim.install(*node, reply);
            }
            sim.tap(nodes[0]);
            let live = scanner::run_campaign(
                &mut sim,
                nodes[0],
                scanner::CampaignConfig::new(campaign, targets.clone()),
            );
            let capture = sim.take_capture(nodes[0]).expect("tapped");
            let replayed = campaign_report_from_pcap(campaign, &capture).unwrap();
            assert_eq!(replayed, live, "{campaign}");

            let mismatch_dropped = campaign.sanitizes_source();
            let mut odns = vec![targets[0]];
            if !mismatch_dropped {
                odns.push(ELSEWHERE);
            }
            assert_eq!(live.odns, odns.into_iter().collect(), "{campaign}");
            assert_eq!(
                live.sanitized_out,
                u64::from(mismatch_dropped),
                "{campaign}"
            );
            assert_eq!(live.invalid, 2, "{campaign}: undecodable + answerless");
        }
    }

    #[test]
    fn lossy_retried_capture_census_equals_the_live_census() {
        // 5 % flow-keyed loss, two retries: the tap holds every
        // retransmission, the live scanner one record per probe.
        let config = inetgen::GenConfig {
            seed: 11,
            countries: inetgen::CountrySelection::Codes(vec!["BRA", "TUR", "DEU"]),
            scale: 2_000,
            faults: crate::sweep_fault_plan(50, 11),
            ..inetgen::GenConfig::default()
        };
        let classifier = ClassifierConfig::default();
        for k in [1u32, 2] {
            let run = inetgen::run_sharded(&config, k, |spec, world| {
                let node = world.fixtures.scanner;
                world.sim.tap(node);
                let scan = crate::census::census_scan_config(world)
                    .with_retry(crate::sweep_retry_policy(2));
                let outcome = scanner::run_scan(&mut world.sim, node, scan);
                assert!(outcome.retry.retransmits_sent > 0, "losses must bite");
                let capture = world.sim.take_capture(node).expect("tapped");
                let part = Census::from_outcome(&outcome, &world.geo, &classifier);
                (part, (spec.index, capture))
            });
            let (parts, captures): (Vec<_>, Vec<_>) = run.outputs.into_iter().unzip();
            let live = crate::census::merge_census_parts(parts);
            let replayed = census_from_captures(&captures, &run.geo, &classifier).unwrap();
            assert_eq!(
                replayed.rows.len(),
                live.rows.len(),
                "K={k}: one row per probe"
            );
            assert_eq!(replayed, live, "K={k}");
            assert!(live.odns_total() > 0, "world must answer");
        }
    }
}
