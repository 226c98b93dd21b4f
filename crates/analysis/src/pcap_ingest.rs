//! Offline pcap ingestion: rebuild scan transactions from a raw capture.
//!
//! The paper's pipeline stores the complete scan traffic with `dumpcap`
//! and correlates offline (§A.2). This module proves our pipeline is
//! equally capture-driven: given only the scanner's pcap bytes, it
//! reconstructs probes (outgoing port-53 queries), responses (everything
//! else), and correlates them by `(port, TXID)` within the timeout —
//! independently of the in-memory records the scanner kept.
//!
//! The sharded drivers extend this to per-shard taps: every shard's
//! scanner capture alone rebuilds that shard's record streams
//! ([`shard_records_from_pcap`]), and the streams merge through the same
//! offline pass as the live sharded census ([`census_from_captures`]) —
//! so the whole sharded pipeline is reproducible from its captures, like
//! the paper's. Campaign emulations replay offline too
//! ([`campaign_report_from_pcap`]): a campaign's published report is a
//! pure function of its capture and its processing rules.

use crate::census::Census;
use netsim::pcap::{read_pcap, PcapError};
use netsim::wire::{decode, DecodedPacket};
use netsim::SimDuration;
use scanner::records::{ProbeRecord, ResponseRecord, ScanOutcome};
use scanner::{Campaign, CampaignReport, ClassifierConfig, ScanConfig, ShardRecords};
// detlint::allow(unordered-iter): correlation map mirroring the live
// CampaignScanner byte for byte; keyed lookups only, never iterated.
use std::collections::{BTreeSet, HashMap};
use std::net::Ipv4Addr;

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

/// Reconstruct the raw probe/response record streams from capture bytes —
/// exactly what the live scanner's `run_scan_raw` returns, but computed
/// from the tap's pcap alone.
///
/// Packets that fail IP/UDP decoding are skipped (they would be ICMP or
/// corruption — dumpcap keeps them too, the analyzer ignores them). A
/// retransmission is not a new probe: the live scanner keeps one
/// [`ProbeRecord`] per probe, timed at its first send, so a repeated
/// outgoing `(src_port, txid, dst)` is skipped.
pub fn streams_from_pcap(
    pcap: &[u8],
) -> Result<(Vec<ProbeRecord>, Vec<ResponseRecord>), IngestError> {
    let records = read_pcap(pcap).map_err(IngestError::Pcap)?;
    let mut probes: Vec<ProbeRecord> = Vec::new();
    let mut responses: Vec<ResponseRecord> = Vec::new();
    let mut sent = BTreeSet::new();
    for rec in &records {
        let Ok(DecodedPacket::Udp(d)) = decode(&rec.data) else {
            continue; // ICMP and malformed frames are not DNS transactions
        };
        if d.dst_port == dnswire::DNS_PORT {
            // Outgoing probe (the tap records the scanner's own sends).
            let Some(txid) = dnswire::peek_id(&d.payload) else {
                continue;
            };
            if !sent.insert((d.src_port, txid, d.dst)) {
                continue;
            }
            probes.push(ProbeRecord {
                index: probes.len(),
                target: d.dst,
                sent_at: rec.ts,
                src_port: d.src_port,
                txid,
            });
        } else {
            responses.push(ResponseRecord {
                received_at: rec.ts,
                src: d.src,
                dst_port: d.dst_port,
                payload: d.payload.clone(),
            });
        }
    }
    Ok((probes, responses))
}

/// Reconstruct a [`ScanOutcome`] from raw capture bytes.
pub fn outcome_from_pcap(pcap: &[u8], timeout: SimDuration) -> Result<ScanOutcome, IngestError> {
    let (probes, responses) = streams_from_pcap(pcap)?;
    // Same offline pass as the live scanner and the sharded merge — one
    // implementation of the matching semantics for all three paths.
    Ok(scanner::correlate_owned(probes, responses, timeout))
}

/// Rebuild one shard's [`ShardRecords`] from that shard's scanner capture
/// — the capture-driven twin of the per-shard `run_scan_raw` collection
/// step. `(port, txid)` tuples restart in every shard, so each capture
/// must be ingested separately and merged at the record-stream level
/// (never by concatenating pcaps).
pub fn shard_records_from_pcap(shard: u32, pcap: &[u8]) -> Result<ShardRecords, IngestError> {
    let (probes, responses) = streams_from_pcap(pcap)?;
    Ok(ShardRecords::new(shard, probes, responses))
}

/// The capture-driven sharded census: rebuild every shard's record
/// streams from its capture alone and run the identical merge →
/// correlate → classify tail as the live sharded census. Given the
/// captures of a [`crate::run_campaign_sharded`] (or any sharded scan
/// with per-shard scanner taps), the result equals the in-memory census
/// row for row.
pub fn census_from_captures<S: AsRef<[u8]>>(
    captures: &[(u32, S)],
    geo: &inetgen::GeoDb,
    classifier: &ClassifierConfig,
) -> Result<Census, IngestError> {
    let mut streams = Vec::with_capacity(captures.len());
    for (shard, pcap) in captures {
        streams.push(shard_records_from_pcap(*shard, pcap.as_ref())?);
    }
    // The `(port, txid)` key space restarts per shard, so streams
    // correlate shard by shard.
    let outcome = scanner::merge_shard_records(streams, ScanConfig::DEFAULT_TIMEOUT);
    Ok(Census::from_outcome(&outcome, geo, classifier))
}

/// Replay a campaign's processing rules over its capture, rebuilding the
/// [`CampaignReport`] it published — the offline proof that a campaign's
/// feed is a pure function of the traffic it saw plus its (stateless or
/// connected-socket) pipeline. Mirrors `CampaignScanner::on_datagram`
/// byte for byte: outgoing port-53 packets register the probe's
/// `(port, txid) → target`, anything else is processed as a response in
/// capture order.
pub fn campaign_report_from_pcap(
    campaign: Campaign,
    pcap: &[u8],
) -> Result<CampaignReport, IngestError> {
    let records = read_pcap(pcap).map_err(IngestError::Pcap)?;
    // detlint::allow(unordered-iter): probe correlation is lookup-only —
    // responses are processed in capture order, the map is never iterated.
    let mut sent: HashMap<(u16, u16), Ipv4Addr> = HashMap::new();
    let mut report = CampaignReport::default();
    for rec in &records {
        let Ok(DecodedPacket::Udp(d)) = decode(&rec.data) else {
            continue; // ICMP never reaches a campaign's response pipeline
        };
        if d.dst_port == dnswire::DNS_PORT {
            if let Some(txid) = dnswire::peek_id(&d.payload) {
                // A repeated tuple is a retransmission, counted like the
                // live scanner counts its own.
                if sent.insert((d.src_port, txid), d.dst).is_some() {
                    report.retransmits_sent += 1;
                }
            }
            continue;
        }
        let Ok(msg) = dnswire::Message::decode(&d.payload) else {
            report.invalid += 1;
            continue;
        };
        if !msg.is_response() || msg.answer_a_addrs().is_empty() {
            report.invalid += 1;
            continue;
        }
        if campaign.sanitizes_source() {
            match sent.get(&(d.dst_port, msg.header.id)) {
                Some(&target) if target == d.src => {
                    report.odns.insert(d.src);
                }
                _ => report.sanitized_out += 1,
            }
        } else {
            report.odns.insert(d.src);
        }
    }
    Ok(report)
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
            shard_records_from_pcap(0, &[0u8; 10]),
            Err(IngestError::Pcap(_))
        ));
        assert!(matches!(
            campaign_report_from_pcap(Campaign::Censys, &[0u8; 10]),
            Err(IngestError::Pcap(_))
        ));
    }

    #[test]
    fn shard_records_rebuilt_with_shard_local_indices() {
        let records = shard_records_from_pcap(7, &capture()).unwrap();
        assert_eq!(records.shard, 7);
        assert_eq!(records.probes.len(), 1);
        assert_eq!(records.probes[0].index, 0, "indices restart per shard");
        assert_eq!(records.probes[0].target, TARGET);
        assert_eq!(records.responses.len(), 1);
        assert_eq!(records.responses[0].src, RESOLVER);
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
        /// Silence for the first probe, the genuine answer for the second.
        SecondProbeOnly,
    }

    struct Scripted {
        reply: Reply,
        probes_seen: u32,
    }

    const ELSEWHERE: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 9);

    impl netsim::Host for Scripted {
        fn on_datagram(&mut self, ctx: &mut netsim::Ctx<'_>, dgram: Datagram) {
            self.probes_seen += 1;
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
            match self.reply {
                Reply::Twice => {
                    send(dgram.dst, answer.clone());
                    send(dgram.dst, answer);
                }
                Reply::FromElsewhere => send(ELSEWHERE, answer),
                Reply::Undecodable => {
                    send(dgram.dst, vec![dgram.payload[0], dgram.payload[1], 0xFF])
                }
                Reply::Answerless => send(dgram.dst, query.response_skeleton().encode()),
                Reply::SecondProbeOnly if self.probes_seen == 2 => send(dgram.dst, answer),
                Reply::SecondProbeOnly => {}
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
            Reply::SecondProbeOnly,
        ];
        let targets: Vec<Ipv4Addr> = (1..=5).map(|i| Ipv4Addr::new(203, 0, 113, i)).collect();
        for campaign in Campaign::all() {
            let mut ips = vec![SCANNER];
            ips.extend(&targets);
            let (topo, nodes) = netsim::testkit::playground(&ips);
            let mut sim = netsim::Simulator::new(topo, netsim::SimConfig::default());
            for (node, reply) in nodes[1..].iter().zip(replies) {
                let host = Scripted {
                    reply,
                    probes_seen: 0,
                };
                sim.install(*node, host);
            }
            sim.tap(nodes[0]);
            let live = scanner::run_campaign(
                &mut sim,
                nodes[0],
                scanner::CampaignConfig::new(campaign, targets.clone())
                    .with_retry(netsim::RetryPolicy::retries(1)),
            );
            let capture = sim.take_capture(nodes[0]).expect("tapped");
            let replayed = campaign_report_from_pcap(campaign, &capture).unwrap();
            assert_eq!(replayed, live, "{campaign}");

            let mismatch_dropped = campaign.sanitizes_source();
            let mut odns = vec![targets[0], targets[4]];
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
            assert_eq!(
                live.retransmits_sent, 1,
                "{campaign}: the silent first probe"
            );
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
