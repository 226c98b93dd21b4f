//! The transactional scanner — the paper's measurement contribution.
//!
//! A zmap-style asynchronous scanner that (1) assigns every probe a unique
//! `(source port, DNS transaction ID)` tuple, (2) records all outgoing
//! probes, (3) collects every response, and (4) correlates them offline
//! within a conservative 20-second timeout (§4.1). The correlation is what
//! stateless campaigns lack, and it is exactly what makes transparent
//! forwarders visible: their responses arrive from a *different* address
//! than the probed one, which only a recorded transaction can reveal.

use crate::pacer::{Due, Pacer, PACE_TOKEN};
use crate::records::{ProbeRecord, ResponseRecord, RetryStats, ScanOutcome, Transaction};
use dnswire::{MessageBuilder, RrType};
use netsim::{Ctx, Datagram, Host, IntMap, NodeId, RetryPolicy, SimDuration, Simulator, UdpSend};
use odns::study;
use std::net::Ipv4Addr;

/// First source port: probes walk `BASE_PORT + (index & 0xFFFF)` with the
/// txid advancing once per 65 k block, so the `(port, txid)` tuple is
/// unique for every in-flight probe.
const BASE_PORT: u16 = 33_000;

/// How probe query names are chosen — the two methods of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeNaming {
    /// Response-based method: every probe queries the same static name, so
    /// resolver caches absorb repeats (the paper's choice).
    Static,
    /// Query-based method: the target's address is encoded in the name
    /// (`203-0-113-1.scan.<zone>`), defeating caches and loading the
    /// authoritative server — implemented for the Table 2 comparison.
    EncodeTarget,
}

/// How probe `(src_port, txid)` tuples are assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TupleScheme {
    /// Port-walk (the default): the port varies per probe *index* and the
    /// txid advances once per 65 k block, so a whole block shares one wire
    /// payload (see [`ScanConfig::probe_tuple`]).
    #[default]
    PortWalk,
    /// Target-keyed: the tuple is a pure function of the *target address*
    /// (txid = the address's high 16 bits, port = base port + low 16
    /// bits). Unique because targets are, and — unlike the index-based
    /// walk — invariant under probe order and partitioning: a probe's
    /// flow identity is the same whichever shard probes it, which is what
    /// lets the fault plane's flow-keyed verdicts commute with sharding.
    /// Costs the per-block payload cache (txids no longer arrive in
    /// blocks). Measured as the only scheme (repo benchmark, seed 7,
    /// alternated pairs): `census_warm_dud` `ops_per_s` ×0.89 in the
    /// median, 7 of 8 pairs worse; `census_fresh` ×0.93, 6 of 6 worse;
    /// `peak_rss_mb` +3–5 %. So lossless scans keep the walk, and the
    /// census drivers switch to this scheme only when the simulator's
    /// `faults_active()` says verdicts are being drawn.
    TargetKeyed,
}

/// Scanner configuration.
#[derive(Debug, Clone)]
pub struct ScanConfig {
    /// Addresses to probe, in order.
    pub targets: Vec<Ipv4Addr>,
    /// Name construction method.
    pub naming: ProbeNaming,
    /// `(src_port, txid)` assignment scheme.
    pub tuples: TupleScheme,
    /// Gap between consecutive probes (sets the scan rate; the paper scans
    /// the full IPv4 space in 18 hours — "moderate").
    pub inter_probe_gap: SimDuration,
    /// Retransmission policy. The default ([`RetryPolicy::none`]) keeps
    /// the paper's single-shot behavior: no retry state is allocated and
    /// no retry timers are armed.
    pub retry: RetryPolicy,
}

impl ScanConfig {
    /// The paper's conservative 20 s correlation window, the one every
    /// scan and every merge of recorded streams correlates with.
    pub const DEFAULT_TIMEOUT: SimDuration = SimDuration::from_secs(20);

    /// Defaults matching the paper: static naming, 20 s timeout.
    pub fn new(targets: Vec<Ipv4Addr>) -> Self {
        ScanConfig {
            targets,
            naming: ProbeNaming::Static,
            tuples: TupleScheme::PortWalk,
            inter_probe_gap: SimDuration::from_micros(50),
            retry: RetryPolicy::none(),
        }
    }

    /// Switch to target-keyed tuples ([`TupleScheme::TargetKeyed`]) — the
    /// scheme lossy-world experiments need for shard-count-invariant
    /// fault verdicts.
    pub fn with_target_keyed_tuples(mut self) -> Self {
        self.tuples = TupleScheme::TargetKeyed;
        self
    }

    /// Enable retransmissions. Panics on a degenerate policy — a scan
    /// that silently never retries is worse than one that refuses to
    /// start.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        retry.assert_valid();
        self.retry = retry;
        self
    }

    /// The `(src_port, txid)` tuple for probe `index`.
    ///
    /// The *port* varies per probe and the *txid* per 65 k block — not the
    /// other way round — so all probes of a block share one wire payload
    /// (the txid is the only byte pair that differs between static-naming
    /// probes), letting the scanner send a block from a single shared
    /// buffer instead of patching a fresh copy per probe.
    pub fn probe_tuple(index: usize) -> (u16, u16) {
        let port = BASE_PORT.wrapping_add((index & 0xFFFF) as u16);
        let txid = (index >> 16) as u16;
        (port, txid)
    }

    /// The `(src_port, txid)` tuple for the probe at `index` targeting
    /// `target`, under the configured [`TupleScheme`]. `PortWalk` uses the
    /// index ([`ScanConfig::probe_tuple`]); `TargetKeyed` uses the address
    /// alone.
    pub fn tuple_for(&self, index: usize, target: Ipv4Addr) -> (u16, u16) {
        match self.tuples {
            TupleScheme::PortWalk => Self::probe_tuple(index),
            TupleScheme::TargetKeyed => {
                let ip = u32::from(target);
                let port = BASE_PORT.wrapping_add((ip & 0xFFFF) as u16);
                let txid = (ip >> 16) as u16;
                (port, txid)
            }
        }
    }
}

/// The scanner host. Paced (and, under a [`RetryPolicy`], retransmitted)
/// by a `pacer::Pacer`; all analysis is post-processing over the recorded
/// probes and responses.
#[derive(Debug)]
pub struct TransactionalScanner {
    config: ScanConfig,
    pacer: Pacer,
    /// Pre-encoded probe query for static naming: every probe differs only
    /// in its transaction ID, so the hot send path shares one patched
    /// buffer per txid block instead of building and encoding a fresh
    /// message (name parse, builder, compression walk) per target. Points
    /// at the process-wide template — scanners don't even pay the encode.
    probe_template: Option<&'static [u8]>,
    /// The shared payload of the current txid block. With the port-fast
    /// tuple scheme the txid changes once per 65 536 probes, so the send
    /// path is one `Arc` bump per probe and one 2-byte patch per block —
    /// zero per-probe payload allocation.
    cached_block: Option<(u16, netsim::Payload)>,
    /// Outgoing probe records.
    pub probes: Vec<ProbeRecord>,
    /// Raw response records in arrival order.
    pub responses: Vec<ResponseRecord>,
    /// `(port, txid) → probe index`, the inverse the answer path needs
    /// when tuples are target-keyed (the port-walk inverse is arithmetic).
    /// Empty unless retries are enabled under [`TupleScheme::TargetKeyed`].
    tuple_index: IntMap<(u16, u16), usize>,
    /// Live retransmission counters, copied into the outcome.
    pub retry_stats: RetryStats,
}

impl TransactionalScanner {
    /// Build from config.
    pub fn new(config: ScanConfig) -> Self {
        let pacer = Pacer::new(
            config.targets.len(),
            config.inter_probe_gap,
            PACE_TOKEN,
            config.retry,
        );
        let probes = Vec::with_capacity(config.targets.len());
        let probe_template = match config.naming {
            ProbeNaming::Static => Some(study::probe_template()),
            ProbeNaming::EncodeTarget => None,
        };
        let tuple_index = if config.retry.enabled() && config.tuples == TupleScheme::TargetKeyed {
            config
                .targets
                .iter()
                .enumerate()
                .map(|(i, t)| (config.tuple_for(i, *t), i))
                .collect()
        } else {
            IntMap::default()
        };
        TransactionalScanner {
            config,
            pacer,
            probe_template,
            cached_block: None,
            probes,
            responses: Vec::new(),
            tuple_index,
            retry_stats: RetryStats::default(),
        }
    }

    /// The shared wire payload for a static-naming probe with `txid`:
    /// cached per 65 k block, patched from the template only when the
    /// block changes.
    fn block_payload(&mut self, txid: u16) -> netsim::Payload {
        if let Some((id, payload)) = &self.cached_block {
            if *id == txid {
                return payload.clone();
            }
        }
        let template = self.probe_template.expect("static template");
        let payload = netsim::Payload::with_dns_id(template, txid);
        self.cached_block = Some((txid, payload.clone()));
        payload
    }

    /// The wire payload of probe `index` — shared block buffer under
    /// static naming, a fresh encode under query encoding. Used by both
    /// the original send and every retransmission, so a retransmitted
    /// probe is byte-identical to its original.
    fn probe_payload(&mut self, target: Ipv4Addr, txid: u16) -> netsim::Payload {
        if self.probe_template.is_some() {
            self.block_payload(txid)
        } else {
            let qname = study::encode_target_name(target);
            MessageBuilder::query(txid, qname, RrType::A)
                .recursion_desired(true)
                .build()
                .encode()
                .into()
        }
    }

    /// Put `due` on the wire: the original send records a
    /// [`ProbeRecord`]; a retransmission re-sends the *same* `(port, txid)`
    /// wire bytes without one — correlation sees one transaction per probe.
    fn transmit(&mut self, ctx: &mut Ctx<'_>, Due { index, attempt }: Due) {
        let target = self.config.targets[index];
        let (port, txid) = self.config.tuple_for(index, target);
        let payload = self.probe_payload(target, txid);
        if attempt == 0 {
            self.probes.push(ProbeRecord {
                index,
                target,
                sent_at: ctx.now(),
                src_port: port,
                txid,
            });
        } else {
            self.retry_stats.retransmits_sent += 1;
        }
        ctx.send_udp_attempt(
            UdpSend::new(port, target, dnswire::DNS_PORT, payload),
            attempt,
        );
    }

    /// Mark the probe a response maps to (the inverse of the configured
    /// tuple scheme — arithmetic for the port walk, the prebuilt map for
    /// target-keyed tuples) as answered, stopping further retransmissions
    /// and recording the attempt histogram. Only the *first* response
    /// counts; anything later is the correlator's business.
    fn note_answer(&mut self, ctx: &mut Ctx<'_>, dst_port: u16, payload: &netsim::Payload) {
        let Some(txid) = dnswire::peek_id(payload) else {
            return;
        };
        let index = match self.config.tuples {
            TupleScheme::PortWalk => {
                (usize::from(txid) << 16) | usize::from(dst_port.wrapping_sub(BASE_PORT))
            }
            TupleScheme::TargetKeyed => {
                let Some(&i) = self.tuple_index.get(&(dst_port, txid)) else {
                    return;
                };
                i
            }
        };
        let Some(&target) = self.config.targets.get(index) else {
            return;
        };
        if self.config.tuple_for(index, target) == (dst_port, txid) {
            if let Some(attempts) = self.pacer.answered(ctx, index) {
                self.retry_stats.record_answered(attempts);
            }
        }
    }
}

impl Host for TransactionalScanner {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
        if self.config.retry.enabled() {
            self.note_answer(ctx, dgram.dst_port, &dgram.payload);
        }
        self.responses.push(ResponseRecord {
            received_at: ctx.now(),
            src: dgram.src,
            dst_port: dgram.dst_port,
            payload: dgram.payload,
        });
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let Some(due) = self.pacer.due(token) else {
            return;
        };
        self.transmit(ctx, due);
        self.pacer.sent(ctx, due);
    }
}

/// The offline correlation pass over recorded probe/response streams —
/// the paper's post-processing, as a pure function: the live scanner, every
/// shard's in-worker census pass and pcap ingestion all run this one
/// implementation of the matching semantics.
///
/// Matching is by `(dst_port, txid)`; the first response inside the
/// timeout window wins, later matches count as duplicates, and responses
/// past the window count as late. Takes ownership: probes and matched
/// response payloads move into the resulting transactions with no copying
/// — record streams are the bulk of a census's memory.
pub fn correlate_owned(
    probes: Vec<ProbeRecord>,
    responses: Vec<ResponseRecord>,
    timeout: SimDuration,
) -> ScanOutcome {
    /// Below this many probes, matching walks the probe list instead of
    /// building the hash index — the small per-scan batches of a warm
    /// steady-state world. Measured at 0 (always index; repo benchmark,
    /// seed 7, alternated pairs): `hotpath_repeat` `ops_per_s` ×0.95 in
    /// the median, 8 of 8 pairs worse. The branch stays.
    const LINEAR_SCAN_MAX: usize = 32;

    // Correlation's only side allocation: `(port, txid) → probe`.
    let mut index: IntMap<(u16, u16), usize> = IntMap::default();
    let linear = probes.len() <= LINEAR_SCAN_MAX;
    if !linear {
        index.reserve(probes.len());
        for (i, p) in probes.iter().enumerate() {
            index.insert((p.src_port, p.txid), i);
        }
    }
    let mut transactions: Vec<Transaction> = probes
        .into_iter()
        .map(|p| Transaction {
            probe: p,
            response: None,
        })
        .collect();
    let mut unmatched = 0usize;
    let mut late = 0usize;
    let mut superseded = 0usize;
    for r in responses {
        let Some(txid) = dnswire::peek_id(&r.payload) else {
            unmatched += 1;
            continue;
        };
        // Like the index (whose inserts overwrite), a duplicate
        // `(port, txid)` tuple resolves to the *last* matching probe.
        let found = if linear {
            transactions
                .iter()
                .rposition(|t| t.probe.src_port == r.dst_port && t.probe.txid == txid)
        } else {
            index.get(&(r.dst_port, txid)).copied()
        };
        let Some(probe_idx) = found else {
            unmatched += 1;
            continue;
        };
        let t = &mut transactions[probe_idx];
        if r.received_at - t.probe.sent_at > timeout {
            late += 1;
            continue;
        }
        if t.response.is_some() {
            // A second answer for an already-answered tuple: a wire
            // duplicate, or the answer to a superseded retransmission
            // attempt. Deduplicated — the first response stands.
            superseded += 1;
            continue;
        }
        t.response = Some(r);
    }
    ScanOutcome {
        transactions,
        unmatched_responses: unmatched,
        late_responses: late,
        late_answers_discarded: superseded,
        retry: RetryStats::default(),
    }
}

/// Install a scanner at `node`, run the whole scan to quiescence, and
/// return the correlated outcome. Convenience wrapper used by benches,
/// examples, and the census pipeline.
pub fn run_scan(sim: &mut Simulator, node: NodeId, config: ScanConfig) -> ScanOutcome {
    let (probes, responses, retry) = run_scan_raw(sim, node, config);
    let mut outcome = correlate_owned(probes, responses, ScanConfig::DEFAULT_TIMEOUT);
    outcome.retry = retry;
    outcome
}

/// Run the scan like [`run_scan`] but return the *raw* probe/response
/// streams (plus retransmission counters) instead of correlating — for
/// callers that time or inspect the streams before handing them to
/// [`correlate_owned`].
pub fn run_scan_raw(
    sim: &mut Simulator,
    node: NodeId,
    config: ScanConfig,
) -> (Vec<ProbeRecord>, Vec<ResponseRecord>, RetryStats) {
    sim.install(node, TransactionalScanner::new(config));
    sim.schedule_timer(node, SimDuration::ZERO, PACE_TOKEN);
    sim.run();
    // The scanner is done; move the streams out rather than copying
    // every payload (these vectors are the bulk of a shard's memory).
    let scanner = sim
        .host_as_mut::<TransactionalScanner>(node)
        .expect("scanner installed");
    (
        std::mem::take(&mut scanner.probes),
        std::mem::take(&mut scanner.responses),
        scanner.retry_stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::testkit::playground;
    use netsim::{SimConfig, SimTime};

    #[test]
    fn probe_tuples_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..200_000usize {
            assert!(
                seen.insert(ScanConfig::probe_tuple(i)),
                "tuple collision at {i}"
            );
        }
    }

    #[test]
    fn scanner_paces_probes() {
        let ips: Vec<Ipv4Addr> = (1..=5).map(|i| Ipv4Addr::new(203, 0, 113, i)).collect();
        let mut all = vec![Ipv4Addr::new(192, 0, 2, 1)];
        all.extend(&ips);
        let (topo, nodes) = playground(&all);
        let mut sim = Simulator::new(topo, SimConfig::default());
        let mut cfg = ScanConfig::new(ips);
        cfg.inter_probe_gap = SimDuration::from_millis(10);
        let outcome = run_scan(&mut sim, nodes[0], cfg);
        assert_eq!(outcome.transactions.len(), 5);
        // Hostless sinks never answer: all unanswered.
        assert_eq!(outcome.answered_count(), 0);
        // Pacing: probes 10 ms apart.
        let times: Vec<SimTime> = outcome
            .transactions
            .iter()
            .map(|t| t.probe.sent_at)
            .collect();
        for w in times.windows(2) {
            assert_eq!((w[1] - w[0]).as_millis(), 10);
        }
    }

    /// The probe record of the `index`-th probe, sent at time zero.
    fn probe(index: usize, target: Ipv4Addr) -> ProbeRecord {
        let (src_port, txid) = ScanConfig::probe_tuple(index);
        ProbeRecord {
            index,
            target,
            sent_at: SimTime(0),
            src_port,
            txid,
        }
    }

    #[test]
    fn correlation_matches_by_port_and_txid() {
        // Two probes and a response for the second only.
        let probes = vec![
            probe(0, Ipv4Addr::new(203, 0, 113, 1)),
            probe(1, Ipv4Addr::new(203, 0, 113, 2)),
        ];
        let (port1, txid1) = ScanConfig::probe_tuple(1);
        let resp = MessageBuilder::query(txid1, study::study_qname(), RrType::A)
            .build()
            .response_skeleton();
        let responses = vec![ResponseRecord {
            received_at: SimTime(1_000_000),
            src: Ipv4Addr::new(8, 8, 8, 8),
            dst_port: port1,
            payload: resp.encode().into(),
        }];
        let o = correlate_owned(probes, responses, ScanConfig::DEFAULT_TIMEOUT);
        assert!(o.transactions[0].response.is_none());
        assert_eq!(
            o.transactions[1].response_src(),
            Some(Ipv4Addr::new(8, 8, 8, 8))
        );
        assert_eq!(o.unmatched_responses, 0);
    }

    #[test]
    fn late_responses_counted_not_matched() {
        let timeout = ScanConfig::DEFAULT_TIMEOUT;
        let (port, txid) = ScanConfig::probe_tuple(0);
        let resp = MessageBuilder::query(txid, study::study_qname(), RrType::A)
            .build()
            .response_skeleton();
        let response = ResponseRecord {
            received_at: SimTime::ZERO + timeout + SimDuration::from_micros(1),
            src: Ipv4Addr::new(8, 8, 8, 8),
            dst_port: port,
            payload: resp.encode().into(),
        };
        let o = correlate_owned(
            vec![probe(0, Ipv4Addr::new(203, 0, 113, 1))],
            vec![response],
            timeout,
        );
        assert!(o.transactions[0].response.is_none());
        assert_eq!(o.late_responses, 1);
    }

    #[test]
    fn duplicates_and_garbage_counted_unmatched() {
        let (port, txid) = ScanConfig::probe_tuple(0);
        let resp = MessageBuilder::query(txid, study::study_qname(), RrType::A)
            .build()
            .response_skeleton()
            .encode();
        let mut responses = Vec::new();
        for _ in 0..2 {
            responses.push(ResponseRecord {
                received_at: SimTime(1),
                src: Ipv4Addr::new(8, 8, 8, 8),
                dst_port: port,
                payload: resp.clone().into(),
            });
        }
        responses.push(ResponseRecord {
            received_at: SimTime(2),
            src: Ipv4Addr::new(9, 9, 9, 9),
            dst_port: port,
            payload: vec![0x01].into(), // too short for a txid
        });
        let o = correlate_owned(
            vec![probe(0, Ipv4Addr::new(203, 0, 113, 1))],
            responses,
            ScanConfig::DEFAULT_TIMEOUT,
        );
        assert!(o.transactions[0].response.is_some());
        assert_eq!(o.unmatched_responses, 1, "garbage");
        assert_eq!(o.late_answers_discarded, 1, "duplicate deduplicated");
    }

    /// A minimal DNS-ish responder: answers every query with a response
    /// skeleton echoing the query's transaction id.
    struct Responder;
    impl Host for Responder {
        fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
            let Some(txid) = dnswire::peek_id(&dgram.payload) else {
                return;
            };
            let resp = MessageBuilder::query(txid, study::study_qname(), RrType::A)
                .build()
                .response_skeleton()
                .encode();
            ctx.send_udp(UdpSend {
                src: Some(dgram.dst),
                src_port: dgram.dst_port,
                dst: dgram.src,
                dst_port: dgram.src_port,
                ttl: None,
                payload: resp.into(),
            });
        }
    }

    /// Build a lossy playground world with `n` responding targets and run
    /// one scan under `retry`, returning the outcome.
    fn lossy_scan(n: u8, loss: f64, seed: u64, retry: RetryPolicy) -> ScanOutcome {
        let ips: Vec<Ipv4Addr> = (1..=n).map(|i| Ipv4Addr::new(203, 0, 113, i)).collect();
        let mut all = vec![Ipv4Addr::new(192, 0, 2, 1)];
        all.extend(&ips);
        let (topo, nodes) = playground(&all);
        let mut sim = Simulator::new(
            topo,
            SimConfig {
                faults: netsim::FaultPlan::lossy(loss).salted(seed),
                ..SimConfig::default()
            },
        );
        for node in &nodes[1..] {
            sim.install(*node, Responder);
        }
        let cfg = ScanConfig::new(ips).with_retry(retry);
        run_scan(&mut sim, nodes[0], cfg)
    }

    #[test]
    fn retransmissions_recover_answers_lost_to_faults() {
        let single = lossy_scan(40, 0.4, 11, RetryPolicy::none());
        let retried = lossy_scan(40, 0.4, 11, RetryPolicy::retries(3));
        assert!(
            single.answered_count() < 40,
            "the lossy world must actually lose probes (got {}/40)",
            single.answered_count()
        );
        assert!(
            retried.answered_count() > single.answered_count(),
            "retries recover answers: {} vs {}",
            retried.answered_count(),
            single.answered_count()
        );
        assert!(retried.retry.retransmits_sent > 0);
        assert!(
            retried.retry.answered_by_retry() > 0,
            "some probe must be answered on attempt >= 2"
        );
        // Attempt-1 answers + retry answers = all answers.
        let histogram_total: u64 = retried.retry.answered_on_attempt.iter().sum();
        assert_eq!(histogram_total, retried.answered_count() as u64);
        // Single-shot runs carry zero retry accounting.
        assert_eq!(single.retry, crate::records::RetryStats::default());
    }

    #[test]
    fn retried_scans_are_deterministic() {
        let policy = RetryPolicy::retries(2).with_jitter(SimDuration::from_millis(3));
        let a = lossy_scan(25, 0.3, 77, policy);
        let b = lossy_scan(25, 0.3, 77, policy);
        assert_eq!(a, b, "same seed, same policy => bit-identical outcome");
        let c = lossy_scan(25, 0.3, 78, policy);
        assert_ne!(a, c, "a different seed redraws the fault pattern");
    }

    #[test]
    fn retry_on_lossless_world_sends_nothing_extra() {
        let o = lossy_scan(10, 0.0, 5, RetryPolicy::retries(3));
        assert_eq!(o.answered_count(), 10);
        assert_eq!(
            o.retry.retransmits_sent, 0,
            "every probe answered first try"
        );
        assert_eq!(o.retry.answered_on_attempt[0], 10);
        assert_eq!(o.retry.answered_by_retry(), 0);
    }

    #[test]
    fn duplicate_faults_do_not_double_count_answers() {
        // A duplicating (but lossless) wire: every probe and answer may be
        // cloned. Each probe must still end up with exactly one response,
        // clones landing in `late_answers_discarded`.
        let ips: Vec<Ipv4Addr> = (1..=10).map(|i| Ipv4Addr::new(203, 0, 113, i)).collect();
        let mut all = vec![Ipv4Addr::new(192, 0, 2, 1)];
        all.extend(&ips);
        let (topo, nodes) = playground(&all);
        let faults = netsim::FaultPlan::uniform(netsim::FaultConfig {
            duplicate_probability: 1.0,
            ..netsim::FaultConfig::none()
        });
        let mut sim = Simulator::new(
            topo,
            SimConfig {
                faults: faults.salted(3),
                ..SimConfig::default()
            },
        );
        for node in &nodes[1..] {
            sim.install(*node, Responder);
        }
        let o = run_scan(&mut sim, nodes[0], ScanConfig::new(ips));
        assert_eq!(o.answered_count(), 10, "one answer per probe, no more");
        assert!(o.late_answers_discarded > 0, "clones were deduplicated");
        assert_eq!(o.unmatched_responses, 0);
    }

    #[test]
    fn target_keyed_tuples_are_order_invariant_and_unique() {
        let targets: Vec<Ipv4Addr> = (0..2000u32)
            .map(|i| Ipv4Addr::from(0xCB00_0000 + i))
            .collect();
        let forward = ScanConfig::new(targets.clone()).with_target_keyed_tuples();
        let mut reversed_targets = targets.clone();
        reversed_targets.reverse();
        let reversed = ScanConfig::new(reversed_targets).with_target_keyed_tuples();
        let mut seen = std::collections::HashSet::new();
        for (i, t) in targets.iter().enumerate() {
            let tuple = forward.tuple_for(i, *t);
            assert!(seen.insert(tuple), "tuple collision at {t}");
            // The tuple depends only on the target: probing the same
            // address at a different index (any order, any partition)
            // yields the same flow identity.
            assert_eq!(tuple, reversed.tuple_for(targets.len() - 1 - i, *t));
        }
    }

    #[test]
    fn target_keyed_retries_answer_and_correlate() {
        // End-to-end under the target-keyed scheme: lossy world, retries
        // enabled — the answer path's map-based inverse must stop
        // retransmissions just like the arithmetic one.
        let ips: Vec<Ipv4Addr> = (1..=30).map(|i| Ipv4Addr::new(203, 0, 113, i)).collect();
        let mut all = vec![Ipv4Addr::new(192, 0, 2, 1)];
        all.extend(&ips);
        let (topo, nodes) = playground(&all);
        let mut sim = Simulator::new(
            topo,
            SimConfig {
                faults: netsim::FaultPlan::lossy(0.3).salted(19),
                ..SimConfig::default()
            },
        );
        for node in &nodes[1..] {
            sim.install(*node, Responder);
        }
        let cfg = ScanConfig::new(ips.clone())
            .with_target_keyed_tuples()
            .with_retry(RetryPolicy::retries(3));
        let o = run_scan(&mut sim, nodes[0], cfg);
        assert!(o.answered_count() > 0);
        assert!(o.retry.retransmits_sent > 0);
        let histogram_total: u64 = o.retry.answered_on_attempt.iter().sum();
        assert_eq!(histogram_total, o.answered_count() as u64);
        for t in o.transactions.iter().filter(|t| t.response.is_some()) {
            // Correlation matched the probe's own tuple, i.e. the response
            // really belongs to this target.
            let ip = u32::from(t.probe.target);
            assert_eq!(t.probe.txid, (ip >> 16) as u16);
        }
    }

    #[test]
    fn query_encoding_uses_target_names() {
        let ips = vec![Ipv4Addr::new(203, 0, 113, 7)];
        let mut all = vec![Ipv4Addr::new(192, 0, 2, 1)];
        all.extend(&ips);
        let (topo, nodes) = playground(&all);
        let mut sim = Simulator::new(topo, SimConfig::default());
        sim.tap(nodes[0]);
        let mut cfg = ScanConfig::new(ips);
        cfg.naming = ProbeNaming::EncodeTarget;
        let _ = run_scan(&mut sim, nodes[0], cfg);
        let pcap = sim.take_capture(nodes[0]).unwrap();
        let recs = netsim::pcap::read_pcap(&pcap).unwrap();
        assert_eq!(recs.len(), 1);
        match netsim::wire::decode(&recs[0].data).unwrap() {
            netsim::wire::DecodedPacket::Udp(d) => {
                let m = dnswire::Message::decode(&d.payload).unwrap();
                assert_eq!(
                    m.questions[0].qname.to_string(),
                    "203-0-113-7.scan.odns-study.example."
                );
            }
            other => panic!("expected UDP, got {other:?}"),
        }
    }
}
