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
use netsim::{
    Ctx, Datagram, Host, HostEntry, IntMap, NodeId, RetryPolicy, SimDuration, Simulator,
    TimerOutcome, UdpSend,
};
use odns::study;
use std::net::Ipv4Addr;

/// First source port: a probe leaves from `BASE_PORT` plus its target's low
/// 16 bits and carries the target's high 16 bits as its txid, so the
/// `(port, txid)` tuple is unique per target and the same whichever shard,
/// shuffle position or attempt sends it.
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

/// Scanner configuration.
#[derive(Debug, Clone)]
pub struct ScanConfig {
    /// Addresses to probe, in order. They must be distinct: a probe's
    /// tuple is a function of its target ([`ScanConfig::probe_tuple`]), so
    /// a repeated address would share its first probe's tuple.
    pub targets: Vec<Ipv4Addr>,
    /// Name construction method.
    pub naming: ProbeNaming,
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

    /// Defaults matching the paper: static naming, single-shot probes
    /// 50 µs apart. Every scan correlates within
    /// [`ScanConfig::DEFAULT_TIMEOUT`].
    pub fn new(targets: Vec<Ipv4Addr>) -> Self {
        ScanConfig {
            targets,
            naming: ProbeNaming::Static,
            inter_probe_gap: SimDuration::from_micros(50),
            retry: RetryPolicy::none(),
        }
    }

    /// Returns the config unchanged: every scan's tuples are target-keyed
    /// ([`ScanConfig::probe_tuple`]). Kept only because the repo benchmark
    /// (`benchmark/src/workloads.rs`) calls it; ROADMAP item 6's benchmark
    /// revision deletes it.
    pub fn with_target_keyed_tuples(self) -> Self {
        self
    }

    /// Enable retransmissions.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The `(src_port, txid)` tuple of the probe to `target`: port =
    /// `BASE_PORT` + the address's low 16 bits, txid = its high 16 bits.
    /// Unique because targets are, and a function of the address alone —
    /// a probe's flow identity is the same at every shard count and probe
    /// order, which is what lets the fault plane's flow-keyed verdicts
    /// commute with sharding.
    pub fn probe_tuple(target: Ipv4Addr) -> (u16, u16) {
        let ip = u32::from(target);
        let port = BASE_PORT.wrapping_add((ip & 0xFFFF) as u16);
        let txid = (ip >> 16) as u16;
        (port, txid)
    }
}

/// The scanner host. Paced (and, under a [`RetryPolicy`], retransmitted)
/// by a `pacer::Pacer`; all analysis is post-processing over the recorded
/// probes and responses.
#[derive(Debug)]
pub(crate) struct TransactionalScanner {
    config: ScanConfig,
    pacer: Pacer,
    /// Pre-encoded probe query for static naming: every probe differs only
    /// in its transaction ID, so the hot send path shares one patched
    /// buffer per txid instead of building and encoding a fresh message
    /// (name parse, builder, compression walk) per target. Points at the
    /// process-wide template — scanners don't even pay the encode.
    probe_template: Option<&'static [u8]>,
    /// The shared payload of every txid sent so far: the send path is one
    /// `Arc` bump per transmission and one 2-byte patch per txid — zero
    /// per-probe payload allocation, retransmissions included.
    payloads: TxidPayloads,
    /// Outgoing probe records.
    pub probes: Vec<ProbeRecord>,
    /// Raw response records in arrival order.
    pub responses: Vec<ResponseRecord>,
    /// `(port, txid) → probe index`, the inverse the answer path needs to
    /// stop a probe's retransmissions. Empty unless retries are enabled.
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
        let tuple_index = if config.retry.enabled() {
            config
                .targets
                .iter()
                .enumerate()
                .map(|(i, t)| (ScanConfig::probe_tuple(*t), i))
                .collect()
        } else {
            IntMap::default()
        };
        TransactionalScanner {
            config,
            pacer,
            probe_template,
            payloads: TxidPayloads::default(),
            probes,
            responses: Vec::new(),
            tuple_index,
            retry_stats: RetryStats::default(),
        }
    }

    /// The wire payload of probe `index` — the txid's shared buffer under
    /// static naming, a fresh encode under query encoding. Used by both
    /// the original send and every retransmission, so a retransmitted
    /// probe is byte-identical to its original.
    fn probe_payload(&mut self, target: Ipv4Addr, txid: u16) -> netsim::Payload {
        if let Some(template) = self.probe_template {
            self.payloads.get(txid, template)
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
        let (port, txid) = ScanConfig::probe_tuple(target);
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

    /// Mark the probe a response maps to (through the prebuilt tuple map)
    /// as answered, stopping further retransmissions and recording the
    /// attempt histogram. Only the *first* response counts; anything later
    /// is the correlator's business.
    fn note_answer(&mut self, ctx: &mut Ctx<'_>, dst_port: u16, payload: &netsim::Payload) {
        let Some(txid) = dnswire::peek_id(payload) else {
            return;
        };
        let Some(&index) = self.tuple_index.get(&(dst_port, txid)) else {
            return;
        };
        if let Some(attempts) = self.pacer.answered(ctx, index) {
            self.retry_stats.record_answered(attempts);
        }
    }
}

/// One static-naming probe payload per txid, each patched from the
/// template once and kept for the whole scan. A txid is its target's /16,
/// which a shuffled target list revisits out of order, and a
/// retransmission comes back to its original's.
#[derive(Debug, Default)]
struct TxidPayloads(IntMap<u16, netsim::Payload>);

impl TxidPayloads {
    /// The payload for `txid`, patched from `template` on first use.
    fn get(&mut self, txid: u16, template: &'static [u8]) -> netsim::Payload {
        self.0
            .entry(txid)
            .or_insert_with(|| netsim::Payload::with_dns_id(template, txid))
            .clone()
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

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) -> TimerOutcome {
        let Some(due) = self.pacer.due(token) else {
            return TimerOutcome::Stale;
        };
        self.transmit(ctx, due);
        self.pacer.sent(ctx, due);
        TimerOutcome::Acted
    }
}

/// The offline correlation pass over recorded probe/response streams —
/// the paper's post-processing, as a pure function: the live scanner, every
/// shard's in-worker census pass and pcap ingestion all run this one
/// implementation of the matching semantics.
///
/// Matching is by `(dst_port, txid)`, and a tuple two probes share
/// resolves to the later probe; the first response inside the timeout
/// window wins, later matches count as duplicates, and responses past the
/// window count as late. Takes ownership: probes and matched response
/// payloads move into the resulting transactions with no copying — record
/// streams are the bulk of a census's memory.
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

    let received = responses.len();
    let (transactions, settled) = if probes.len() <= LINEAR_SCAN_MAX {
        settle_linear(probes, responses, timeout)
    } else {
        settle_indexed(probes, responses, timeout)
    };
    ScanOutcome {
        transactions,
        unmatched_responses: received - settled.late - settled.superseded - settled.matched,
        late_responses: settled.late,
        late_answers_discarded: settled.superseded,
        retry: RetryStats::default(),
    }
}

/// How the responses that found a probe were settled; every other
/// response is unmatched.
#[derive(Default)]
struct Settled {
    /// Past the timeout window.
    late: usize,
    /// A second in-window answer for an already-answered tuple: a wire
    /// duplicate, or the answer to a superseded retransmission attempt.
    /// Deduplicated — the first response stands.
    superseded: usize,
    /// Moved into their probe's transaction.
    matched: usize,
}

impl Settled {
    /// Settle `response`, matched to `t`, moving it in if it answers.
    fn settle(
        &mut self,
        t: &mut Transaction,
        response: &mut Option<ResponseRecord>,
        timeout: SimDuration,
    ) {
        let Some(r) = response else { return };
        if r.received_at - t.probe.sent_at > timeout {
            self.late += 1;
        } else if t.response.is_some() {
            self.superseded += 1;
        } else {
            t.response = response.take();
            self.matched += 1;
        }
    }
}

/// One transaction per probe, none answered yet.
fn unanswered(probes: Vec<ProbeRecord>) -> Vec<Transaction> {
    probes
        .into_iter()
        .map(|p| Transaction {
            probe: p,
            response: None,
        })
        .collect()
}

/// Match each response, in arrival order, by walking the probe list from
/// its end.
fn settle_linear(
    probes: Vec<ProbeRecord>,
    responses: Vec<ResponseRecord>,
    timeout: SimDuration,
) -> (Vec<Transaction>, Settled) {
    let mut transactions = unanswered(probes);
    let mut settled = Settled::default();
    for r in responses {
        let Some(txid) = dnswire::peek_id(&r.payload) else {
            continue;
        };
        let found = transactions
            .iter_mut()
            .rfind(|t| t.probe.src_port == r.dst_port && t.probe.txid == txid);
        if let Some(t) = found {
            settled.settle(t, &mut Some(r), timeout);
        }
    }
    (transactions, settled)
}

/// Match by indexing the responses, not the probes: a census hears back
/// from a fraction of its targets, so the index holds only the tuples that
/// were answered, and a probe whose port no response arrived on skips it.
fn settle_indexed(
    probes: Vec<ProbeRecord>,
    responses: Vec<ResponseRecord>,
    timeout: SimDuration,
) -> (Vec<Transaction>, Settled) {
    const NONE: u32 = u32::MAX;
    assert!(
        responses.len() < NONE as usize,
        "response indices fit a u32"
    );
    // One bit per port some response arrived on.
    let mut heard = vec![0u64; 1 << 10];
    // `(port, txid) → (first, last)` response; a tuple's responses are
    // chained through `next` in arrival order. These tables are allocated
    // before the transactions, which outlive them: allocated after, they
    // left a census rep's heap trimmed and its big buffers re-faulted on
    // every rep (`census_warm_dud`).
    let mut chains: IntMap<(u16, u16), (u32, u32)> = IntMap::default();
    chains.reserve(responses.len());
    let mut next = vec![NONE; responses.len()];
    for (i, r) in (0..).zip(&responses) {
        let Some(txid) = dnswire::peek_id(&r.payload) else {
            continue;
        };
        heard[usize::from(r.dst_port >> 6)] |= 1 << (r.dst_port & 63);
        chains
            .entry((r.dst_port, txid))
            .and_modify(|(_, last)| {
                next[*last as usize] = i;
                *last = i;
            })
            .or_insert((i, i));
    }
    let mut responses: Vec<Option<ResponseRecord>> = responses.into_iter().map(Some).collect();
    let mut transactions = unanswered(probes);
    let mut settled = Settled::default();
    // Last probe first: the first to meet a tuple takes its whole chain,
    // so a tuple two probes share resolves to the later one.
    for t in transactions.iter_mut().rev() {
        let port = t.probe.src_port;
        if heard[usize::from(port >> 6)] & (1 << (port & 63)) == 0 {
            continue;
        }
        let Some((first, _)) = chains.get_mut(&(port, t.probe.txid)) else {
            continue;
        };
        let mut at = std::mem::replace(first, NONE);
        while at != NONE {
            settled.settle(t, &mut responses[at as usize], timeout);
            at = next[at as usize];
        }
    }
    (transactions, settled)
}

/// Install a scanner at `node`, run the whole scan to quiescence, and
/// return the correlated outcome. Convenience wrapper used by benches,
/// examples, and the census pipeline.
pub fn run_scan<H: HostEntry>(
    sim: &mut Simulator<H>,
    node: NodeId,
    config: ScanConfig,
) -> ScanOutcome {
    let (probes, responses, retry) = run_scan_raw(sim, node, config);
    let mut outcome = correlate_owned(probes, responses, ScanConfig::DEFAULT_TIMEOUT);
    outcome.retry = retry;
    outcome
}

/// Run the scan like [`run_scan`] but return the *raw* probe/response
/// streams (plus retransmission counters) instead of correlating — for
/// callers that time or inspect the streams before handing them to
/// [`correlate_owned`].
pub fn run_scan_raw<H: HostEntry>(
    sim: &mut Simulator<H>,
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
    use netsim::SimTime;

    #[test]
    fn each_txid_is_patched_once_and_shared() {
        let template = study::probe_template();
        let mut payloads = TxidPayloads::default();
        let first = payloads.get(7, template);
        let second = payloads.get(9, template);
        for (txid, held) in [(7, &first), (9, &second), (7, &first)] {
            let again = payloads.get(txid, template);
            assert_eq!(again.as_ptr(), held.as_ptr(), "txid {txid} re-patched");
            assert_eq!(again, netsim::Payload::with_dns_id(template, txid));
        }
    }

    #[test]
    fn scanner_paces_probes() {
        let ips: Vec<Ipv4Addr> = (1..=5).map(|i| Ipv4Addr::new(203, 0, 113, i)).collect();
        let mut all = vec![Ipv4Addr::new(192, 0, 2, 1)];
        all.extend(&ips);
        let (topo, nodes) = playground(&all);
        let mut sim = Simulator::new(topo);
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
            assert_eq!(w[1] - w[0], SimDuration::from_millis(10));
        }
    }

    /// The probe record of the `index`-th probe, sent at time zero.
    fn probe(index: usize, target: Ipv4Addr) -> ProbeRecord {
        let (src_port, txid) = ScanConfig::probe_tuple(target);
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
        let (port1, txid1) = ScanConfig::probe_tuple(Ipv4Addr::new(203, 0, 113, 2));
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
        let (port, txid) = ScanConfig::probe_tuple(Ipv4Addr::new(203, 0, 113, 1));
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
        let (port, txid) = ScanConfig::probe_tuple(Ipv4Addr::new(203, 0, 113, 1));
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
        let mut sim = Simulator::new(topo);
        sim.set_faults(netsim::FaultPlan::lossy(loss).salted(seed));
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
            retried.retry.answered_on_attempt[1..].iter().sum::<u64>() > 0,
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
        assert!(o.retry.answered_on_attempt[1..].iter().all(|&n| n == 0));
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
        let faults = netsim::FaultPlan {
            base: netsim::FaultConfig {
                duplicate_probability: 1.0,
                ..netsim::FaultConfig::none()
            },
            ..netsim::FaultPlan::none()
        };
        let mut sim = Simulator::new(topo);
        sim.set_faults(faults.salted(3));
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
            .map(|i| Ipv4Addr::from(0xCB00_0000 + i * 97))
            .collect();
        // Scan the same targets forward and reversed: each address must
        // leave with the same tuple at either index (any order, any
        // partition), and no two addresses may share one.
        let tuples = |targets: Vec<Ipv4Addr>| {
            let mut all = vec![Ipv4Addr::new(192, 0, 2, 1)];
            all.extend(&targets);
            let (topo, nodes) = playground(&all);
            let mut sim = Simulator::new(topo);
            let (probes, _, _) = run_scan_raw(&mut sim, nodes[0], ScanConfig::new(targets));
            probes
                .into_iter()
                .map(|p| (p.target, (p.src_port, p.txid)))
                .collect::<std::collections::BTreeMap<_, _>>()
        };
        let forward = tuples(targets.clone());
        assert_eq!(forward, tuples(targets.iter().rev().copied().collect()));
        let distinct: std::collections::BTreeSet<_> = forward.values().collect();
        assert_eq!(distinct.len(), targets.len(), "tuple collision");
    }

    #[test]
    fn target_keyed_retries_answer_and_correlate() {
        // End-to-end: lossy world, retries enabled — the answer path's
        // map-based inverse must stop retransmissions.
        let ips: Vec<Ipv4Addr> = (1..=30).map(|i| Ipv4Addr::new(203, 0, 113, i)).collect();
        let mut all = vec![Ipv4Addr::new(192, 0, 2, 1)];
        all.extend(&ips);
        let (topo, nodes) = playground(&all);
        let mut sim = Simulator::new(topo);
        sim.set_faults(netsim::FaultPlan::lossy(0.3).salted(19));
        for node in &nodes[1..] {
            sim.install(*node, Responder);
        }
        let cfg = ScanConfig::new(ips.clone()).with_retry(RetryPolicy::retries(3));
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
        let mut sim = Simulator::new(topo);
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

    /// `correlate_owned` as it was before it indexed responses: every probe
    /// tuple indexed, responses matched in arrival order.
    fn reference_correlate(
        probes: Vec<ProbeRecord>,
        responses: Vec<ResponseRecord>,
        timeout: SimDuration,
    ) -> ScanOutcome {
        const LINEAR_SCAN_MAX: usize = 32;

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

    /// Probe and response streams drawn from `seed`: `tuples` distinct
    /// `(port, txid)` pairs shared by `n_probes` probes (so tuples repeat),
    /// and `n_responses` responses that answer a probe (in time or late),
    /// repeat an earlier response, name a tuple no probe holds, or carry
    /// fewer than the two bytes of a DNS ID.
    fn drawn_streams(
        n_probes: usize,
        n_responses: usize,
        tuples: u16,
        seed: u64,
    ) -> (Vec<ProbeRecord>, Vec<ResponseRecord>) {
        let mut state = seed;
        let mut draw = |bound: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        };
        let tuple = |k: u64| (BASE_PORT + k as u16, (k as u16).wrapping_mul(7919));
        let probes: Vec<ProbeRecord> = (0..n_probes)
            .map(|i| {
                let (src_port, txid) = tuple(draw(u64::from(tuples)));
                ProbeRecord {
                    index: i,
                    target: Ipv4Addr::from(i as u32),
                    sent_at: SimTime(draw(1_000)),
                    src_port,
                    txid,
                }
            })
            .collect();
        let mut responses: Vec<ResponseRecord> = Vec::new();
        for i in 0..n_responses {
            let (dst_port, txid) = match draw(8) {
                0 if i > 0 => {
                    let again = responses[draw(i as u64) as usize].clone();
                    responses.push(again);
                    continue;
                }
                1 => tuple(u64::from(tuples) + draw(4)),
                _ if !probes.is_empty() => {
                    let p = &probes[draw(probes.len() as u64) as usize];
                    (p.src_port, p.txid)
                }
                _ => tuple(draw(u64::from(tuples))),
            };
            let mut payload = txid.to_be_bytes().to_vec();
            payload.extend([0xAB; 10]);
            payload.truncate(match draw(10) {
                0 => 0,
                1 => 1,
                _ => payload.len(),
            });
            responses.push(ResponseRecord {
                received_at: SimTime(draw(1_400)),
                src: Ipv4Addr::new(198, 51, 100, i as u8),
                dst_port,
                payload: payload.into(),
            });
        }
        (probes, responses)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn correlation_equals_the_probe_indexed_reference(
            n_probes in 0usize..80,
            n_responses in 0usize..120,
            tuples in 1u16..48,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let (probes, responses) = drawn_streams(n_probes, n_responses, tuples, seed);
            let timeout = SimDuration(300);
            let reference = reference_correlate(probes.clone(), responses.clone(), timeout);
            let outcome = correlate_owned(probes, responses, timeout);
            proptest::prop_assert_eq!(outcome, reference);
        }
    }
}
