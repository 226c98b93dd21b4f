//! Probe and transaction records — the scanner's raw material.
//!
//! The paper's method (§4.1) records the *complete DNS transaction*:
//! source/destination addresses, client port, and DNS header ID at send
//! time, then correlates responses offline. These types are that record.

use dnswire::Message;
use netsim::{Payload, SimTime};
use std::net::Ipv4Addr;

/// One probe as sent by the transactional scanner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeRecord {
    /// Index in the target list.
    pub index: usize,
    /// The probed address (`IP_target` of the classification rules).
    pub target: Ipv4Addr,
    /// Send timestamp.
    pub sent_at: SimTime,
    /// Scanner-side source port — unique per in-flight probe.
    pub src_port: u16,
    /// DNS transaction ID — the second half of the unique tuple.
    pub txid: u16,
}

/// One response as received by the scanner (pre-correlation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseRecord {
    /// Arrival timestamp.
    pub received_at: SimTime,
    /// IP source of the response (`IP_response`).
    pub src: Ipv4Addr,
    /// Port it arrived on (matches the probe's `src_port` if genuine).
    pub dst_port: u16,
    /// Raw payload (parsed lazily; middlebox distortions must survive).
    /// Shares the delivered datagram's bytes — recording a response does
    /// not copy it, which matters when record streams are the bulk of a
    /// shard's memory.
    pub payload: Payload,
}

impl ResponseRecord {
    /// Decode the DNS payload, if well-formed.
    pub fn message(&self) -> Option<Message> {
        Message::decode(&self.payload).ok()
    }
}

/// A correlated transaction: a probe and the response matched to it by
/// `(port, txid)` within the timeout window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transaction {
    /// The probe.
    pub probe: ProbeRecord,
    /// The matched response, if any arrived in time.
    pub response: Option<ResponseRecord>,
}

impl Transaction {
    /// `IP_response`, if answered.
    pub fn response_src(&self) -> Option<Ipv4Addr> {
        self.response.as_ref().map(|r| r.src)
    }

    /// Round-trip time, if answered.
    pub fn rtt(&self) -> Option<netsim::SimDuration> {
        self.response
            .as_ref()
            .map(|r| r.received_at - self.probe.sent_at)
    }
}

/// Retransmission accounting from a scan run under a
/// [`netsim::RetryPolicy`]. All zeros for single-shot scans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Retransmissions the scanner put on the wire (transmissions beyond
    /// each probe's first).
    pub retransmits_sent: u64,
    /// `answered_on_attempt[k]` = probes whose first answer arrived after
    /// `k + 1` transmissions. Attempts beyond the histogram's width land
    /// in the last bucket.
    pub answered_on_attempt: [u64; RetryStats::MAX_TRACKED_ATTEMPTS],
}

impl RetryStats {
    /// Histogram width: attempts 1..=8 tracked individually.
    pub const MAX_TRACKED_ATTEMPTS: usize = 8;

    /// Record a probe first answered after `attempts` transmissions.
    pub fn record_answered(&mut self, attempts: u8) {
        let slot = usize::from(attempts.max(1) - 1).min(Self::MAX_TRACKED_ATTEMPTS - 1);
        self.answered_on_attempt[slot] += 1;
    }

    /// Probes answered only thanks to a retransmission (attempt ≥ 2).
    pub fn answered_by_retry(&self) -> u64 {
        self.answered_on_attempt[1..].iter().sum()
    }
}

/// Outcome of a whole scan run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanOutcome {
    /// All correlated transactions, in probe order.
    pub transactions: Vec<Transaction>,
    /// Responses that matched no outstanding probe (unsolicited or
    /// garbage).
    pub unmatched_responses: usize,
    /// Responses that arrived after the per-probe timeout.
    pub late_responses: usize,
    /// Responses for an already-answered `(port, txid)` tuple — answers
    /// from superseded retransmission attempts (or wire duplicates),
    /// deduplicated away by the correlator.
    pub late_answers_discarded: usize,
    /// Retransmission accounting (zeros for single-shot scans).
    pub retry: RetryStats,
}

impl ScanOutcome {
    /// Transactions that received a response.
    pub fn answered(&self) -> impl Iterator<Item = &Transaction> {
        self.transactions.iter().filter(|t| t.response.is_some())
    }

    /// Number of answered probes.
    pub fn answered_count(&self) -> usize {
        self.answered().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswire::{DnsName, MessageBuilder, RrType};
    use netsim::SimDuration;

    fn probe(i: usize) -> ProbeRecord {
        ProbeRecord {
            index: i,
            target: Ipv4Addr::new(203, 0, 113, i as u8),
            sent_at: SimTime(1_000),
            src_port: 34000,
            txid: i as u16,
        }
    }

    #[test]
    fn transaction_accessors() {
        let qname = DnsName::parse("odns-study.example.").unwrap();
        let resp = MessageBuilder::query(0, qname.clone(), RrType::A)
            .build()
            .response_skeleton();
        let resp = {
            let mut m = resp;
            m.answers
                .push(dnswire::Record::a(qname, 300, Ipv4Addr::new(8, 8, 8, 8)));
            m
        };
        let t = Transaction {
            probe: probe(0),
            response: Some(ResponseRecord {
                received_at: SimTime(41_000),
                src: Ipv4Addr::new(8, 8, 8, 8),
                dst_port: 34000,
                payload: resp.encode().into(),
            }),
        };
        assert_eq!(t.response_src(), Some(Ipv4Addr::new(8, 8, 8, 8)));
        assert_eq!(t.rtt(), Some(SimDuration::from_micros(40_000)));
        let answer = t
            .response
            .as_ref()
            .and_then(ResponseRecord::message)
            .unwrap();
        assert_eq!(answer.answer_a_addrs(), vec![Ipv4Addr::new(8, 8, 8, 8)]);
    }

    #[test]
    fn unanswered_transaction() {
        let t = Transaction {
            probe: probe(1),
            response: None,
        };
        assert_eq!(t.response_src(), None);
        assert_eq!(t.rtt(), None);
    }

    #[test]
    fn malformed_payload_yields_no_addrs() {
        let t = Transaction {
            probe: probe(2),
            response: Some(ResponseRecord {
                received_at: SimTime(2_000),
                src: Ipv4Addr::new(1, 1, 1, 1),
                dst_port: 34000,
                payload: vec![0xDE, 0xAD].into(),
            }),
        };
        assert!(t.response.as_ref().unwrap().message().is_none());
    }

    #[test]
    fn outcome_counting() {
        let mut o = ScanOutcome::default();
        o.transactions.push(Transaction {
            probe: probe(0),
            response: None,
        });
        o.transactions.push(Transaction {
            probe: probe(1),
            response: Some(ResponseRecord {
                received_at: SimTime(5),
                src: Ipv4Addr::new(9, 9, 9, 9),
                dst_port: 1,
                payload: vec![].into(),
            }),
        });
        assert_eq!(o.answered_count(), 1);
    }

    #[test]
    fn retry_stats_histogram() {
        let mut a = RetryStats::default();
        a.record_answered(1);
        a.record_answered(2);
        a.record_answered(2);
        a.record_answered(200); // clamps into the last bucket
        assert_eq!(a.answered_on_attempt[0], 1);
        assert_eq!(a.answered_on_attempt[1], 2);
        assert_eq!(
            a.answered_on_attempt[RetryStats::MAX_TRACKED_ATTEMPTS - 1],
            1
        );
        assert_eq!(a.answered_by_retry(), 3);
    }
}
