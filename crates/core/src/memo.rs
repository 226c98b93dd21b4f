//! Memoized query decode — the steady-state fast path of a census.
//!
//! The transactional scanner's static-naming probes are byte-identical
//! except for the two transaction-ID bytes, and a planted forwarder or
//! resolver sees millions of them. Fully decoding each one (per-label
//! `Vec` allocations in the name parser) is the dominant host-side
//! allocation of a sweep. A [`QueryMemo`] remembers the bytes and the
//! parsed question of one plain `IN` query; any later payload that memcmps
//! equal past the transaction ID *is* that query modulo txid, so the host
//! can skip the decode and serve a cached wire answer directly.
//!
//! The memo is strictly an accelerator: a non-matching payload, an
//! ACL-refused client, a negative cache entry, or a cache miss all fall
//! back to the ordinary decode path, which owns those responses. Both
//! types here are held only by [`crate::ServeCache`].

use dnswire::{DnsName, Message, RrType};
use netsim::{Payload, SimTime};

/// A remembered plain `IN` query: the datagram it arrived in (compared
/// from the byte after the transaction ID on) plus the question fields a
/// cached-wire answer needs.
#[derive(Debug, Clone)]
pub struct QueryMemo {
    /// At least a header long.
    query: Payload,
    qname: DnsName,
    qtype: RrType,
    rd: bool,
}

impl QueryMemo {
    /// Memoize a decoded query, if it is eligible: a plain `IN` query
    /// (single question, opcode QUERY, not a response) with a wire
    /// payload long enough to carry a header.
    pub fn remember(payload: &[u8], query: &Message) -> Option<QueryMemo> {
        if payload.len() < 12 || !query.is_plain_in_query() {
            return None;
        }
        let q = query.question()?;
        Some(QueryMemo {
            query: payload.into(),
            qname: q.qname.clone(),
            qtype: q.qtype,
            rd: query.header.flags.recursion_desired,
        })
    }

    /// Memoize `payload`, a datagram the caller already knows to be a
    /// plain `IN` query for `qname`/`qtype` with RD flag `rd` (read off it
    /// by [`dnswire::view_query`], or byte-equal past the transaction ID to
    /// a query that decoded to that). The datagram is kept, not copied.
    pub(crate) fn of_plain(payload: &Payload, qname: &DnsName, qtype: RrType, rd: bool) -> Self {
        QueryMemo {
            query: payload.clone(),
            qname: qname.clone(),
            qtype,
            rd,
        }
    }

    /// If `payload` is byte-identical to the memoized query apart from
    /// its transaction ID, return that ID. Everything the memo stores
    /// (question, flags, response bit) then holds for `payload` too.
    pub fn txid_of_match(&self, payload: &[u8]) -> Option<u16> {
        if payload.len() != self.query.len() || payload[2..] != self.query[2..] {
            return None;
        }
        Some(u16::from_be_bytes([payload[0], payload[1]]))
    }

    /// The memoized question name (clone is an `Arc` bump).
    pub fn qname(&self) -> &DnsName {
        &self.qname
    }

    /// The memoized question type.
    pub fn qtype(&self) -> RrType {
        self.qtype
    }

    /// The memoized recursion-desired flag.
    pub fn rd(&self) -> bool {
        self.rd
    }
}

/// The last positive wire answer served through the memo fast path,
/// replayable while its bytes stay exact: same transaction ID and an
/// unchanged decayed TTL (TTLs decay per whole elapsed second). One
/// entry suffices because a census's probes share a per-block txid, so
/// the steady state serves every answer as a payload refcount bump —
/// no name hash, no re-encode, no allocation.
///
/// Only valid behind a [`QueryMemo`] byte match (which pins question and
/// flags), and never across a change of the owning cache (insert or
/// eviction). [`crate::ServeCache`] is the one holder and enforces both.
#[derive(Debug, Clone)]
pub struct HotWire {
    txid: u16,
    valid_before: SimTime,
    payload: Payload,
}

impl HotWire {
    /// Remember an answer just served for `txid`, byte-valid strictly
    /// before `valid_before` (the instant its embedded TTL next decays).
    pub fn new(txid: u16, valid_before: SimTime, payload: Payload) -> Self {
        HotWire {
            txid,
            valid_before,
            payload,
        }
    }

    /// Replay the answer for a memo-matched query with `txid` at `now`,
    /// if the bytes are still exact.
    pub fn serve(&self, txid: u16, now: SimTime) -> Option<Payload> {
        (txid == self.txid && now < self.valid_before).then(|| self.payload.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswire::MessageBuilder;

    fn query(txid: u16, name: &str) -> (Vec<u8>, Message) {
        let msg = MessageBuilder::query(txid, DnsName::parse(name).unwrap(), RrType::A)
            .recursion_desired(true)
            .build();
        (msg.encode(), msg)
    }

    #[test]
    fn matches_same_query_with_any_txid() {
        let (bytes, msg) = query(7, "odns-study.example.");
        let memo = QueryMemo::remember(&bytes, &msg).expect("plain IN query memoizes");
        assert_eq!(memo.txid_of_match(&bytes), Some(7));
        let (other, _) = query(0xBEEF, "odns-study.example.");
        assert_eq!(memo.txid_of_match(&other), Some(0xBEEF));
        assert_eq!(memo.qname().to_string(), "odns-study.example.");
        assert!(memo.rd());
    }

    #[test]
    fn rejects_different_queries_and_garbage() {
        let (bytes, msg) = query(1, "odns-study.example.");
        let memo = QueryMemo::remember(&bytes, &msg).unwrap();
        let (other_name, _) = query(1, "other.example.");
        assert_eq!(memo.txid_of_match(&other_name), None);
        assert_eq!(memo.txid_of_match(&[0x01]), None);
        let mut flipped = bytes.clone();
        flipped[2] ^= 0x80; // response bit
        assert_eq!(memo.txid_of_match(&flipped), None);
    }

    #[test]
    fn responses_do_not_memoize() {
        let (_, msg) = query(1, "odns-study.example.");
        let resp = msg.response_skeleton();
        assert!(QueryMemo::remember(&resp.encode(), &resp).is_none());
    }
}
