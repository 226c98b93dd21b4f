//! Memoized query decode — the steady-state fast path of a census.
//!
//! The transactional scanner's static-naming probes are byte-identical
//! except for the two transaction-ID bytes, and a planted forwarder or
//! resolver sees millions of them. Fully decoding each one (per-label
//! `Vec` allocations in the name parser) is the dominant host-side
//! allocation of a sweep. A [`QueryMemo`] remembers the bytes and the
//! parsed question of one plain `IN` query; any later payload that memcmps
//! equal past the transaction ID *is* that query modulo txid, so its
//! question — for the cached answer, or on a miss for the host to resolve
//! or forward — is read from the memo, not from the bytes.
//!
//! The memo is strictly an accelerator: [`crate::ServeCache`], its one
//! holder along with the [`HotWire`], sets it only from a query
//! [`dnswire::view_query`] read, so a match also has its question bytes
//! right behind the header; any other payload is read as if there were no
//! memo.
//!
//! The name servers above the resolvers see the same thing one layer up:
//! every resolver walking down to the study name asks the root, the TLD and
//! the study server one question, in bytes equal past the transaction ID.
//! A `ReplyMemo` keeps such a server's last reply and sends it again for
//! the next equal query, patched, instead of decoding, building and
//! encoding the same answer once per resolver.

use dnswire::{DnsName, Message, RrType};
use netsim::{Payload, SimTime};
use std::net::Ipv4Addr;
use std::sync::Arc;

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

    /// Memoize `payload`, a datagram [`dnswire::view_query`] read as a
    /// plain `IN` query for `qname`/`qtype` with RD flag `rd`. The datagram
    /// is kept, not copied.
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

/// The positive wire answers served to the memo's question in one
/// TTL window, one per transaction ID, replayable while their bytes stay
/// exact: the same txid and an unchanged decayed TTL (TTLs decay per whole
/// elapsed second). A census probe's txid is its target's /16 and a
/// resolver serves forwarders in a few /16s, so a handful of answers
/// serves the window as payload refcount bumps — no name hash, no
/// re-encode, no allocation.
///
/// Only valid behind a [`QueryMemo`] byte match (which pins question and
/// flags), and never across a change of the owning cache (insert or
/// eviction). [`crate::ServeCache`] is the one holder and enforces both.
#[derive(Debug, Clone)]
pub struct HotWire {
    valid_before: SimTime,
    /// `(txid, answer)`, at most [`HotWire::MAX_ANSWERS`] of them.
    answers: Vec<(u16, Payload)>,
}

impl HotWire {
    /// Answers kept per window, searched linearly; a txid past them is
    /// served from the cache. No `census_warm_dud` resolver reaches 64 in a
    /// window, while a cap of 16 cost that workload 133 more materialized
    /// answers per rep.
    const MAX_ANSWERS: usize = 64;

    /// Remember an answer just served for `txid`, byte-valid strictly
    /// before `valid_before` (the instant its embedded TTL next decays).
    pub fn new(txid: u16, valid_before: SimTime, payload: Payload) -> Self {
        HotWire {
            valid_before,
            answers: vec![(txid, payload)],
        }
    }

    /// Remember another answer, as [`HotWire::new`] does: one from a later
    /// window replaces the answers held.
    pub(crate) fn remember(&mut self, txid: u16, valid_before: SimTime, payload: Payload) {
        if valid_before != self.valid_before {
            self.valid_before = valid_before;
            self.answers.clear();
        }
        if self.answers.len() < Self::MAX_ANSWERS {
            self.answers.push((txid, payload));
        }
    }

    /// Replay the answer for a memo-matched query with `txid` at `now`,
    /// if one is held and its bytes are still exact.
    pub fn serve(&self, txid: u16, now: SimTime) -> Option<Payload> {
        if now >= self.valid_before {
            return None;
        }
        self.answers
            .iter()
            .find(|(held, _)| *held == txid)
            .map(|(_, payload)| payload.clone())
    }
}

/// A name server's last reply, replayable for any query equal past the
/// transaction ID to the one it answered ([`QueryMemo::txid_of_match`]).
///
/// Sound only for a server whose reply is a function of the query's bytes
/// and the client's address alone: the replay patches in the new query's
/// transaction ID and, where the reply reflects the client (the study
/// server's dynamic record), the new client's address. A server that
/// changes what it answers drops its memo.
#[derive(Debug)]
pub(crate) struct ReplyMemo {
    query: QueryMemo,
    reply: Payload,
    /// Where `reply` holds the address of the client it was sent to.
    client_at: Option<usize>,
}

impl ReplyMemo {
    /// Remember `reply`, just built for the decoded `query` that arrived as
    /// `payload`, if the query is memoizable ([`QueryMemo::remember`]).
    /// `client_at` is where `reply` carries the client's address, if it
    /// does.
    pub(crate) fn remember(
        payload: &[u8],
        query: &Message,
        reply: &Payload,
        client_at: Option<usize>,
    ) -> Option<ReplyMemo> {
        Some(ReplyMemo {
            query: QueryMemo::remember(payload, query)?,
            reply: reply.clone(),
            client_at,
        })
    }

    /// The reply to `payload` from `client`, if `payload` is the memoized
    /// query under any transaction ID: the remembered bytes with ID and
    /// client address patched, in one allocation.
    pub(crate) fn replay(&self, payload: &[u8], client: Ipv4Addr) -> Option<Payload> {
        let txid = self.query.txid_of_match(payload)?;
        let mut bytes: Arc<[u8]> = Arc::from(&self.reply[..]);
        let fresh = Arc::get_mut(&mut bytes).expect("a new Arc is unique");
        fresh[..2].copy_from_slice(&txid.to_be_bytes());
        if let Some(at) = self.client_at {
            fresh[at..at + 4].copy_from_slice(&client.octets());
        }
        Some(bytes.into())
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
    fn hot_wire_holds_one_answer_per_txid_for_one_window() {
        let answer = |txid: u16| Payload::with_dns_id(&[0, 0, 0x81, 0x80], txid);
        let (window, next) = (SimTime(1_000_000), SimTime(2_000_000));
        let mut hot = HotWire::new(7, window, answer(7));
        hot.remember(9, window, answer(9));
        let held = hot.serve(9, SimTime(0)).expect("second txid held");
        assert_eq!(held, answer(9));
        assert_eq!(hot.serve(9, SimTime(1)).unwrap().as_ptr(), held.as_ptr());
        assert_eq!(hot.serve(7, SimTime(0)), Some(answer(7)));
        assert_eq!(hot.serve(8, SimTime(0)), None, "never served");
        assert_eq!(hot.serve(7, window), None, "TTL decayed");
        // The next window's first answer drops the others.
        hot.remember(8, next, answer(8));
        assert_eq!(hot.serve(8, window), Some(answer(8)));
        assert_eq!(hot.serve(7, window), None);
        for txid in 100..200 {
            hot.remember(txid, next, answer(txid));
        }
        assert_eq!(hot.answers.len(), HotWire::MAX_ANSWERS);
    }

    #[test]
    fn responses_do_not_memoize() {
        let (_, msg) = query(1, "odns-study.example.");
        let resp = msg.response_skeleton();
        assert!(QueryMemo::remember(&resp.encode(), &resp).is_none());
    }

    #[test]
    fn a_replay_patches_txid_and_client_only() {
        let (bytes, msg) = query(7, "odns-study.example.");
        let client = |last| Ipv4Addr::new(203, 0, 113, last);
        let answer = |txid, last| {
            let mut q = msg.clone();
            q.header.id = txid;
            MessageBuilder::response_to(&q)
                .answer_a(msg.questions[0].qname.clone(), 300, client(last))
                .build()
                .encode()
        };
        let reply: Payload = answer(7, 1).into();
        let at = reply.len() - 4;
        let memo = ReplyMemo::remember(&bytes, &msg, &reply, Some(at)).unwrap();
        let (again, _) = query(0xBEEF, "odns-study.example.");
        let replayed = memo.replay(&again, client(99)).unwrap();
        assert_eq!(&replayed[..], &answer(0xBEEF, 99)[..]);
        let (other, _) = query(7, "other.example.");
        assert!(memo.replay(&other, client(1)).is_none());
        // Without a client offset the bytes are the reply's, bar the ID.
        let memo = ReplyMemo::remember(&bytes, &msg, &reply, None).unwrap();
        let replayed = memo.replay(&again, client(99)).unwrap();
        assert_eq!(&replayed[..], &answer(0xBEEF, 1)[..]);
    }
}
