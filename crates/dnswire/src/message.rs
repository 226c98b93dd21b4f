//! Whole-message encode/decode (RFC 1035 §4.1).

use crate::error::WireError;
use crate::header::{Flags, Header, HEADER_LEN};
use crate::name::{DecodedNames, NameOffsets};
use crate::question::Question;
use crate::rdata::Record;
use crate::MAX_MESSAGE_LEN;
use std::net::Ipv4Addr;

/// A complete DNS message: header plus the four sections.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Message {
    /// Header. On encode, the section counts are recomputed from the
    /// actual section lengths, so callers never desynchronize them.
    pub header: Header,
    /// Question section.
    pub questions: Vec<Question>,
    /// Answer section.
    pub answers: Vec<Record>,
    /// Authority section.
    pub authorities: Vec<Record>,
    /// Additional section.
    pub additionals: Vec<Record>,
}

impl Message {
    /// Encode to wire bytes with name compression.
    ///
    /// # Panics
    /// Never panics; sections that cannot be encoded (oversized TXT) are a
    /// programming error surfaced through [`Message::try_encode`]. This
    /// convenience wrapper unwraps because all constructors in this
    /// workspace validate contents on construction.
    pub fn encode(&self) -> Vec<u8> {
        self.try_encode()
            .expect("message built by this workspace must encode")
    }

    /// Encode to wire bytes, reporting errors.
    pub fn try_encode(&self) -> Result<Vec<u8>, WireError> {
        // Section counts are 16-bit on the wire; a longer section must be
        // an error, not an `as u16` truncation that would emit a header
        // announcing 1 record for a 65 537-record body.
        let count = |len: usize, section: &'static str| -> Result<u16, WireError> {
            u16::try_from(len).map_err(|_| WireError::SectionCountOverflow { section, len })
        };
        let mut buf = Vec::with_capacity(self.uncompressed_len().min(MAX_MESSAGE_LEN));
        let mut header = self.header;
        header.qdcount = count(self.questions.len(), "question")?;
        header.ancount = count(self.answers.len(), "answer")?;
        header.nscount = count(self.authorities.len(), "authority")?;
        header.arcount = count(self.additionals.len(), "additional")?;
        header.encode(&mut buf);
        let mut offsets = NameOffsets::default();
        for q in &self.questions {
            q.encode(&mut buf, &mut offsets);
        }
        for r in self
            .answers
            .iter()
            .chain(&self.authorities)
            .chain(&self.additionals)
        {
            r.encode(&mut buf, &mut offsets)?;
        }
        if buf.len() > MAX_MESSAGE_LEN {
            return Err(WireError::MessageTooLong(buf.len()));
        }
        Ok(buf)
    }

    /// Wire length if no name were compressed: what `try_encode` reserves,
    /// so the buffer is sized once and compression only leaves slack.
    fn uncompressed_len(&self) -> usize {
        let questions: usize = self.questions.iter().map(|q| q.qname.wire_len() + 4).sum();
        let records: usize = self
            .answers
            .iter()
            .chain(&self.authorities)
            .chain(&self.additionals)
            .map(|r| r.name.wire_len() + 10 + r.rdata.wire_len())
            .sum();
        HEADER_LEN + questions + records
    }

    /// Decode a message, requiring the buffer to contain exactly one
    /// message (trailing bytes are an error — the transactional scanner
    /// counts them as middlebox distortion).
    pub fn decode(msg: &[u8]) -> Result<Self, WireError> {
        let (m, consumed) = Self::decode_prefix(msg)?;
        if consumed != msg.len() {
            return Err(WireError::TrailingBytes(msg.len() - consumed));
        }
        Ok(m)
    }

    /// Decode a message from the front of `msg`, returning it together with
    /// the number of bytes consumed.
    pub fn decode_prefix(msg: &[u8]) -> Result<(Self, usize), WireError> {
        if msg.len() > MAX_MESSAGE_LEN {
            return Err(WireError::MessageTooLong(msg.len()));
        }
        let mut pos = 0usize;
        let header = Header::decode(msg, &mut pos)?;
        // Header counts are attacker-controlled: a 12-byte runt may claim
        // 65 535 answers. Preallocate only what the remaining bytes could
        // possibly hold; pathological counts then fail on the first
        // truncated entry having reserved nothing.
        let mut names = DecodedNames::default();
        let mut questions = Vec::with_capacity(capped_capacity(
            header.qdcount,
            QUESTION_MIN_WIRE_LEN,
            pos,
            msg,
        ));
        for _ in 0..header.qdcount {
            questions.push(Question::decode(msg, &mut pos, &mut names)?);
        }
        let mut decode_section = |count: u16| -> Result<Vec<Record>, WireError> {
            let mut out = Vec::with_capacity(capped_capacity(count, RECORD_MIN_WIRE_LEN, pos, msg));
            for _ in 0..count {
                out.push(Record::decode(msg, &mut pos, &mut names)?);
            }
            Ok(out)
        };
        let answers = decode_section(header.ancount)?;
        let authorities = decode_section(header.nscount)?;
        let additionals = decode_section(header.arcount)?;
        Ok((
            Message {
                header,
                questions,
                answers,
                authorities,
                additionals,
            },
            pos,
        ))
    }

    /// All IPv4 addresses found in answer-section A records, in order.
    ///
    /// The measurement method reads exactly two of these: the dynamic
    /// client-reflecting record and the static control record (§4.1).
    pub fn answer_a_addrs(&self) -> Vec<Ipv4Addr> {
        self.answers.iter().filter_map(|r| r.a_addr()).collect()
    }

    /// True if this is a response (QR bit set).
    pub fn is_response(&self) -> bool {
        self.header.flags.response
    }

    /// Shorthand for the first question, if any.
    pub fn question(&self) -> Option<&Question> {
        self.questions.first()
    }

    /// True for the only query shape the study's probes and stubs emit: a
    /// non-response, standard-opcode message with exactly one `IN`
    /// question. Hosts gate their pre-encoded-response fast paths on this
    /// one predicate so the eligibility rule cannot drift between them.
    ///
    /// [`view_query`](crate::view_query) is the same rule read off the wire
    /// without decoding, narrowed to "and the question is all the datagram
    /// holds": it never returns `Some` for bytes whose decoded message
    /// fails this predicate. That implication is not kept by care but by
    /// the fifth oracle of [`crate::fuzz`], which `wirefuzz` runs in CI.
    pub fn is_plain_in_query(&self) -> bool {
        !self.header.flags.response
            && self.header.flags.opcode == crate::header::Opcode::Query
            && self.questions.len() == 1
            && self.questions[0].qclass == crate::question::QClass::In
    }

    /// Build the skeleton of a response to this query: same ID, same
    /// question, QR set. Callers fill in answers and flags.
    pub fn response_skeleton(&self) -> Message {
        Message {
            header: Header {
                id: self.header.id,
                flags: Flags {
                    response: true,
                    opcode: self.header.flags.opcode,
                    recursion_desired: self.header.flags.recursion_desired,
                    ..Flags::default()
                },
                ..Header::default()
            },
            questions: self.questions.clone(),
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// Encoded size in wire bytes (used by the misuse-potential study, §6,
    /// as the numerator/denominator of amplification factors).
    ///
    /// Encoding failures propagate: a message that cannot encode has no
    /// wire length, and mapping it to `0` would silently zero the
    /// amplification factors computed from it.
    pub fn wire_len(&self) -> Result<usize, WireError> {
        self.try_encode().map(|b| b.len())
    }
}

/// Smallest wire footprint of a question: 1-byte root name + type + class.
const QUESTION_MIN_WIRE_LEN: usize = 5;
/// Smallest wire footprint of a record: 1-byte root name + the 10-byte
/// fixed part (type, class, TTL, RDLENGTH) with empty RDATA.
const RECORD_MIN_WIRE_LEN: usize = 11;

/// How many entries of at-least-`min_len` wire bytes could still fit in
/// `msg` past `pos` — the safe upper bound for section preallocation. The
/// claimed `count` is only honored up to that bound.
fn capped_capacity(count: u16, min_len: usize, pos: usize, msg: &[u8]) -> usize {
    let fit = msg.len().saturating_sub(pos) / min_len;
    (count as usize).min(fit)
}

/// Extract `(id, qname)` cheaply from a raw packet without a full decode.
/// Used on the scanner's hot receive path before full parsing.
pub fn peek_id(msg: &[u8]) -> Option<u16> {
    if msg.len() < 2 {
        return None;
    }
    Some(u16::from_be_bytes([msg[0], msg[1]]))
}

/// Peek the QR bit cheaply: `Some(true)` for a response, `Some(false)`
/// for a query, `None` when the packet is too short to carry DNS flags.
/// Lets receive paths reject non-answers (e.g. a reflected query landing
/// on a probe port) without a full decode.
pub fn peek_qr(msg: &[u8]) -> Option<bool> {
    if msg.len() < 4 {
        return None;
    }
    Some(msg[2] & 0x80 != 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::DnsName;
    use crate::rdata::{Class, RrType};

    fn sample_response() -> Message {
        let qname = DnsName::parse("odns-study.example.").unwrap();
        let mut m = Message::default();
        m.header.id = 10337;
        m.header.flags.response = true;
        m.header.flags.recursion_available = true;
        m.questions.push(Question::new(qname.clone(), RrType::A));
        // The two A records of the measurement method: dynamic + control.
        m.answers.push(Record::a(
            qname.clone(),
            300,
            Ipv4Addr::new(203, 1, 113, 50),
        ));
        m.answers
            .push(Record::a(qname, 300, Ipv4Addr::new(192, 0, 2, 200)));
        m
    }

    #[test]
    fn full_message_roundtrip() {
        let m = sample_response();
        let bytes = m.encode();
        let back = Message::decode(&bytes).unwrap();
        assert_eq!(back.header.id, 10337);
        assert_eq!(back.questions, m.questions);
        assert_eq!(back.answers, m.answers);
    }

    #[test]
    fn counts_recomputed_on_encode() {
        let mut m = sample_response();
        m.header.ancount = 99; // deliberately wrong
        let bytes = m.encode();
        let back = Message::decode(&bytes).unwrap();
        assert_eq!(back.header.ancount, 2);
        assert_eq!(back.answers.len(), 2);
    }

    #[test]
    fn answer_a_addrs_in_order() {
        let m = sample_response();
        assert_eq!(
            m.answer_a_addrs(),
            vec![
                Ipv4Addr::new(203, 1, 113, 50),
                Ipv4Addr::new(192, 0, 2, 200)
            ]
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = sample_response().encode();
        bytes.push(0xFF);
        assert!(matches!(
            Message::decode(&bytes),
            Err(WireError::TrailingBytes(1))
        ));
        // But decode_prefix tolerates them and reports consumption.
        let (m, consumed) = Message::decode_prefix(&bytes).unwrap();
        assert_eq!(consumed, bytes.len() - 1);
        assert_eq!(m.header.id, 10337);
    }

    #[test]
    fn response_skeleton_copies_identity() {
        let q = crate::builder::MessageBuilder::query(
            42,
            DnsName::parse("odns-study.example.").unwrap(),
            RrType::A,
        )
        .recursion_desired(true)
        .build();
        let r = q.response_skeleton();
        assert_eq!(r.header.id, 42);
        assert!(r.header.flags.response);
        assert!(r.header.flags.recursion_desired);
        assert_eq!(r.questions, q.questions);
        assert!(r.answers.is_empty());
    }

    #[test]
    fn compression_shrinks_repeated_names() {
        let m = sample_response();
        let compressed = m.encode();
        // Rebuild without compression to compare sizes.
        let mut uncompressed = Vec::new();
        let mut h = m.header;
        h.qdcount = 1;
        h.ancount = 2;
        h.encode(&mut uncompressed);
        for q in &m.questions {
            // encode question but force fresh offsets each time to defeat reuse
            let mut local = NameOffsets::default();
            q.encode(&mut uncompressed, &mut local);
        }
        for r in &m.answers {
            let mut local = NameOffsets::default();
            r.encode(&mut uncompressed, &mut local).unwrap();
        }
        assert!(
            compressed.len() < uncompressed.len(),
            "compression must shrink: {} vs {}",
            compressed.len(),
            uncompressed.len()
        );
    }

    #[test]
    fn peek_id_matches_header() {
        let m = sample_response();
        let bytes = m.encode();
        assert_eq!(peek_id(&bytes), Some(10337));
        assert_eq!(peek_id(&[0x01]), None);
    }

    #[test]
    fn peek_qr_distinguishes_query_from_response() {
        let resp = sample_response().encode();
        assert_eq!(peek_qr(&resp), Some(true));
        let qname = DnsName::parse("odns-study.example.").unwrap();
        let query = crate::MessageBuilder::query(7, qname, RrType::A)
            .recursion_desired(true)
            .build()
            .encode();
        assert_eq!(peek_qr(&query), Some(false));
        assert_eq!(peek_qr(&[0x00, 0x01, 0x80]), None, "too short for flags");
    }

    #[test]
    fn oversized_message_rejected_on_decode() {
        let big = vec![0u8; MAX_MESSAGE_LEN + 1];
        assert!(matches!(
            Message::decode(&big),
            Err(WireError::MessageTooLong(_))
        ));
    }

    #[test]
    fn oversized_section_count_is_an_error_not_a_truncation() {
        // Regression: `as u16` used to truncate 65 537 to 1, emitting a
        // header that announced one answer for a 65 537-record body.
        let mut m = Message::default();
        let rec = Record::a(DnsName::root(), 0, Ipv4Addr::new(192, 0, 2, 1));
        m.answers = vec![rec; u16::MAX as usize + 2];
        assert_eq!(
            m.try_encode(),
            Err(WireError::SectionCountOverflow {
                section: "answer",
                len: u16::MAX as usize + 2,
            })
        );
    }

    #[test]
    fn exactly_u16_max_entries_still_encode_their_count() {
        // The boundary itself is legal; only the body-length cap applies.
        let mut m = Message::default();
        let rec = Record::a(DnsName::root(), 0, Ipv4Addr::new(192, 0, 2, 1));
        m.answers = vec![rec; u16::MAX as usize];
        // 65 535 × 15 bytes blows MAX_MESSAGE_LEN, but the *count* is fine:
        // the error must be the length cap, not a count overflow.
        assert!(matches!(m.try_encode(), Err(WireError::MessageTooLong(_))));
    }

    #[test]
    fn runt_header_counts_do_not_reserve_memory() {
        // A 12-byte runt claiming 65 535 answers used to reserve
        // 65 535 × sizeof(Record) per section before the first decode
        // error. The cap bounds preallocation by what the remaining bytes
        // could hold.
        assert_eq!(
            capped_capacity(0xFFFF, RECORD_MIN_WIRE_LEN, 12, &[0u8; 12]),
            0
        );
        assert_eq!(
            capped_capacity(0xFFFF, QUESTION_MIN_WIRE_LEN, 12, &[0u8; 12]),
            0
        );
        // 34 bytes past the header fit exactly 3 minimal 11-byte records.
        assert_eq!(
            capped_capacity(0xFFFF, RECORD_MIN_WIRE_LEN, 12, &[0u8; 46]),
            3
        );
        // Honest counts below the bound pass through unchanged.
        assert_eq!(capped_capacity(2, RECORD_MIN_WIRE_LEN, 12, &[0u8; 4096]), 2);

        // And the runt itself still fails cleanly.
        let mut runt = vec![0u8; crate::header::HEADER_LEN];
        runt[6] = 0xFF;
        runt[7] = 0xFF; // ancount = 65 535
        assert!(matches!(
            Message::decode(&runt),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn wire_len_propagates_encode_failure() {
        // Regression: an unencodable message used to report wire length 0,
        // silently zeroing amplification factors in the §6 misuse study.
        let ok = sample_response();
        assert_eq!(ok.wire_len().unwrap(), ok.encode().len());

        let mut bad = Message::default();
        bad.answers.push(Record {
            name: DnsName::root(),
            class: Class::In,
            ttl: 0,
            rdata: crate::rdata::RData::Txt(vec![vec![0u8; 256]]),
        });
        assert_eq!(bad.wire_len(), Err(WireError::TxtSegmentTooLong(256)));
    }

    #[test]
    fn empty_message_is_header_only() {
        let m = Message {
            header: Header {
                id: 7,
                ..Header::default()
            },
            ..Message::default()
        };
        let bytes = m.encode();
        assert_eq!(bytes.len(), crate::header::HEADER_LEN);
        let back = Message::decode(&bytes).unwrap();
        assert_eq!(back.header.id, 7);
    }
}
