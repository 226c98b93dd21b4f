//! Structural reads over an encoded message that build nothing.
//!
//! A relay that forwards an upstream answer byte for byte needs far less
//! than [`Message::decode`] gives it: that the datagram is one whole
//! message (so a truncated or padded body is not passed on as an answer),
//! whose transaction it belongs to, and how long its answers may be cached.
//! [`walk_sections`] checks the first and reads the rest without
//! allocating: every name stays inside the buffer and inside the RFC 1035
//! length bound, every RDLENGTH ends inside the buffer, and the last record
//! ends exactly where the buffer does.
//!
//! The walk is deliberately *weaker* than the decoder — it follows no
//! compression pointer and never looks inside RDATA — so it accepts every
//! input [`Message::decode`] accepts, and on those agrees with it on every
//! field of [`SectionWalk`] (the fourth oracle of [`crate::fuzz`]).
//!
//! The two *views* go the other way. A host that admits a client query
//! needs its transaction ID, RD bit and question; the classifier needs a
//! response's RCODE and A addresses. [`view_query`] and [`view_answer_a`]
//! read exactly those off the one shape the study's probes and answers
//! have, and are deliberately *stricter* than the decoder: `Some` implies
//! that [`Message::decode`] succeeds and agrees on every field of the view
//! (the fifth oracle of [`crate::fuzz`]); anything else is `None`, and the
//! caller decodes. A second parser that accepted more than the first would
//! be a parser differential; one that accepts less is a fast path.
//!
//! [`Message::decode`]: crate::Message::decode

use crate::header::{Rcode, HEADER_LEN};
use crate::name::{DnsName, MAX_NAME_LEN};
use crate::rdata::RrType;
use crate::MAX_MESSAGE_LEN;
use std::net::Ipv4Addr;

/// What [`walk_sections`] reads off a structurally sound message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionWalk {
    /// Transaction ID.
    pub id: u16,
    /// QR bit: true for a response.
    pub response: bool,
    /// ANCOUNT, every one of which the walk found a whole record for.
    pub ancount: u16,
    /// Smallest TTL in the answer section; `None` when it is empty.
    pub min_answer_ttl: Option<u32>,
}

fn be16(msg: &[u8], at: usize) -> Option<u16> {
    Some(u16::from_be_bytes([*msg.get(at)?, *msg.get(at + 1)?]))
}

/// How a name in the stream ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NameEnd {
    /// On its root octet: the name is all here, uncompressed.
    Root,
    /// On a compression pointer, not followed.
    Pointer,
}

/// Advance `pos` past the name encoded at `msg[*pos..]`: labels up to the
/// root octet or the first compression pointer, all inside `msg` and —
/// the decoder's bound — short enough to leave room for a terminator.
pub(crate) fn skip_name(msg: &[u8], pos: &mut usize) -> Option<NameEnd> {
    let start = *pos;
    loop {
        let len = *msg.get(*pos)?;
        match len & 0xC0 {
            0x00 if len == 0 => {
                *pos += 1;
                return Some(NameEnd::Root);
            }
            0x00 => {
                *pos += 1 + len as usize;
                if *pos > msg.len() || *pos - start >= MAX_NAME_LEN {
                    return None;
                }
            }
            0xC0 => {
                *pos += 2;
                return (*pos <= msg.len()).then_some(NameEnd::Pointer);
            }
            _ => return None, // reserved label types
        }
    }
}

/// Walk `msg` as one DNS message, section by section, without decoding it.
/// `None` when it is not exactly one structurally sound message.
pub fn walk_sections(msg: &[u8]) -> Option<SectionWalk> {
    if msg.len() < HEADER_LEN || msg.len() > MAX_MESSAGE_LEN {
        return None;
    }
    let ancount = be16(msg, 6)?;
    let records = u32::from(ancount) + u32::from(be16(msg, 8)?) + u32::from(be16(msg, 10)?);
    let mut pos = HEADER_LEN;
    for _ in 0..be16(msg, 4)? {
        skip_name(msg, &mut pos)?;
        pos += 4; // QTYPE + QCLASS
    }
    let mut min_answer_ttl = None;
    for i in 0..records {
        skip_name(msg, &mut pos)?;
        // TYPE (2) + CLASS (2) + TTL (4) + RDLENGTH (2), then the RDATA.
        let fixed = msg.get(pos..pos + 10)?;
        if i < u32::from(ancount) {
            let ttl = u32::from_be_bytes([fixed[4], fixed[5], fixed[6], fixed[7]]);
            min_answer_ttl = Some(min_answer_ttl.map_or(ttl, |m: u32| m.min(ttl)));
        }
        pos += 10 + usize::from(u16::from_be_bytes([fixed[8], fixed[9]]));
    }
    (pos == msg.len()).then_some(SectionWalk {
        id: be16(msg, 0)?,
        response: msg[2] & 0x80 != 0,
        ancount,
        min_answer_ttl,
    })
}

/// Where the first question's name starts — the offset the owner of every
/// answer in a compressed study response points at.
const QUESTION_OFFSET: usize = HEADER_LEN;

/// The uncompressed name at `msg[at..]`, root octet included: exactly the
/// bytes [`DnsName::as_wire`] of the decoded name would hold. `None` when
/// the name uses a pointer or fails [`skip_name`]'s bounds.
fn uncompressed_name(msg: &[u8], at: usize) -> Option<&[u8]> {
    let mut end = at;
    (skip_name(msg, &mut end)? == NameEnd::Root).then(|| &msg[at..end])
}

/// What [`view_query`] reads off a plain `IN` query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryView<'a> {
    /// Transaction ID.
    pub id: u16,
    /// RD bit.
    pub rd: bool,
    /// QNAME in uncompressed wire form, casing as sent.
    pub qname_wire: &'a [u8],
    /// QTYPE.
    pub qtype: RrType,
}

impl QueryView<'_> {
    /// The question name, as the decoder would have built it (the view's
    /// one allocation, made only when the caller keeps the name).
    pub fn qname(&self) -> DnsName {
        DnsName::from_wire(self.qname_wire)
    }
}

/// Read `msg` as the only query shape the study's probes and stubs emit,
/// with nothing else in the datagram: QR 0, opcode QUERY, one question
/// with an uncompressed name in class `IN`, no other record, no trailing
/// byte. That is [`Message::is_plain_in_query`] plus "and the question is
/// all there is"; every other query — `CH`, EDNS, a compressed name — is
/// `None` and goes through [`Message::decode`].
///
/// [`Message::is_plain_in_query`]: crate::Message::is_plain_in_query
/// [`Message::decode`]: crate::Message::decode
pub fn view_query(msg: &[u8]) -> Option<QueryView<'_>> {
    // QR and OPCODE clear; QDCOUNT 1, ANCOUNT = NSCOUNT = ARCOUNT = 0.
    if msg.len() > MAX_MESSAGE_LEN || msg.get(2)? & 0xF8 != 0 {
        return None;
    }
    if msg.get(4..HEADER_LEN)? != [0, 1, 0, 0, 0, 0, 0, 0] {
        return None;
    }
    let qname_wire = uncompressed_name(msg, QUESTION_OFFSET)?;
    // QTYPE, then QCLASS `IN`, then the end of the datagram.
    let &[t0, t1, 0, 1] = msg.get(QUESTION_OFFSET + qname_wire.len()..)? else {
        return None;
    };
    Some(QueryView {
        id: be16(msg, 0)?,
        rd: msg[2] & 0x01 != 0,
        qname_wire,
        qtype: RrType::from_u16(u16::from_be_bytes([t0, t1])),
    })
}

/// Wire size of an A record owned by a two-byte compression pointer:
/// owner (2), TYPE (2), CLASS (2), TTL (4), RDLENGTH (2), address (4).
const POINTER_OWNED_A_LEN: usize = 16;

/// What [`view_answer_a`] reads off a study-shaped response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnswerAView<'a> {
    /// RCODE.
    pub rcode: Rcode,
    /// The answer section: [`POINTER_OWNED_A_LEN`]-byte records.
    answers: &'a [u8],
}

impl AnswerAView<'_> {
    /// The answer section's A addresses, in order — what
    /// [`Message::answer_a_addrs`](crate::Message::answer_a_addrs) would
    /// collect.
    pub fn addrs(&self) -> impl ExactSizeIterator<Item = Ipv4Addr> + '_ {
        self.answers
            .chunks_exact(POINTER_OWNED_A_LEN)
            .map(|r| Ipv4Addr::new(r[12], r[13], r[14], r[15]))
    }
}

/// Read `msg` as the response shape the study's answers have, compressed
/// the way every encoder in the wild (and this crate's) compresses it: QR
/// 1, one question with an uncompressed name, an answer section of A
/// records with RDLENGTH 4 whose owners are each a bare pointer to that
/// name, empty authority and additional sections, ending exactly at the
/// buffer's end. A CNAME chain, a referral, an OPT record, an uncompressed
/// owner are all `None` and go through
/// [`Message::decode`](crate::Message::decode).
pub fn view_answer_a(msg: &[u8]) -> Option<AnswerAView<'_>> {
    if msg.len() > MAX_MESSAGE_LEN || msg.get(2)? & 0x80 == 0 {
        return None;
    }
    // QDCOUNT 1 and NSCOUNT = ARCOUNT = 0, around whatever ANCOUNT says.
    if be16(msg, 4)? != 1 || msg.get(8..HEADER_LEN)? != [0, 0, 0, 0] {
        return None;
    }
    let question_end = QUESTION_OFFSET + uncompressed_name(msg, QUESTION_OFFSET)?.len() + 4;
    let answers = msg.get(question_end..)?;
    if answers.len() != usize::from(be16(msg, 6)?) * POINTER_OWNED_A_LEN {
        return None;
    }
    let pointer_owned_a =
        |r: &[u8]| r[..4] == [0xC0, QUESTION_OFFSET as u8, 0, 1] && r[10..12] == [0, 4];
    answers
        .chunks_exact(POINTER_OWNED_A_LEN)
        .all(pointer_owned_a)
        .then(|| AnswerAView {
            rcode: Rcode::from_u8(msg[3]),
            answers,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::MessageBuilder;
    use crate::message::Message;
    use crate::name::DnsName;
    use crate::rdata::RrType;
    use std::net::Ipv4Addr;

    fn study_response() -> Vec<u8> {
        let qname = DnsName::parse("odns-study.example.").unwrap();
        let query = MessageBuilder::query(0x2861, qname.clone(), RrType::A)
            .recursion_desired(true)
            .build();
        MessageBuilder::response_to(&query)
            .recursion_available(true)
            .answer_a(qname.clone(), 300, Ipv4Addr::new(203, 0, 113, 50))
            .answer_a(qname, 120, Ipv4Addr::new(192, 0, 2, 200))
            .build()
            .encode()
    }

    #[test]
    fn reads_id_qr_ancount_and_min_ttl() {
        let bytes = study_response();
        assert_eq!(
            walk_sections(&bytes),
            Some(SectionWalk {
                id: 0x2861,
                response: true,
                ancount: 2,
                min_answer_ttl: Some(120),
            })
        );
        let query = MessageBuilder::query(7, DnsName::root(), RrType::A)
            .build()
            .encode();
        let walk = walk_sections(&query).unwrap();
        assert_eq!((walk.response, walk.ancount), (false, 0));
        assert_eq!(walk.min_answer_ttl, None);
    }

    #[test]
    fn rejects_truncated_padded_and_overlong_bodies() {
        let bytes = study_response();
        for cut in 0..bytes.len() {
            assert_eq!(walk_sections(&bytes[..cut]), None, "cut at {cut}");
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(walk_sections(&padded), None, "trailing byte");
        let mut inflated = bytes.clone();
        inflated[7] = 3; // ANCOUNT 3, two records present
        assert_eq!(walk_sections(&inflated), None);
        let mut skewed = bytes;
        let rdlength = skewed.len() - 6;
        skewed[rdlength + 1] = 5; // last RDLENGTH 4 → 5
        assert_eq!(walk_sections(&skewed), None, "RDLENGTH past the end");
        assert_eq!(walk_sections(&vec![0; MAX_MESSAGE_LEN + 1]), None);
    }

    #[test]
    fn names_are_bounded_and_reserved_label_types_rejected() {
        // One question whose name is five 63-byte labels: 321 bytes.
        let mut long = vec![0u8; HEADER_LEN];
        long[5] = 1;
        for _ in 0..5 {
            long.push(63);
            long.extend_from_slice(&[b'a'; 63]);
        }
        long.extend_from_slice(&[0, 0, 1, 0, 1]);
        assert_eq!(walk_sections(&long), None);
        let mut reserved = vec![0u8; HEADER_LEN];
        reserved[5] = 1;
        reserved.extend_from_slice(&[0x41, b'a', 0, 0, 1, 0, 1]);
        assert_eq!(walk_sections(&reserved), None);
    }

    #[test]
    fn longest_decodable_name_is_walked() {
        // 254 bytes of labels closed by a pointer to the question's root
        // octet: a 255-byte name to the decoder, 256 bytes in the stream.
        let mut bytes = vec![0u8; HEADER_LEN];
        bytes[5] = 1;
        bytes[7] = 1;
        bytes.extend_from_slice(&[0, 0, 1, 0, 1]);
        for len in [63, 63, 63, 61] {
            bytes.push(len);
            bytes.extend(std::iter::repeat_n(b'a', len as usize));
        }
        bytes.extend_from_slice(&[0xC0, HEADER_LEN as u8]);
        bytes.extend_from_slice(&[0, 1, 0, 1, 0, 0, 0, 9, 0, 4, 1, 2, 3, 4]);
        let decoded = Message::decode(&bytes).unwrap();
        assert_eq!(decoded.answers[0].name.wire_len(), 255);
        assert_eq!(walk_sections(&bytes).unwrap().min_answer_ttl, Some(9));
    }

    #[test]
    fn accepts_what_only_a_decoder_would_reject() {
        // A forward compression pointer and an A record with 3-byte RDATA:
        // sound section structure, not a decodable message.
        let mut bytes = vec![0u8; HEADER_LEN];
        bytes[2] = 0x80;
        bytes[7] = 1; // ANCOUNT 1
        bytes.extend_from_slice(&[0xC0, 0x20]);
        bytes.extend_from_slice(&[0, 1, 0, 1, 0, 0, 0, 60, 0, 3, 1, 2, 3]);
        assert!(Message::decode(&bytes).is_err());
        assert_eq!(
            walk_sections(&bytes),
            Some(SectionWalk {
                id: 0,
                response: true,
                ancount: 1,
                min_answer_ttl: Some(60),
            })
        );
    }

    fn study_query() -> Vec<u8> {
        let qname = DnsName::parse("ODNS-study.example.").unwrap();
        MessageBuilder::query(0x2861, qname, RrType::A)
            .recursion_desired(true)
            .build()
            .encode()
    }

    #[test]
    fn query_view_reads_id_rd_and_question() {
        let bytes = study_query();
        let view = view_query(&bytes).unwrap();
        assert_eq!((view.id, view.rd, view.qtype), (0x2861, true, RrType::A));
        let decoded = Message::decode(&bytes).unwrap();
        assert_eq!(view.qname_wire, decoded.questions[0].qname.as_wire());
        assert_eq!(view.qname().as_wire(), view.qname_wire, "casing kept");
        // The root name and every other type are plain too; RD may be clear.
        let root = MessageBuilder::query(7, DnsName::root(), RrType::Any)
            .build()
            .encode();
        let view = view_query(&root).unwrap();
        assert_eq!((view.id, view.rd, view.qtype), (7, false, RrType::Any));
        assert!(view.qname().is_root());
    }

    #[test]
    fn query_view_declines_everything_but_the_plain_shape() {
        let bytes = study_query();
        for cut in 0..bytes.len() {
            assert_eq!(view_query(&bytes[..cut]), None, "cut at {cut}");
        }
        let with = |edit: fn(&mut Vec<u8>)| {
            let mut b = study_query();
            edit(&mut b);
            b
        };
        let declined = [
            ("a response", with(|b| b[2] |= 0x80)),
            ("opcode STATUS", with(|b| b[2] |= 0x10)),
            ("two questions", with(|b| b[5] = 2)),
            ("ANCOUNT 1", with(|b| b[7] = 1)),
            ("ARCOUNT 1", with(|b| b[11] = 1)),
            ("class CH", with(|b| *b.last_mut().unwrap() = 3)),
            ("a trailing byte", with(|b| b.push(0))),
            (
                "a compressed name",
                with(|b| {
                    let tail = b.split_off(b.len() - 5);
                    b.extend_from_slice(&[0xC0, 0x0C]);
                    b.extend_from_slice(&tail[1..]);
                }),
            ),
            ("a reserved label type", with(|b| b[HEADER_LEN] |= 0x40)),
        ];
        for (what, bytes) in declined {
            assert_eq!(view_query(&bytes), None, "{what}");
        }
        // An EDNS query is well-formed, and not this shape.
        let edns = MessageBuilder::query(1, DnsName::root(), RrType::Any)
            .additional(crate::rdata::Record {
                name: DnsName::root(),
                class: crate::rdata::Class::Other(4096),
                ttl: 0,
                rdata: crate::rdata::RData::Opt(Vec::new()),
            })
            .build()
            .encode();
        assert!(Message::decode(&edns).unwrap().is_plain_in_query());
        assert_eq!(view_query(&edns), None);
    }

    #[test]
    fn query_view_keeps_the_decoders_name_bound() {
        let question = |labels: &[usize]| {
            let mut bytes = vec![0u8; HEADER_LEN];
            bytes[5] = 1;
            for &len in labels {
                bytes.push(len as u8);
                bytes.extend(std::iter::repeat_n(b'a', len));
            }
            bytes.extend_from_slice(&[0, 0, 1, 0, 1]);
            bytes
        };
        let longest = question(&[63, 63, 63, 61]);
        assert_eq!(view_query(&longest).unwrap().qname_wire.len(), 255);
        assert!(Message::decode(&longest).is_ok());
        let too_long = question(&[63, 63, 63, 62]);
        assert_eq!(view_query(&too_long), None);
        assert!(Message::decode(&too_long).is_err());
    }

    #[test]
    fn answer_view_reads_rcode_and_addresses() {
        let bytes = study_response();
        let view = view_answer_a(&bytes).unwrap();
        assert_eq!(view.rcode, Rcode::NoError);
        assert_eq!(
            view.addrs().collect::<Vec<_>>(),
            Message::decode(&bytes).unwrap().answer_a_addrs()
        );
        assert_eq!(view.addrs().len(), 2);
        // No answers at all is still the shape: a bare REFUSED.
        let query = Message::decode(&study_query()).unwrap();
        let refused = MessageBuilder::response_to(&query)
            .rcode(Rcode::Refused)
            .build()
            .encode();
        let view = view_answer_a(&refused).unwrap();
        assert_eq!((view.rcode, view.addrs().len()), (Rcode::Refused, 0));
    }

    #[test]
    fn answer_view_declines_everything_but_the_study_shape() {
        let bytes = study_response();
        for cut in 0..bytes.len() {
            assert_eq!(view_answer_a(&bytes[..cut]), None, "cut at {cut}");
        }
        let second_owner = bytes.len() - POINTER_OWNED_A_LEN;
        let with = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut b = study_response();
            edit(&mut b);
            b
        };
        let declined = [
            ("a query", with(&|b| b[2] &= 0x7F)),
            ("two questions", with(&|b| b[5] = 2)),
            ("ANCOUNT 3", with(&|b| b[7] = 3)),
            ("NSCOUNT 1", with(&|b| b[9] = 1)),
            ("ARCOUNT 1", with(&|b| b[11] = 1)),
            ("a trailing byte", with(&|b| b.push(0))),
            // `example.` inside the question: decodable, another owner.
            ("an owner elsewhere", with(&|b| b[second_owner + 1] = 23)),
            ("an AAAA answer", with(&|b| b[second_owner + 3] = 28)),
            ("RDLENGTH 5", with(&|b| b[second_owner + 11] = 5)),
        ];
        for (what, bytes) in declined {
            assert_eq!(view_answer_a(&bytes), None, "{what}");
        }
        // Owners written out in full, and a CNAME before the address.
        let qname = DnsName::parse("odns-study.example.").unwrap();
        let other = DnsName::parse("other.test.").unwrap();
        let query = Message::decode(&study_query()).unwrap();
        let uncompressed = MessageBuilder::response_to(&query)
            .answer_a(other.clone(), 300, Ipv4Addr::new(192, 0, 2, 200))
            .build()
            .encode();
        assert_eq!(view_answer_a(&uncompressed), None);
        let cname = MessageBuilder::response_to(&query)
            .answer(crate::rdata::Record {
                name: qname,
                class: crate::rdata::Class::In,
                ttl: 60,
                rdata: crate::rdata::RData::Cname(other.clone()),
            })
            .answer_a(other, 300, Ipv4Addr::new(192, 0, 2, 200))
            .build()
            .encode();
        assert!(Message::decode(&cname).is_ok());
        assert_eq!(view_answer_a(&cname), None);
    }
}
