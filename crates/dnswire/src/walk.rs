//! A structural walk over an encoded message that builds nothing.
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
//! [`Message::decode`]: crate::Message::decode

use crate::header::HEADER_LEN;
use crate::name::MAX_NAME_LEN;
use crate::MAX_MESSAGE_LEN;

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

/// Advance `pos` past the name encoded at `msg[*pos..]`: labels up to the
/// root octet or the first compression pointer, all inside `msg` and —
/// the decoder's bound — short enough to leave room for a terminator.
pub(crate) fn skip_name(msg: &[u8], pos: &mut usize) -> Option<()> {
    let start = *pos;
    loop {
        let len = *msg.get(*pos)?;
        match len & 0xC0 {
            0x00 if len == 0 => {
                *pos += 1;
                return Some(());
            }
            0x00 => {
                *pos += 1 + len as usize;
                if *pos > msg.len() || *pos - start >= MAX_NAME_LEN {
                    return None;
                }
            }
            0xC0 => {
                *pos += 2;
                return (*pos <= msg.len()).then_some(());
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
}
