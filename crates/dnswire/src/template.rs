//! Pre-encoded message templates for allocation-free hot paths.
//!
//! A cache-served DNS answer differs from the previous one only in three
//! places: the transaction ID, the RD flag echoed from the query, and the
//! decayed answer TTLs. [`ResponseTemplate`] encodes the message once and
//! records the byte offsets of those fields, so serving the next client is
//! one buffer copy plus a handful of byte patches — instead of a full
//! `MessageBuilder` → `Message` → `encode` walk with its name clones and
//! compression bookkeeping. A fresh answer fanned out to several waiting
//! clients differs in the first two only
//! ([`ResponseTemplate::materialize_ttls_kept`]). The copy is made straight
//! into the shared buffer a datagram payload wraps, so sending it costs no
//! second one.

use crate::header::HEADER_LEN;
use crate::message::Message;
use crate::walk::skip_name;
use std::sync::Arc;

/// Bit of the RD flag inside the first flags byte (RFC 1035 §4.1.1).
const RD_BIT: u8 = 0x01;

/// A response encoded once, with patch points for the per-client fields.
#[derive(Debug, Clone)]
pub struct ResponseTemplate {
    bytes: Vec<u8>,
    /// Byte offsets of each answer-section TTL (big-endian u32).
    ttl_offsets: Vec<usize>,
}

impl ResponseTemplate {
    /// Encode `msg` and locate every answer-record TTL field.
    ///
    /// Returns `None` when the message cannot be encoded or its wire form
    /// cannot be re-walked (never the case for messages built by this
    /// crate's own constructors).
    pub fn from_message(msg: &Message) -> Option<Self> {
        let bytes = msg.try_encode().ok()?;
        let mut ttl_offsets = Vec::with_capacity(msg.answers.len());
        let mut pos = HEADER_LEN;
        for _ in 0..msg.questions.len() {
            skip_name(&bytes, &mut pos)?;
            pos += 4; // qtype + qclass
        }
        for _ in 0..msg.answers.len() {
            skip_name(&bytes, &mut pos)?;
            // type (2) + class (2), then the TTL we want to patch.
            pos += 4;
            ttl_offsets.push(pos);
            pos += 4; // the TTL itself
            let rdlen = u16::from_be_bytes([*bytes.get(pos)?, *bytes.get(pos + 1)?]);
            pos += 2 + rdlen as usize;
        }
        if pos > bytes.len() {
            return None;
        }
        Some(ResponseTemplate { bytes, ttl_offsets })
    }

    /// Wire length of the templated response.
    pub fn wire_len(&self) -> usize {
        self.bytes.len()
    }

    /// Produce the response for one client: one allocation (the buffer
    /// copy), then patch the transaction ID, the echoed RD flag, and every
    /// answer TTL to `ttl` (a cache serves all records with the same
    /// remaining lifetime).
    pub fn materialize(&self, txid: u16, rd: bool, ttl: u32) -> Arc<[u8]> {
        self.copy_patched(|out| {
            patch_header(out, txid, rd);
            for &off in &self.ttl_offsets {
                out[off..off + 4].copy_from_slice(&ttl.to_be_bytes());
            }
        })
    }

    /// [`ResponseTemplate::materialize`] with every TTL left as encoded:
    /// the response for one of several clients waiting on the same fresh
    /// (not cache-aged) answer.
    pub fn materialize_ttls_kept(&self, txid: u16, rd: bool) -> Arc<[u8]> {
        self.copy_patched(|out| patch_header(out, txid, rd))
    }

    /// One copy of the encoded bytes, `patch`ed while still unshared.
    fn copy_patched(&self, patch: impl FnOnce(&mut [u8])) -> Arc<[u8]> {
        let mut out: Arc<[u8]> = Arc::from(&self.bytes[..]);
        patch(Arc::get_mut(&mut out).expect("just made, not yet shared"));
        out
    }
}

/// Overwrite the transaction ID and the RD flag of an encoded message.
#[inline(always)]
fn patch_header(out: &mut [u8], txid: u16, rd: bool) {
    out[0..2].copy_from_slice(&txid.to_be_bytes());
    if rd {
        out[2] |= RD_BIT;
    } else {
        out[2] &= !RD_BIT;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::MessageBuilder;
    use crate::name::DnsName;
    use crate::rdata::RrType;
    use std::net::Ipv4Addr;

    fn response() -> Message {
        let qname = DnsName::parse("odns-study.example.").unwrap();
        let query = MessageBuilder::query(77, qname.clone(), RrType::A)
            .recursion_desired(true)
            .build();
        MessageBuilder::response_to(&query)
            .recursion_available(true)
            .answer_a(qname.clone(), 300, Ipv4Addr::new(203, 0, 113, 50))
            .answer_a(qname, 300, Ipv4Addr::new(192, 0, 2, 200))
            .build()
    }

    #[test]
    fn materialized_bytes_match_full_encode() {
        let resp = response();
        let template = ResponseTemplate::from_message(&resp).unwrap();
        // Same txid/rd/ttl: byte-identical to the ordinary encode.
        assert_eq!(template.materialize(77, true, 300)[..], resp.encode());
    }

    #[test]
    fn patches_txid_rd_and_ttls() {
        let template = ResponseTemplate::from_message(&response()).unwrap();
        let bytes = template.materialize(0xBEEF, false, 123);
        let m = Message::decode(&bytes).unwrap();
        assert_eq!(m.header.id, 0xBEEF);
        assert!(!m.header.flags.recursion_desired);
        assert!(m.header.flags.recursion_available);
        assert!(m.answers.iter().all(|r| r.ttl == 123));
        // Non-patched content intact.
        assert_eq!(
            m.answer_a_addrs(),
            vec![
                Ipv4Addr::new(203, 0, 113, 50),
                Ipv4Addr::new(192, 0, 2, 200)
            ]
        );
    }

    #[test]
    fn ttls_kept_patches_only_txid_and_rd() {
        let mut resp = response();
        resp.answers[1].ttl = 50;
        let template = ResponseTemplate::from_message(&resp).unwrap();
        resp.header.id = 9;
        resp.header.flags.recursion_desired = false;
        assert_eq!(template.materialize_ttls_kept(9, false)[..], resp.encode());
    }

    #[test]
    fn wire_len_matches() {
        let resp = response();
        let template = ResponseTemplate::from_message(&resp).unwrap();
        assert_eq!(template.wire_len(), resp.encode().len());
    }
}
