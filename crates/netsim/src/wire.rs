//! Wire-faithful IPv4 / UDP / ICMP codecs.
//!
//! The paper's pipeline is `zmap` + `dumpcap` + offline pcap analysis. To
//! keep that pipeline honest we encode simulated packets to *real* wire
//! bytes — real header layouts, real checksums — whenever a capture tap is
//! attached, and the analysis crate re-parses those bytes. These codecs are
//! also reused by tests to cross-validate the structured fast path.

use crate::packet::{Datagram, IcmpKind, IcmpMessage, QuotedDatagram};
use std::net::Ipv4Addr;

/// Errors from the IPv4/UDP/ICMP codecs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PacketError {
    /// Buffer too short for the claimed structure.
    Truncated(&'static str),
    /// Not IPv4, or header length out of range.
    BadIpHeader,
    /// A checksum failed verification.
    BadChecksum(&'static str),
    /// IP protocol number we do not decode.
    UnsupportedProtocol(u8),
    /// ICMP type/code outside the modeled set.
    UnsupportedIcmp(u8, u8),
}

impl std::fmt::Display for PacketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PacketError::Truncated(c) => write!(f, "packet truncated in {c}"),
            PacketError::BadIpHeader => write!(f, "bad IPv4 header"),
            PacketError::BadChecksum(c) => write!(f, "bad {c} checksum"),
            PacketError::UnsupportedProtocol(p) => write!(f, "unsupported IP protocol {p}"),
            PacketError::UnsupportedIcmp(t, c) => write!(f, "unsupported ICMP type {t} code {c}"),
        }
    }
}

impl std::error::Error for PacketError {}

/// IP protocol numbers used by the simulator.
const PROTO_ICMP: u8 = 1;
/// UDP protocol number.
const PROTO_UDP: u8 = 17;

/// RFC 1071 Internet checksum over `data`.
fn internet_checksum(data: &[u8]) -> u16 {
    fold(sum_words(data))
}

/// One's-complement sum of 16-bit big-endian words, unfolded. Partial sums
/// over even-length prefixes compose by addition, which is what lets the
/// UDP checksum cover pseudo-header + header + payload without ever
/// concatenating them into one buffer.
fn sum_words(data: &[u8]) -> u32 {
    let mut sum = 0u32;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    sum
}

fn fold(mut sum: u32) -> u16 {
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

fn sum_ip(ip: Ipv4Addr) -> u32 {
    let o = ip.octets();
    u32::from(u16::from_be_bytes([o[0], o[1]])) + u32::from(u16::from_be_bytes([o[2], o[3]]))
}

fn ipv4_header(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    proto: u8,
    ttl: u8,
    ident: u16,
    payload_len: usize,
) -> [u8; 20] {
    let total_len = (20 + payload_len) as u16;
    let mut h = [0u8; 20];
    h[0] = 0x45; // version 4, IHL 5
    h[1] = 0; // DSCP/ECN
    h[2..4].copy_from_slice(&total_len.to_be_bytes());
    h[4..6].copy_from_slice(&ident.to_be_bytes());
    h[6..8].copy_from_slice(&[0x40, 0x00]); // DF, no fragmentation in this study
    h[8] = ttl;
    h[9] = proto;
    // checksum at 10..12, computed below
    h[12..16].copy_from_slice(&src.octets());
    h[16..20].copy_from_slice(&dst.octets());
    let csum = internet_checksum(&h);
    h[10..12].copy_from_slice(&csum.to_be_bytes());
    h
}

/// Encode a UDP datagram as a full IPv4 packet (20-byte header, no options).
// detlint::allow(needless-pub): builds capture fixtures for analysis's pcap_ingest tests and crates/{analysis,netsim}/tests/proptests.rs
pub fn encode_udp(d: &Datagram, ident: u16) -> Vec<u8> {
    let mut out = Vec::with_capacity(28 + d.payload.len());
    encode_udp_into(d, ident, &mut out);
    out
}

/// Encode a UDP datagram as a full IPv4 packet, appending the wire bytes to
/// `out`. This is the zero-copy tap path: header and payload go straight
/// into the caller's buffer (typically a [`crate::pcap::PcapWriter`]'s) with
/// no intermediate framing Vec; bytes are identical to [`encode_udp`].
pub fn encode_udp_into(d: &Datagram, ident: u16, out: &mut Vec<u8>) {
    let udp_len = 8 + d.payload.len();
    out.reserve(20 + udp_len);
    out.extend_from_slice(&ipv4_header(d.src, d.dst, PROTO_UDP, d.ttl, ident, udp_len));
    let udp_start = out.len();
    out.extend_from_slice(&d.src_port.to_be_bytes());
    out.extend_from_slice(&d.dst_port.to_be_bytes());
    out.extend_from_slice(&(udp_len as u16).to_be_bytes());
    out.extend_from_slice(&[0, 0]); // checksum placeholder
    out.extend_from_slice(&d.payload);
    let csum = udp_checksum(d.src, d.dst, &out[udp_start..]);
    out[udp_start + 6..udp_start + 8].copy_from_slice(&csum.to_be_bytes());
}

/// UDP checksum with the IPv4 pseudo-header. Returns `0xFFFF` instead of 0,
/// as RFC 768 requires (0 means "no checksum").
fn udp_checksum(src: Ipv4Addr, dst: Ipv4Addr, udp: &[u8]) -> u16 {
    // The pseudo-header is summed field-wise (it is never materialized);
    // every part before the final one is even-length, so partial sums
    // compose by plain addition.
    let pseudo = sum_ip(src) + sum_ip(dst) + u32::from(PROTO_UDP) + u32::from(udp.len() as u16);
    let c = fold(pseudo + sum_words(udp));
    if c == 0 {
        0xFFFF
    } else {
        c
    }
}

/// Encode an ICMP message as a full IPv4 packet, appending the wire bytes
/// to `out`. Errors quote the original IP header + 8 payload bytes per RFC
/// 792, which is how DNSRoute++ recovers the probe's UDP source port from a
/// Time Exceeded reply.
pub fn encode_icmp_into(m: &IcmpMessage, ident: u16, ttl: u8, out: &mut Vec<u8>) {
    // 8-byte ICMP header, plus a 28-byte quote (inner IP header + UDP
    // ports/len/checksum) when the message carries one.
    let icmp_len = if m.quote.is_some() { 8 + 28 } else { 8 };
    out.reserve(20 + icmp_len);
    out.extend_from_slice(&ipv4_header(m.from, m.to, PROTO_ICMP, ttl, ident, icmp_len));
    let icmp_start = out.len();
    let (t, c) = m.kind.type_code();
    out.push(t);
    out.push(c);
    out.extend_from_slice(&[0, 0]); // checksum placeholder
    out.extend_from_slice(&[0, 0, 0, 0]); // unused / rest of header
    if let Some(q) = &m.quote {
        // Quoted original: IPv4 header + first 8 octets (the UDP header).
        let inner = ipv4_header(q.src, q.dst, PROTO_UDP, 1, 0, 8);
        out.extend_from_slice(&inner);
        out.extend_from_slice(&q.src_port.to_be_bytes());
        out.extend_from_slice(&q.dst_port.to_be_bytes());
        out.extend_from_slice(&[0, 8]); // quoted UDP length (min)
        out.extend_from_slice(&[0, 0]); // quoted UDP checksum (unverified)
    }
    let csum = internet_checksum(&out[icmp_start..]);
    out[icmp_start + 2..icmp_start + 4].copy_from_slice(&csum.to_be_bytes());
}

/// A packet decoded from wire bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodedPacket {
    /// A UDP datagram.
    Udp(Datagram),
    /// An ICMP message.
    Icmp(IcmpMessage),
}

/// Decode a raw IPv4 packet (as produced by [`encode_udp`]/[`encode_icmp_into`]),
/// verifying the IP header checksum and, for UDP, the UDP checksum.
pub fn decode(bytes: &[u8]) -> Result<DecodedPacket, PacketError> {
    if bytes.len() < 20 {
        return Err(PacketError::Truncated("ipv4 header"));
    }
    if bytes[0] >> 4 != 4 {
        return Err(PacketError::BadIpHeader);
    }
    let ihl = (bytes[0] & 0x0F) as usize * 4;
    if ihl < 20 || bytes.len() < ihl {
        return Err(PacketError::BadIpHeader);
    }
    if internet_checksum(&bytes[..ihl]) != 0 {
        return Err(PacketError::BadChecksum("ipv4 header"));
    }
    let total_len = u16::from_be_bytes([bytes[2], bytes[3]]) as usize;
    if total_len > bytes.len() || total_len < ihl {
        return Err(PacketError::Truncated("ipv4 total length"));
    }
    let ttl = bytes[8];
    let proto = bytes[9];
    let src = Ipv4Addr::new(bytes[12], bytes[13], bytes[14], bytes[15]);
    let dst = Ipv4Addr::new(bytes[16], bytes[17], bytes[18], bytes[19]);
    let body = &bytes[ihl..total_len];

    match proto {
        PROTO_UDP => {
            if body.len() < 8 {
                return Err(PacketError::Truncated("udp header"));
            }
            let src_port = u16::from_be_bytes([body[0], body[1]]);
            let dst_port = u16::from_be_bytes([body[2], body[3]]);
            let udp_len = u16::from_be_bytes([body[4], body[5]]) as usize;
            if udp_len < 8 || udp_len > body.len() {
                return Err(PacketError::Truncated("udp length"));
            }
            let declared_csum = u16::from_be_bytes([body[6], body[7]]);
            if declared_csum != 0 {
                let mut check = body[..udp_len].to_vec();
                check[6] = 0;
                check[7] = 0;
                if udp_checksum(src, dst, &check) != declared_csum {
                    return Err(PacketError::BadChecksum("udp"));
                }
            }
            Ok(DecodedPacket::Udp(Datagram {
                src,
                dst,
                src_port,
                dst_port,
                ttl,
                payload: body[8..udp_len].into(),
            }))
        }
        PROTO_ICMP => {
            if body.len() < 8 {
                return Err(PacketError::Truncated("icmp header"));
            }
            if internet_checksum(body) != 0 {
                return Err(PacketError::BadChecksum("icmp"));
            }
            let kind = IcmpKind::from_type_code(body[0], body[1])
                .ok_or(PacketError::UnsupportedIcmp(body[0], body[1]))?;
            let quote = if body.len() >= 8 + 20 + 8 {
                let q = &body[8..];
                let qsrc = Ipv4Addr::new(q[12], q[13], q[14], q[15]);
                let qdst = Ipv4Addr::new(q[16], q[17], q[18], q[19]);
                let qihl = (q[0] & 0x0F) as usize * 4;
                if q.len() >= qihl + 4 && q[9] == PROTO_UDP {
                    Some(QuotedDatagram {
                        src: qsrc,
                        dst: qdst,
                        src_port: u16::from_be_bytes([q[qihl], q[qihl + 1]]),
                        dst_port: u16::from_be_bytes([q[qihl + 2], q[qihl + 3]]),
                    })
                } else {
                    None
                }
            } else {
                None
            };
            Ok(DecodedPacket::Icmp(IcmpMessage {
                from: src,
                to: dst,
                kind,
                quote,
            }))
        }
        other => Err(PacketError::UnsupportedProtocol(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dgram() -> Datagram {
        Datagram {
            src: Ipv4Addr::new(192, 0, 2, 1),
            dst: Ipv4Addr::new(203, 0, 113, 1),
            src_port: 34000,
            dst_port: 53,
            ttl: 64,
            payload: vec![0xAB; 17].into(),
        }
    }

    #[test]
    fn checksum_known_vector() {
        // RFC 1071 example-style check: sum of a buffer with its own
        // checksum inserted verifies to zero.
        let data = [
            0x45u8, 0x00, 0x00, 0x30, 0x44, 0x22, 0x40, 0x00, 0x80, 0x06, 0x00, 0x00, 0x8c, 0x7c,
            0x19, 0xac, 0xae, 0x24, 0x1e, 0x2b,
        ];
        let csum = internet_checksum(&data);
        let mut with = data;
        with[10..12].copy_from_slice(&csum.to_be_bytes());
        assert_eq!(internet_checksum(&with), 0);
    }

    #[test]
    fn odd_length_checksum() {
        assert_eq!(internet_checksum(&[0xFF]), !0xFF00u16);
    }

    #[test]
    fn udp_roundtrip() {
        let d = dgram();
        let bytes = encode_udp(&d, 0x4422);
        match decode(&bytes).unwrap() {
            DecodedPacket::Udp(back) => assert_eq!(back, d),
            other => panic!("expected UDP, got {other:?}"),
        }
    }

    #[test]
    fn udp_checksum_detects_corruption() {
        let d = dgram();
        let mut bytes = encode_udp(&d, 1);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF; // flip payload byte
        assert_eq!(decode(&bytes), Err(PacketError::BadChecksum("udp")));
    }

    #[test]
    fn ip_checksum_detects_corruption() {
        let d = dgram();
        let mut bytes = encode_udp(&d, 1);
        bytes[8] = bytes[8].wrapping_add(1); // mutate TTL without fixing checksum
        assert_eq!(decode(&bytes), Err(PacketError::BadChecksum("ipv4 header")));
    }

    #[test]
    fn icmp_time_exceeded_roundtrip_preserves_quote() {
        let m = IcmpMessage {
            from: Ipv4Addr::new(10, 0, 0, 1),
            to: Ipv4Addr::new(192, 0, 2, 1),
            kind: IcmpKind::TimeExceeded,
            quote: Some(QuotedDatagram {
                src: Ipv4Addr::new(192, 0, 2, 1),
                dst: Ipv4Addr::new(203, 0, 113, 1),
                src_port: 34017,
                dst_port: 53,
            }),
        };
        let mut bytes = Vec::new();
        encode_icmp_into(&m, 7, 63, &mut bytes);
        match decode(&bytes).unwrap() {
            DecodedPacket::Icmp(back) => {
                assert_eq!(back.kind, IcmpKind::TimeExceeded);
                assert_eq!(back.quote, m.quote);
                assert_eq!(back.from, m.from);
                assert_eq!(back.to, m.to);
            }
            other => panic!("expected ICMP, got {other:?}"),
        }
    }

    #[test]
    fn icmp_echo_has_no_quote() {
        let m = IcmpMessage {
            from: Ipv4Addr::new(10, 0, 0, 1),
            to: Ipv4Addr::new(192, 0, 2, 1),
            kind: IcmpKind::EchoReply,
            quote: None,
        };
        let mut bytes = Vec::new();
        encode_icmp_into(&m, 1, 64, &mut bytes);
        match decode(&bytes).unwrap() {
            DecodedPacket::Icmp(back) => assert_eq!(back.quote, None),
            other => panic!("expected ICMP, got {other:?}"),
        }
    }

    #[test]
    fn truncated_and_garbage_rejected() {
        assert!(matches!(
            decode(&[0x45, 0x00]),
            Err(PacketError::Truncated(_))
        ));
        assert!(matches!(decode(&[0x60; 40]), Err(PacketError::BadIpHeader)));
        let d = dgram();
        let bytes = encode_udp(&d, 1);
        // IPv6 version nibble
        let mut v6 = bytes.clone();
        v6[0] = 0x65;
        assert!(decode(&v6).is_err());
    }

    #[test]
    fn ttl_survives_roundtrip() {
        let mut d = dgram();
        d.ttl = 3;
        let bytes = encode_udp(&d, 9);
        match decode(&bytes).unwrap() {
            DecodedPacket::Udp(back) => assert_eq!(back.ttl, 3),
            _ => unreachable!(),
        }
    }
}
