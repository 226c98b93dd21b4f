//! Structured packet types flowing through the simulator.
//!
//! The simulator dispatches *structured* packets for speed; wire-faithful
//! byte encodings (used by pcap capture and by tests that cross-check the
//! codecs) live in [`crate::wire`].

use std::fmt;
use std::net::Ipv4Addr;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// Default initial TTL for host-originated packets, matching common OS
/// defaults (Linux).
pub const DEFAULT_TTL: u8 = 64;

/// Immutable, cheaply-clonable packet payload.
///
/// Backed by `Arc<[u8]>`: a transparent forwarder relaying a query, an
/// echo reply, or a fault-injected duplicate clones the handle (one
/// refcount bump) instead of memcpying the DNS message. Hosts that need
/// to *modify* bytes copy out with `.to_vec()` (via `Deref<[u8]>`) first
/// — payloads on the wire are immutable, exactly like real packets in
/// flight.
#[derive(Clone)]
pub struct Payload(Arc<[u8]>);

impl Payload {
    /// The shared empty payload (no allocation after first use).
    pub fn empty() -> Self {
        static EMPTY: OnceLock<Arc<[u8]>> = OnceLock::new();
        Payload(EMPTY.get_or_init(|| Arc::from(&[][..])).clone())
    }

    /// The DNS message `template` under transaction ID `id`: its bytes
    /// with the first two replaced, in one allocation. A sender that
    /// repeats one query encodes it once and sends it through this.
    ///
    /// # Panics
    ///
    /// When `template` is shorter than the two ID bytes.
    pub fn with_dns_id(template: &[u8], id: u16) -> Self {
        let mut bytes: Arc<[u8]> = Arc::from(template);
        let fresh = Arc::get_mut(&mut bytes).expect("a new Arc is unique");
        fresh[..2].copy_from_slice(&id.to_be_bytes());
        Payload(bytes)
    }
}

impl Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl Default for Payload {
    fn default() -> Self {
        Payload::empty()
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0, f)
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Self {
        Payload(Arc::from(v))
    }
}

impl From<&[u8]> for Payload {
    fn from(v: &[u8]) -> Self {
        Payload(Arc::from(v))
    }
}

impl<const N: usize> From<[u8; N]> for Payload {
    fn from(v: [u8; N]) -> Self {
        Payload(Arc::from(&v[..]))
    }
}

impl From<Arc<[u8]>> for Payload {
    fn from(v: Arc<[u8]>) -> Self {
        Payload(v)
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        // Pointer equality first: relayed copies share the allocation.
        Arc::ptr_eq(&self.0, &other.0) || *self.0 == *other.0
    }
}
impl Eq for Payload {}

impl std::hash::Hash for Payload {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.hash(state)
    }
}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        *self.0 == *other
    }
}
impl PartialEq<&[u8]> for Payload {
    fn eq(&self, other: &&[u8]) -> bool {
        *self.0 == **other
    }
}
impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        *self.0 == other[..]
    }
}
impl<const N: usize> PartialEq<[u8; N]> for Payload {
    fn eq(&self, other: &[u8; N]) -> bool {
        *self.0 == other[..]
    }
}
impl<const N: usize> PartialEq<&[u8; N]> for Payload {
    fn eq(&self, other: &&[u8; N]) -> bool {
        *self.0 == other[..]
    }
}

/// A UDP datagram together with its IP-layer envelope, as seen by a host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Datagram {
    /// IP source address. For traffic relayed by a transparent forwarder
    /// this is the *original requester*, not the forwarder — the defining
    /// property the whole study rests on (§2).
    pub src: Ipv4Addr,
    /// IP destination address.
    pub dst: Ipv4Addr,
    /// UDP source port.
    pub src_port: u16,
    /// UDP destination port.
    pub dst_port: u16,
    /// TTL remaining *on arrival* (after per-router decrements). A receiving
    /// transparent forwarder relays with `ttl - 1`, which is what lets
    /// DNSRoute++ see beyond it (§5).
    pub ttl: u8,
    /// UDP payload (typically a DNS message). Cheaply clonable: relays,
    /// echoes, and duplicates share the bytes instead of copying them.
    pub payload: Payload,
}

impl Datagram {
    /// Total IPv4 wire size of this datagram: 20 (IP) + 8 (UDP) + payload.
    pub fn wire_len(&self) -> usize {
        20 + 8 + self.payload.len()
    }

    /// The flow tuple `(src, src_port, dst, dst_port)`.
    pub fn flow(&self) -> (Ipv4Addr, u16, Ipv4Addr, u16) {
        (self.src, self.src_port, self.dst, self.dst_port)
    }
}

impl fmt::Display for Datagram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} > {}:{} ttl={} len={}",
            self.src,
            self.src_port,
            self.dst,
            self.dst_port,
            self.ttl,
            self.payload.len()
        )
    }
}

/// The quoted original datagram inside an ICMP error, as per RFC 792: the
/// offending IP header plus the first 8 octets of its payload — exactly
/// enough to recover the UDP ports, which is how traceroute (and
/// DNSRoute++) match responses to probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuotedDatagram {
    /// Original IP source.
    pub src: Ipv4Addr,
    /// Original IP destination.
    pub dst: Ipv4Addr,
    /// Original UDP source port.
    pub src_port: u16,
    /// Original UDP destination port.
    pub dst_port: u16,
}

/// ICMP messages the simulator models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IcmpKind {
    /// Time Exceeded in transit (type 11, code 0) — the workhorse of
    /// DNSRoute++.
    TimeExceeded,
    /// Destination unreachable / port unreachable (type 3, code 3).
    PortUnreachable,
    /// Destination unreachable / host unreachable (type 3, code 1).
    HostUnreachable,
    /// Echo request (type 8) — used by the device fingerprinting probes.
    EchoRequest,
    /// Echo reply (type 0).
    EchoReply,
}

impl IcmpKind {
    /// ICMP type octet.
    pub fn type_code(self) -> (u8, u8) {
        match self {
            IcmpKind::TimeExceeded => (11, 0),
            IcmpKind::PortUnreachable => (3, 3),
            IcmpKind::HostUnreachable => (3, 1),
            IcmpKind::EchoRequest => (8, 0),
            IcmpKind::EchoReply => (0, 0),
        }
    }

    /// Reverse of [`IcmpKind::type_code`].
    pub fn from_type_code(t: u8, c: u8) -> Option<Self> {
        match (t, c) {
            (11, 0) => Some(IcmpKind::TimeExceeded),
            (3, 3) => Some(IcmpKind::PortUnreachable),
            (3, 1) => Some(IcmpKind::HostUnreachable),
            (8, 0) => Some(IcmpKind::EchoRequest),
            (0, 0) => Some(IcmpKind::EchoReply),
            _ => None,
        }
    }
}

/// A structured ICMP message delivered to a host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IcmpMessage {
    /// Address the ICMP message originates from (a router for Time
    /// Exceeded, the probed host for Port Unreachable).
    pub from: Ipv4Addr,
    /// Address the message is sent to (the original packet's source — for
    /// spoofed traffic this is the spoofed victim/scanner, not the relay).
    pub to: Ipv4Addr,
    /// Kind of message.
    pub kind: IcmpKind,
    /// Quote of the datagram that triggered the error (absent for echo).
    pub quote: Option<QuotedDatagram>,
}

impl fmt::Display for IcmpMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (t, c) = self.kind.type_code();
        write!(f, "icmp {}>{} type={t} code={c}", self.from, self.to)?;
        if let Some(q) = &self.quote {
            write!(
                f,
                " quoting {}:{}>{}:{}",
                q.src, q.src_port, q.dst, q.dst_port
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_len_accounts_for_headers() {
        let d = Datagram {
            src: Ipv4Addr::new(192, 0, 2, 1),
            dst: Ipv4Addr::new(203, 0, 113, 1),
            src_port: 34000,
            dst_port: 53,
            ttl: 64,
            payload: vec![0; 30].into(),
        };
        assert_eq!(d.wire_len(), 58);
    }

    #[test]
    fn icmp_type_codes_roundtrip() {
        for k in [
            IcmpKind::TimeExceeded,
            IcmpKind::PortUnreachable,
            IcmpKind::HostUnreachable,
            IcmpKind::EchoRequest,
            IcmpKind::EchoReply,
        ] {
            let (t, c) = k.type_code();
            assert_eq!(IcmpKind::from_type_code(t, c), Some(k));
        }
        assert_eq!(IcmpKind::from_type_code(42, 0), None);
    }

    #[test]
    fn display_formats() {
        let d = Datagram {
            src: Ipv4Addr::new(192, 0, 2, 1),
            dst: Ipv4Addr::new(203, 0, 113, 1),
            src_port: 34000,
            dst_port: 53,
            ttl: 7,
            payload: vec![1, 2, 3].into(),
        };
        assert_eq!(
            d.to_string(),
            "192.0.2.1:34000 > 203.0.113.1:53 ttl=7 len=3"
        );
    }
}
