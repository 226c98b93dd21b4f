//! Resource records and typed RDATA (RFC 1035 §3.2, §4.1.3).

use crate::error::WireError;
use crate::name::{DecodedNames, DnsName, NameOffsets};
use std::fmt;
use std::net::Ipv4Addr;

/// Resource record types used in this study.
///
/// `A` carries the paper's measurement payload: the authoritative server
/// answers with a *dynamic* A record reflecting the immediate client plus a
/// *static control* A record (§2, "source-specific responses").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RrType {
    /// IPv4 host address.
    A,
    /// Authoritative name server.
    Ns,
    /// Canonical name (alias).
    Cname,
    /// Start of authority.
    Soa,
    /// Domain name pointer (reverse DNS).
    Ptr,
    /// Mail exchange.
    Mx,
    /// Text strings — used for `version.bind` fingerprinting.
    Txt,
    /// IPv6 host address (decoded but unused; the scan is IPv4-only).
    Aaaa,
    /// EDNS0 pseudo-record (RFC 6891) — carried in amplification requests.
    Opt,
    /// QTYPE `*` (ANY) — the classic amplification vector (§6: "Google
    /// allows ANY requests").
    Any,
    /// Any type this crate does not model, preserved verbatim.
    Other(u16),
}

impl RrType {
    /// Wire value.
    pub fn to_u16(self) -> u16 {
        match self {
            RrType::A => 1,
            RrType::Ns => 2,
            RrType::Cname => 5,
            RrType::Soa => 6,
            RrType::Ptr => 12,
            RrType::Mx => 15,
            RrType::Txt => 16,
            RrType::Aaaa => 28,
            RrType::Opt => 41,
            RrType::Any => 255,
            RrType::Other(v) => v,
        }
    }

    /// From wire value.
    pub fn from_u16(v: u16) -> Self {
        match v {
            1 => RrType::A,
            2 => RrType::Ns,
            5 => RrType::Cname,
            6 => RrType::Soa,
            12 => RrType::Ptr,
            15 => RrType::Mx,
            16 => RrType::Txt,
            28 => RrType::Aaaa,
            41 => RrType::Opt,
            255 => RrType::Any,
            other => RrType::Other(other),
        }
    }
}

impl fmt::Display for RrType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RrType::A => write!(f, "A"),
            RrType::Ns => write!(f, "NS"),
            RrType::Cname => write!(f, "CNAME"),
            RrType::Soa => write!(f, "SOA"),
            RrType::Ptr => write!(f, "PTR"),
            RrType::Mx => write!(f, "MX"),
            RrType::Txt => write!(f, "TXT"),
            RrType::Aaaa => write!(f, "AAAA"),
            RrType::Opt => write!(f, "OPT"),
            RrType::Any => write!(f, "ANY"),
            RrType::Other(v) => write!(f, "TYPE{v}"),
        }
    }
}

/// Record class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// Internet.
    In,
    /// Chaos.
    Ch,
    /// Anything else (for OPT records this field holds the UDP buffer size).
    Other(u16),
}

impl Class {
    /// Wire value.
    pub fn to_u16(self) -> u16 {
        match self {
            Class::In => 1,
            Class::Ch => 3,
            Class::Other(v) => v,
        }
    }

    /// From wire value.
    pub fn from_u16(v: u16) -> Self {
        match v {
            1 => Class::In,
            3 => Class::Ch,
            other => Class::Other(other),
        }
    }
}

/// SOA RDATA fields.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SoaData {
    /// Primary name server.
    pub mname: DnsName,
    /// Responsible mailbox.
    pub rname: DnsName,
    /// Zone serial.
    pub serial: u32,
    /// Refresh interval (seconds).
    pub refresh: u32,
    /// Retry interval (seconds).
    pub retry: u32,
    /// Expire limit (seconds).
    pub expire: u32,
    /// Minimum / negative-caching TTL (seconds). Negative caching of the
    /// query-encoding method pollutes caches via exactly this value (§6).
    pub minimum: u32,
}

/// Typed RDATA.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RData {
    /// IPv4 address.
    A(Ipv4Addr),
    /// Name server.
    Ns(DnsName),
    /// Alias target.
    Cname(DnsName),
    /// Start of authority.
    Soa(SoaData),
    /// Reverse pointer.
    Ptr(DnsName),
    /// Mail exchange: preference and exchanger.
    Mx {
        /// Preference value (lower wins).
        preference: u16,
        /// Exchange host.
        exchange: DnsName,
    },
    /// Text segments (each ≤ 255 bytes on the wire).
    Txt(Vec<Vec<u8>>),
    /// EDNS0 OPT pseudo-record payload (opaque options).
    Opt(Vec<u8>),
    /// Unknown type carried as opaque bytes so middlebox distortions survive
    /// the round-trip into the analysis stage instead of being dropped here.
    Unknown {
        /// The RR type this payload arrived with.
        rtype: u16,
        /// Raw RDATA bytes.
        data: Vec<u8>,
    },
}

impl RData {
    /// The RR type matching this payload.
    pub fn rtype(&self) -> RrType {
        match self {
            RData::A(_) => RrType::A,
            RData::Ns(_) => RrType::Ns,
            RData::Cname(_) => RrType::Cname,
            RData::Soa(_) => RrType::Soa,
            RData::Ptr(_) => RrType::Ptr,
            RData::Mx { .. } => RrType::Mx,
            RData::Txt(_) => RrType::Txt,
            RData::Opt(_) => RrType::Opt,
            RData::Unknown { rtype, .. } => RrType::from_u16(*rtype),
        }
    }

    /// Bytes [`RData::encode`] appends (RDATA names are never compressed,
    /// so this is exact).
    pub(crate) fn wire_len(&self) -> usize {
        match self {
            RData::A(_) => 4,
            RData::Ns(n) | RData::Cname(n) | RData::Ptr(n) => n.wire_len(),
            RData::Soa(soa) => soa.mname.wire_len() + soa.rname.wire_len() + 20,
            RData::Mx { exchange, .. } => 2 + exchange.wire_len(),
            RData::Txt(segments) => segments.iter().map(|s| 1 + s.len()).sum(),
            RData::Opt(data) | RData::Unknown { data, .. } => data.len(),
        }
    }

    /// Encode just the RDATA (no length prefix), appending to `buf`.
    ///
    /// Names inside RDATA are deliberately encoded **uncompressed**: only
    /// NS/CNAME/SOA/PTR/MX names may legally be compressed, but many
    /// middleboxes mis-parse it, and the reference servers the paper uses
    /// also emit uncompressed RDATA.
    pub fn encode(&self, buf: &mut Vec<u8>) -> Result<(), WireError> {
        match self {
            RData::A(addr) => buf.extend_from_slice(&addr.octets()),
            RData::Ns(n) | RData::Cname(n) | RData::Ptr(n) => n.encode_uncompressed(buf),
            RData::Soa(soa) => {
                soa.mname.encode_uncompressed(buf);
                soa.rname.encode_uncompressed(buf);
                buf.extend_from_slice(&soa.serial.to_be_bytes());
                buf.extend_from_slice(&soa.refresh.to_be_bytes());
                buf.extend_from_slice(&soa.retry.to_be_bytes());
                buf.extend_from_slice(&soa.expire.to_be_bytes());
                buf.extend_from_slice(&soa.minimum.to_be_bytes());
            }
            RData::Mx {
                preference,
                exchange,
            } => {
                buf.extend_from_slice(&preference.to_be_bytes());
                exchange.encode_uncompressed(buf);
            }
            RData::Txt(segments) => {
                for seg in segments {
                    if seg.len() > 255 {
                        return Err(WireError::TxtSegmentTooLong(seg.len()));
                    }
                    buf.push(seg.len() as u8);
                    buf.extend_from_slice(seg);
                }
            }
            RData::Opt(data) | RData::Unknown { data, .. } => buf.extend_from_slice(data),
        }
        Ok(())
    }

    /// Decode RDATA of `rtype` from `msg[*pos..*pos + rdlength]`; `names`
    /// is the message's [`DnsName::decode_shared`] state.
    pub fn decode(
        rtype: RrType,
        msg: &[u8],
        pos: &mut usize,
        rdlength: usize,
        names: &mut DecodedNames,
    ) -> Result<Self, WireError> {
        let end = *pos + rdlength;
        if end > msg.len() {
            return Err(WireError::Truncated { context: "rdata" });
        }
        let start = *pos;
        let out = match rtype {
            RrType::A => {
                if rdlength != 4 {
                    return Err(WireError::RdataLengthMismatch {
                        declared: rdlength,
                        consumed: 4,
                    });
                }
                let o = &msg[start..start + 4];
                *pos += 4;
                RData::A(Ipv4Addr::new(o[0], o[1], o[2], o[3]))
            }
            RrType::Ns => RData::Ns(DnsName::decode_shared(msg, pos, names)?),
            RrType::Cname => RData::Cname(DnsName::decode_shared(msg, pos, names)?),
            RrType::Ptr => RData::Ptr(DnsName::decode_shared(msg, pos, names)?),
            RrType::Soa => {
                let mname = DnsName::decode_shared(msg, pos, names)?;
                let rname = DnsName::decode_shared(msg, pos, names)?;
                if msg.len() < *pos + 20 {
                    return Err(WireError::Truncated {
                        context: "SOA numbers",
                    });
                }
                let g = |i: usize| {
                    u32::from_be_bytes([
                        msg[*pos + i],
                        msg[*pos + i + 1],
                        msg[*pos + i + 2],
                        msg[*pos + i + 3],
                    ])
                };
                let soa = SoaData {
                    mname,
                    rname,
                    serial: g(0),
                    refresh: g(4),
                    retry: g(8),
                    expire: g(12),
                    minimum: g(16),
                };
                *pos += 20;
                RData::Soa(soa)
            }
            RrType::Mx => {
                if msg.len() < *pos + 2 {
                    return Err(WireError::Truncated {
                        context: "MX preference",
                    });
                }
                let preference = u16::from_be_bytes([msg[*pos], msg[*pos + 1]]);
                *pos += 2;
                let exchange = DnsName::decode_shared(msg, pos, names)?;
                RData::Mx {
                    preference,
                    exchange,
                }
            }
            RrType::Txt => {
                let mut segments = Vec::new();
                while *pos < end {
                    let len = msg[*pos] as usize;
                    *pos += 1;
                    if *pos + len > end {
                        return Err(WireError::Truncated {
                            context: "TXT segment",
                        });
                    }
                    segments.push(msg[*pos..*pos + len].to_vec());
                    *pos += len;
                }
                RData::Txt(segments)
            }
            RrType::Opt => {
                let data = msg[start..end].to_vec();
                *pos = end;
                RData::Opt(data)
            }
            other => {
                let data = msg[start..end].to_vec();
                *pos = end;
                RData::Unknown {
                    rtype: other.to_u16(),
                    data,
                }
            }
        };
        if *pos != end {
            return Err(WireError::RdataLengthMismatch {
                declared: rdlength,
                consumed: *pos - start,
            });
        }
        Ok(out)
    }
}

/// A complete resource record.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Record {
    /// Owner name.
    pub name: DnsName,
    /// Record class (`IN` for everything the study measures).
    pub class: Class,
    /// Time to live. The paper's Figure 7 shows the same resolver answering
    /// two forwarders with *different* remaining TTLs (300 vs 50) — cache age
    /// is observable, so TTL handling must be faithful.
    pub ttl: u32,
    /// Typed payload.
    pub rdata: RData,
}

impl Record {
    /// Construct an A record — the workhorse of the measurement method.
    pub fn a(name: DnsName, ttl: u32, addr: Ipv4Addr) -> Self {
        Record {
            name,
            class: Class::In,
            ttl,
            rdata: RData::A(addr),
        }
    }

    /// Construct a TXT record from one string segment.
    pub fn txt(name: DnsName, ttl: u32, text: &str) -> Self {
        Record {
            name,
            class: Class::In,
            ttl,
            rdata: RData::Txt(vec![text.as_bytes().to_vec()]),
        }
    }

    /// The record's RR type.
    pub fn rtype(&self) -> RrType {
        self.rdata.rtype()
    }

    /// If this is an A record, its address.
    pub fn a_addr(&self) -> Option<Ipv4Addr> {
        match &self.rdata {
            RData::A(a) => Some(*a),
            _ => None,
        }
    }

    /// Encode with name compression, appending to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>, offsets: &mut NameOffsets) -> Result<(), WireError> {
        self.name.encode_compressed(buf, offsets);
        buf.extend_from_slice(&self.rtype().to_u16().to_be_bytes());
        buf.extend_from_slice(&self.class.to_u16().to_be_bytes());
        buf.extend_from_slice(&self.ttl.to_be_bytes());
        let len_at = buf.len();
        buf.extend_from_slice(&[0, 0]);
        self.rdata.encode(buf)?;
        let rdlength = buf.len() - len_at - 2;
        if rdlength > u16::MAX as usize {
            return Err(WireError::MessageTooLong(rdlength));
        }
        buf[len_at..len_at + 2].copy_from_slice(&(rdlength as u16).to_be_bytes());
        Ok(())
    }

    /// Decode from `msg` at `pos`, advancing it; `names` is the message's
    /// [`DnsName::decode_shared`] state.
    pub fn decode(
        msg: &[u8],
        pos: &mut usize,
        names: &mut DecodedNames,
    ) -> Result<Self, WireError> {
        let name = DnsName::decode_shared(msg, pos, names)?;
        if msg.len() < *pos + 10 {
            return Err(WireError::Truncated {
                context: "record fixed part",
            });
        }
        let rtype = RrType::from_u16(u16::from_be_bytes([msg[*pos], msg[*pos + 1]]));
        let class = Class::from_u16(u16::from_be_bytes([msg[*pos + 2], msg[*pos + 3]]));
        let ttl = u32::from_be_bytes([msg[*pos + 4], msg[*pos + 5], msg[*pos + 6], msg[*pos + 7]]);
        let rdlength = u16::from_be_bytes([msg[*pos + 8], msg[*pos + 9]]) as usize;
        *pos += 10;
        let rdata_start = *pos;
        let rdata = RData::decode(rtype, msg, pos, rdlength, names)?;
        // Structural guarantee, independent of the per-type arms inside
        // `RData::decode`: the record body consumed exactly RDLENGTH
        // bytes. A skewed RDLENGTH (an NS/CNAME name that under- or
        // over-runs the declared length) would otherwise desynchronize
        // `pos` for every subsequent record — the Injection-Attacks
        // parser-confusion class.
        if *pos != rdata_start + rdlength {
            return Err(WireError::RdataLengthMismatch {
                declared: rdlength,
                consumed: *pos - rdata_start,
            });
        }
        Ok(Record {
            name,
            class,
            ttl,
            rdata,
        })
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} ", self.name, self.ttl)?;
        match &self.rdata {
            RData::A(a) => write!(f, "IN A {a}"),
            RData::Ns(n) => write!(f, "IN NS {n}"),
            RData::Cname(n) => write!(f, "IN CNAME {n}"),
            RData::Ptr(n) => write!(f, "IN PTR {n}"),
            RData::Soa(s) => write!(f, "IN SOA {} {} {}", s.mname, s.rname, s.serial),
            RData::Mx {
                preference,
                exchange,
            } => write!(f, "IN MX {preference} {exchange}"),
            RData::Txt(segs) => {
                write!(f, "IN TXT")?;
                for s in segs {
                    write!(f, " \"{}\"", String::from_utf8_lossy(s))?;
                }
                Ok(())
            }
            RData::Opt(_) => write!(f, "OPT"),
            RData::Unknown { rtype, data } => write!(f, "TYPE{rtype} \\# {}", data.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(r: &Record) -> Record {
        let mut buf = Vec::new();
        let mut offsets = NameOffsets::default();
        r.encode(&mut buf, &mut offsets).unwrap();
        let mut pos = 0;
        let back = Record::decode(&buf, &mut pos, &mut DecodedNames::default()).unwrap();
        assert_eq!(pos, buf.len());
        back
    }

    #[test]
    fn a_record_roundtrip() {
        let r = Record::a(
            DnsName::parse("odns-study.example.").unwrap(),
            300,
            Ipv4Addr::new(203, 1, 113, 50),
        );
        assert_eq!(roundtrip(&r), r);
        assert_eq!(r.a_addr(), Some(Ipv4Addr::new(203, 1, 113, 50)));
    }

    #[test]
    fn a_record_bad_length_rejected() {
        // Hand-build an A record with RDLENGTH 5.
        let mut buf = Vec::new();
        DnsName::parse("x.").unwrap().encode_uncompressed(&mut buf);
        buf.extend_from_slice(&1u16.to_be_bytes()); // type A
        buf.extend_from_slice(&1u16.to_be_bytes()); // class IN
        buf.extend_from_slice(&60u32.to_be_bytes());
        buf.extend_from_slice(&5u16.to_be_bytes());
        buf.extend_from_slice(&[1, 2, 3, 4, 5]);
        let mut pos = 0;
        assert!(matches!(
            Record::decode(&buf, &mut pos, &mut DecodedNames::default()),
            Err(WireError::RdataLengthMismatch { declared: 5, .. })
        ));
    }

    /// Hand-build a record with an arbitrary RDLENGTH over `rdata` bytes.
    fn skewed(rtype: u16, rdlength: u16, rdata: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        DnsName::parse("x.").unwrap().encode_uncompressed(&mut buf);
        buf.extend_from_slice(&rtype.to_be_bytes());
        buf.extend_from_slice(&1u16.to_be_bytes()); // class IN
        buf.extend_from_slice(&60u32.to_be_bytes());
        buf.extend_from_slice(&rdlength.to_be_bytes());
        buf.extend_from_slice(rdata);
        buf
    }

    #[test]
    fn ns_rdlength_underrun_rejected() {
        // Regression (parser-confusion class): RDLENGTH 5 over an NS name
        // that only spans 3 bytes. Without the consumed-exactly check the
        // 2 surplus bytes would be reparsed as the next record's owner
        // name, desynchronizing every record that follows.
        let buf = skewed(2, 5, &[1, b'a', 0, 0xC0, 0x00]);
        let mut pos = 0;
        assert_eq!(
            Record::decode(&buf, &mut pos, &mut DecodedNames::default()),
            Err(WireError::RdataLengthMismatch {
                declared: 5,
                consumed: 3,
            })
        );
    }

    #[test]
    fn cname_rdlength_overrun_rejected() {
        // RDLENGTH 2 over a CNAME name spanning 3 bytes: the name reads
        // one byte past the declared RDATA end, stealing it from the next
        // record.
        let buf = skewed(5, 2, &[1, b'a', 0]);
        let mut pos = 0;
        assert_eq!(
            Record::decode(&buf, &mut pos, &mut DecodedNames::default()),
            Err(WireError::RdataLengthMismatch {
                declared: 2,
                consumed: 3,
            })
        );
    }

    #[test]
    fn mx_rdlength_skew_rejected() {
        // Preference (2 bytes) + root exchange (1 byte) = 3 consumed, 4
        // declared.
        let buf = skewed(15, 4, &[0, 10, 0, 0]);
        let mut pos = 0;
        assert_eq!(
            Record::decode(&buf, &mut pos, &mut DecodedNames::default()),
            Err(WireError::RdataLengthMismatch {
                declared: 4,
                consumed: 3,
            })
        );
    }

    #[test]
    fn soa_roundtrip() {
        let soa = SoaData {
            mname: DnsName::parse("ns1.example.").unwrap(),
            rname: DnsName::parse("hostmaster.example.").unwrap(),
            serial: 2021042001,
            refresh: 7200,
            retry: 3600,
            expire: 1209600,
            minimum: 300,
        };
        let r = Record {
            name: DnsName::parse("example.").unwrap(),
            class: Class::In,
            ttl: 3600,
            rdata: RData::Soa(soa),
        };
        assert_eq!(roundtrip(&r), r);
    }

    #[test]
    fn txt_multi_segment_roundtrip() {
        let r = Record {
            name: DnsName::parse("version.bind.").unwrap(),
            class: Class::Ch,
            ttl: 0,
            rdata: RData::Txt(vec![b"MikroTik".to_vec(), b"RouterOS 6.45".to_vec()]),
        };
        assert_eq!(roundtrip(&r), r);
    }

    #[test]
    fn txt_segment_too_long_rejected_on_encode() {
        let r = Record {
            name: DnsName::parse("t.").unwrap(),
            class: Class::In,
            ttl: 0,
            rdata: RData::Txt(vec![vec![b'x'; 256]]),
        };
        let mut buf = Vec::new();
        let mut offsets = NameOffsets::default();
        assert!(matches!(
            r.encode(&mut buf, &mut offsets),
            Err(WireError::TxtSegmentTooLong(256))
        ));
    }

    #[test]
    fn unknown_type_preserved_opaquely() {
        let r = Record {
            name: DnsName::parse("odd.example.").unwrap(),
            class: Class::In,
            ttl: 60,
            rdata: RData::Unknown {
                rtype: 99,
                data: vec![0xDE, 0xAD, 0xBE, 0xEF],
            },
        };
        let back = roundtrip(&r);
        assert_eq!(back, r);
        assert_eq!(back.rtype(), RrType::Other(99));
    }

    #[test]
    fn mx_and_ns_and_cname_roundtrip() {
        for rdata in [
            RData::Mx {
                preference: 10,
                exchange: DnsName::parse("mail.example.").unwrap(),
            },
            RData::Ns(DnsName::parse("ns1.example.").unwrap()),
            RData::Cname(DnsName::parse("alias.example.").unwrap()),
            RData::Ptr(DnsName::parse("host.example.").unwrap()),
        ] {
            let r = Record {
                name: DnsName::parse("owner.example.").unwrap(),
                class: Class::In,
                ttl: 120,
                rdata,
            };
            assert_eq!(roundtrip(&r), r);
        }
    }

    #[test]
    fn rrtype_wire_values() {
        assert_eq!(RrType::A.to_u16(), 1);
        assert_eq!(RrType::Any.to_u16(), 255);
        assert_eq!(RrType::from_u16(16), RrType::Txt);
        assert_eq!(RrType::from_u16(9999), RrType::Other(9999));
    }

    #[test]
    fn display_matches_zone_file_style() {
        let r = Record::a(
            DnsName::parse("odns-study.example.").unwrap(),
            300,
            Ipv4Addr::new(192, 0, 2, 200),
        );
        assert_eq!(r.to_string(), "odns-study.example. 300 IN A 192.0.2.200");
    }
}
