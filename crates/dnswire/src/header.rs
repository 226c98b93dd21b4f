//! The 12-byte DNS message header (RFC 1035 §4.1.1).

use crate::error::WireError;

/// Query/response operation codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// Standard query (QUERY).
    Query,
    /// Inverse query (IQUERY, obsolete but still seen in the wild).
    IQuery,
    /// Server status request (STATUS).
    Status,
    /// Zone change notification (NOTIFY).
    Notify,
    /// Dynamic update (UPDATE).
    Update,
    /// Any opcode this crate does not model, preserved verbatim.
    Other(u8),
}

impl Opcode {
    /// Wire value (4 bits).
    fn to_u8(self) -> u8 {
        match self {
            Opcode::Query => 0,
            Opcode::IQuery => 1,
            Opcode::Status => 2,
            Opcode::Notify => 4,
            Opcode::Update => 5,
            Opcode::Other(v) => v & 0x0F,
        }
    }

    /// From a 4-bit wire value.
    pub fn from_u8(v: u8) -> Self {
        match v & 0x0F {
            0 => Opcode::Query,
            1 => Opcode::IQuery,
            2 => Opcode::Status,
            4 => Opcode::Notify,
            5 => Opcode::Update,
            other => Opcode::Other(other),
        }
    }
}

/// Response codes (RCODE).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rcode {
    /// No error.
    NoError,
    /// Format error — the server could not interpret the query.
    FormErr,
    /// Server failure.
    ServFail,
    /// Name error — the domain does not exist (NXDOMAIN).
    NxDomain,
    /// Not implemented.
    NotImp,
    /// Refused — e.g. a restricted resolver rejecting an off-net client,
    /// the case that forces transparent forwarders to target *open*
    /// resolvers (§2 of the paper).
    Refused,
    /// Any other RCODE, preserved verbatim.
    Other(u8),
}

impl Rcode {
    /// Wire value (4 bits).
    fn to_u8(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
            Rcode::Other(v) => v & 0x0F,
        }
    }

    /// From a 4-bit wire value.
    pub fn from_u8(v: u8) -> Self {
        match v & 0x0F {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            other => Rcode::Other(other),
        }
    }
}

/// The header flag word (bytes 2–3 of the header).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flags {
    /// QR — true for responses.
    pub response: bool,
    /// OPCODE.
    pub opcode: Opcode,
    /// AA — authoritative answer.
    pub authoritative: bool,
    /// TC — truncation (response did not fit; scanners fall back to TCP,
    /// which the study deliberately does not do).
    pub truncated: bool,
    /// RD — recursion desired.
    pub recursion_desired: bool,
    /// RA — recursion available.
    pub recursion_available: bool,
    /// AD — authentic data (RFC 4035); carried through untouched.
    pub authentic_data: bool,
    /// CD — checking disabled (RFC 4035); carried through untouched.
    pub checking_disabled: bool,
    /// RCODE.
    pub rcode: Rcode,
}

impl Default for Flags {
    fn default() -> Self {
        Flags {
            response: false,
            opcode: Opcode::Query,
            authoritative: false,
            truncated: false,
            recursion_desired: false,
            recursion_available: false,
            authentic_data: false,
            checking_disabled: false,
            rcode: Rcode::NoError,
        }
    }
}

impl Flags {
    /// Pack into the 16-bit wire representation.
    pub fn to_u16(self) -> u16 {
        let mut v = 0u16;
        if self.response {
            v |= 0x8000;
        }
        v |= (self.opcode.to_u8() as u16) << 11;
        if self.authoritative {
            v |= 0x0400;
        }
        if self.truncated {
            v |= 0x0200;
        }
        if self.recursion_desired {
            v |= 0x0100;
        }
        if self.recursion_available {
            v |= 0x0080;
        }
        if self.authentic_data {
            v |= 0x0020;
        }
        if self.checking_disabled {
            v |= 0x0010;
        }
        v |= self.rcode.to_u8() as u16;
        v
    }

    /// Unpack from the 16-bit wire representation. The Z bit (0x0040) is
    /// ignored, as RFC 1035 requires.
    pub fn from_u16(v: u16) -> Self {
        Flags {
            response: v & 0x8000 != 0,
            opcode: Opcode::from_u8((v >> 11) as u8),
            authoritative: v & 0x0400 != 0,
            truncated: v & 0x0200 != 0,
            recursion_desired: v & 0x0100 != 0,
            recursion_available: v & 0x0080 != 0,
            authentic_data: v & 0x0020 != 0,
            checking_disabled: v & 0x0010 != 0,
            rcode: Rcode::from_u8(v as u8),
        }
    }
}

/// The full DNS header: ID, flags, and the four section counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Header {
    /// Transaction ID. The transactional scanner (§4.1) encodes probe
    /// identity into `(source port, id)` tuples, so uniqueness of this field
    /// within a port is load-bearing for the whole study.
    pub id: u16,
    /// Flag word.
    pub flags: Flags,
    /// QDCOUNT.
    pub qdcount: u16,
    /// ANCOUNT.
    pub ancount: u16,
    /// NSCOUNT.
    pub nscount: u16,
    /// ARCOUNT.
    pub arcount: u16,
}

/// Size of the header on the wire.
pub const HEADER_LEN: usize = 12;

impl Header {
    /// Encode into exactly 12 bytes ([`HEADER_LEN`]), appended to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.id.to_be_bytes());
        buf.extend_from_slice(&self.flags.to_u16().to_be_bytes());
        buf.extend_from_slice(&self.qdcount.to_be_bytes());
        buf.extend_from_slice(&self.ancount.to_be_bytes());
        buf.extend_from_slice(&self.nscount.to_be_bytes());
        buf.extend_from_slice(&self.arcount.to_be_bytes());
    }

    /// Decode from the front of `msg`, advancing `pos`.
    pub fn decode(msg: &[u8], pos: &mut usize) -> Result<Self, WireError> {
        if msg.len() < *pos + HEADER_LEN {
            return Err(WireError::Truncated { context: "header" });
        }
        let b = &msg[*pos..];
        let h = Header {
            id: u16::from_be_bytes([b[0], b[1]]),
            flags: Flags::from_u16(u16::from_be_bytes([b[2], b[3]])),
            qdcount: u16::from_be_bytes([b[4], b[5]]),
            ancount: u16::from_be_bytes([b[6], b[7]]),
            nscount: u16::from_be_bytes([b[8], b[9]]),
            arcount: u16::from_be_bytes([b[10], b[11]]),
        };
        *pos += HEADER_LEN;
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_roundtrip_all_bits() {
        let f = Flags {
            response: true,
            opcode: Opcode::Status,
            authoritative: true,
            truncated: true,
            recursion_desired: true,
            recursion_available: true,
            authentic_data: true,
            checking_disabled: true,
            rcode: Rcode::Refused,
        };
        assert_eq!(Flags::from_u16(f.to_u16()), f);
    }

    #[test]
    fn z_bit_ignored() {
        let with_z = 0x0040u16;
        let f = Flags::from_u16(with_z);
        assert_eq!(f, Flags::default());
        assert_eq!(f.to_u16() & 0x0040, 0, "Z bit never re-emitted");
    }

    #[test]
    fn opcode_rcode_unknown_values_preserved() {
        assert_eq!(Opcode::from_u8(9), Opcode::Other(9));
        assert_eq!(Opcode::Other(9).to_u8(), 9);
        assert_eq!(Rcode::from_u8(11), Rcode::Other(11));
        assert_eq!(Rcode::Other(11).to_u8(), 11);
    }

    #[test]
    fn header_encode_decode_roundtrip() {
        let h = Header {
            id: 0xBEEF,
            flags: Flags {
                response: true,
                recursion_available: true,
                ..Flags::default()
            },
            qdcount: 1,
            ancount: 2,
            nscount: 0,
            arcount: 1,
        };
        let mut buf = Vec::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), HEADER_LEN);
        let mut pos = 0;
        let back = Header::decode(&buf, &mut pos).unwrap();
        assert_eq!(back, h);
        assert_eq!(pos, HEADER_LEN);
    }

    #[test]
    fn header_decode_truncated() {
        let buf = [0u8; 11];
        let mut pos = 0;
        assert!(matches!(
            Header::decode(&buf, &mut pos),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn known_wire_layout() {
        // ID=0x1234, QR=1 RD=1 RA=1 RCODE=NXDOMAIN, counts 1,0,0,0.
        let h = Header {
            id: 0x1234,
            flags: Flags {
                response: true,
                recursion_desired: true,
                recursion_available: true,
                rcode: Rcode::NxDomain,
                ..Flags::default()
            },
            qdcount: 1,
            ..Header::default()
        };
        let mut buf = Vec::new();
        h.encode(&mut buf);
        assert_eq!(
            buf,
            vec![0x12, 0x34, 0x81, 0x83, 0x00, 0x01, 0, 0, 0, 0, 0, 0]
        );
    }
}
