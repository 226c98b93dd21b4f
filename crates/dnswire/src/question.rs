//! The question section (RFC 1035 §4.1.2).

use crate::error::WireError;
use crate::name::{DecodedNames, DnsName, NameOffsets};
use crate::rdata::RrType;
use std::fmt;

/// Query class. The study only ever uses `IN`, but `ANY` (255) appears in
/// amplification traffic and `CH` in fingerprinting probes
/// (`version.bind CH TXT`), so all are modeled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QClass {
    /// Internet.
    In,
    /// Chaos — used by `version.bind` fingerprinting.
    Ch,
    /// Hesiod.
    Hs,
    /// QCLASS `*` (ANY).
    Any,
    /// Anything else, preserved.
    Other(u16),
}

impl QClass {
    /// Wire value.
    pub fn to_u16(self) -> u16 {
        match self {
            QClass::In => 1,
            QClass::Ch => 3,
            QClass::Hs => 4,
            QClass::Any => 255,
            QClass::Other(v) => v,
        }
    }

    /// From wire value.
    pub fn from_u16(v: u16) -> Self {
        match v {
            1 => QClass::In,
            3 => QClass::Ch,
            4 => QClass::Hs,
            255 => QClass::Any,
            other => QClass::Other(other),
        }
    }
}

impl fmt::Display for QClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QClass::In => write!(f, "IN"),
            QClass::Ch => write!(f, "CH"),
            QClass::Hs => write!(f, "HS"),
            QClass::Any => write!(f, "ANY"),
            QClass::Other(v) => write!(f, "CLASS{v}"),
        }
    }
}

/// A single entry of the question section.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Question {
    /// QNAME.
    pub qname: DnsName,
    /// QTYPE (shares the RR type space, plus QTYPE-only values like ANY).
    pub qtype: RrType,
    /// QCLASS.
    pub qclass: QClass,
}

impl Question {
    /// Convenience constructor for the usual `IN` class.
    pub fn new(qname: DnsName, qtype: RrType) -> Self {
        Question {
            qname,
            qtype,
            qclass: QClass::In,
        }
    }

    /// Encode with compression, appending to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>, offsets: &mut NameOffsets) {
        self.qname.encode_compressed(buf, offsets);
        buf.extend_from_slice(&self.qtype.to_u16().to_be_bytes());
        buf.extend_from_slice(&self.qclass.to_u16().to_be_bytes());
    }

    /// Decode from `msg` at `pos`, advancing it; `names` is the message's
    /// [`DnsName::decode_shared`] state.
    pub fn decode(
        msg: &[u8],
        pos: &mut usize,
        names: &mut DecodedNames,
    ) -> Result<Self, WireError> {
        let qname = DnsName::decode_shared(msg, pos, names)?;
        if msg.len() < *pos + 4 {
            return Err(WireError::Truncated {
                context: "question fixed part",
            });
        }
        let qtype = RrType::from_u16(u16::from_be_bytes([msg[*pos], msg[*pos + 1]]));
        let qclass = QClass::from_u16(u16::from_be_bytes([msg[*pos + 2], msg[*pos + 3]]));
        *pos += 4;
        Ok(Question {
            qname,
            qtype,
            qclass,
        })
    }
}

impl fmt::Display for Question {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.qname, self.qclass, self.qtype)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qclass_roundtrip() {
        for v in [1u16, 3, 4, 255, 42] {
            assert_eq!(QClass::from_u16(v).to_u16(), v);
        }
    }

    #[test]
    fn question_encode_decode() {
        let q = Question::new(DnsName::parse("odns-study.example.").unwrap(), RrType::A);
        let mut buf = Vec::new();
        let mut offsets = NameOffsets::default();
        q.encode(&mut buf, &mut offsets);
        let mut pos = 0;
        let back = Question::decode(&buf, &mut pos, &mut DecodedNames::default()).unwrap();
        assert_eq!(back, q);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn question_decode_truncated_fixed_part() {
        let mut buf = Vec::new();
        DnsName::parse("x.").unwrap().encode_uncompressed(&mut buf);
        buf.extend_from_slice(&[0, 1, 0]); // one byte short
        let mut pos = 0;
        assert!(matches!(
            Question::decode(&buf, &mut pos, &mut DecodedNames::default()),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn display_formats_like_dig() {
        let q = Question::new(DnsName::parse("example.").unwrap(), RrType::A);
        assert_eq!(q.to_string(), "example. IN A");
    }
}
