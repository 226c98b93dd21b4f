//! # dnswire — DNS wire format (RFC 1035 subset), from scratch
//!
//! This crate implements the DNS wire format used by every component of the
//! transparent-forwarders reproduction: the scanner, the authoritative name
//! server, recursive resolvers, and both forwarder types. It provides:
//!
//! * [`DnsName`] — domain names with full label semantics and
//!   case-insensitive comparison, stored as one shared buffer in
//!   uncompressed wire form (clone is a refcount bump; `==`, hashing and
//!   ordering never allocate), and wire encoding/decoding including
//!   **message compression** (RFC 1035 §4.1.4 pointers), with loop
//!   protection on decode.
//! * [`Header`] / [`Flags`] — the 12-byte DNS header with all RFC 1035 bits
//!   plus AD/CD from RFC 4035.
//! * [`Question`], [`Record`], [`RData`] — question and resource-record
//!   sections with typed RDATA for the types the study needs (A, NS, CNAME,
//!   SOA, PTR, MX, TXT, OPT).
//! * [`Message`] — full message encode/decode.
//! * [`MessageBuilder`] — ergonomic construction of queries and responses.
//! * [`walk_sections`] — a zero-allocation structural check of an encoded
//!   message, for relays that pass the bytes on instead of decoding them.
//! * [`view_query`] / [`view_answer_a`] / [`view_referral`] —
//!   zero-allocation reads of the study's one query shape, one answer shape
//!   and one delegation shape, for hosts and the classifier; anything else
//!   they decline, and the caller decodes.
//!
//! The codec is built for the census's cold path, where every message is
//! seen once and nothing can be cached: encoding compresses against the
//! bytes already in the output buffer ([`NameOffsets`] — an inline offset
//! table, no per-suffix keys), decoding assembles each name on the stack
//! and lets names that are bare pointers share the buffer of the name they
//! point at ([`DecodedNames`]). The study's 2-A response costs one
//! allocation to encode and three to decode; `tests/alloc_budget.rs` holds
//! a budget of two and four, and `tests/golden_wire.rs` pins the bytes.
//!
//! The codec is strict on encode (never emits malformed packets) and tolerant
//! on decode where the paper's measurement method requires it (e.g. responses
//! from middleboxes with unknown RR types are preserved as opaque bytes so the
//! sanitization step in the `analysis` crate can reject them explicitly).
//!
//! ## Example
//!
//! ```
//! use dnswire::{DnsName, Message, MessageBuilder, RrType};
//!
//! let q = MessageBuilder::query(0x2861, DnsName::parse("odns-study.example.").unwrap(), RrType::A)
//!     .recursion_desired(true)
//!     .build();
//! let bytes = q.encode();
//! let decoded = Message::decode(&bytes).unwrap();
//! assert_eq!(decoded.header.id, 0x2861);
//! assert_eq!(decoded.questions[0].qname.to_string(), "odns-study.example.");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod header;
mod message;
mod name;
mod question;
mod rdata;
mod walk;

pub mod builder;
// detlint::allow(needless-pub): the wirefuzz binary reads its seed, iteration count and view floor from `fuzz::`
pub mod fuzz;
pub mod template;

pub use builder::MessageBuilder;
pub use error::WireError;
pub use fuzz::{run_fuzz, FuzzFailure, FuzzReport};
pub use header::{Flags, Header, Opcode, Rcode, HEADER_LEN};
pub use message::{peek_id, peek_qr, Message};
pub use name::{DecodedNames, DnsName, Labels, NameOffsets};
pub use question::{QClass, Question};
pub use rdata::{Class, RData, Record, RrType, SoaData};
pub use template::ResponseTemplate;
pub use walk::{
    view_answer_a, view_query, view_referral, walk_sections, AnswerAView, QueryView, ReferralView,
    SectionWalk,
};

/// Maximum length of a DNS message this crate will encode or decode.
///
/// The study scans DNS over UDP only (§6 of the paper: DoT/DoH cannot be
/// transparently forwarded because connections conflict with spoofing), so we
/// cap messages at the classic EDNS0 buffer size.
pub const MAX_MESSAGE_LEN: usize = 4096;

/// The well-known DNS server port.
pub const DNS_PORT: u16 = 53;
