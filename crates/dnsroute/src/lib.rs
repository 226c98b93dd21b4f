//! # dnsroute — DNSRoute++ (§5 of the paper)
//!
//! A traceroute variant that sends DNS queries as probes and **continues
//! incrementing the TTL past the target**. Against transparent forwarders
//! this exposes (i) every hop between scanner and forwarder, (ii) the
//! forwarder itself (its IP stack answers Time Exceeded), and (iii) every
//! hop between the forwarder and the recursive resolver it secretly uses —
//! because the relayed probe keeps the scanner's (spoofed) source address,
//! all error messages come home.
//!
//! Three stages mirror the paper:
//!
//! 1. [`run_dnsroute`] — the sweep itself;
//! 2. [`sanitize()`] — drop incomplete/anomalous traces ("over 70k paths …
//!    after sanitization");
//! 3. [`infer_relationships`] — `AS_in == AS_out` provider-customer
//!    inference, evaluated against a CAIDA-like baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod asrel;
pub mod sanitize;
pub mod trace;

pub use asrel::{infer_relationships, InferenceReport, InferredRelationship};
pub use sanitize::{check_trace, sanitize, ForwarderPath, SanitizeStats, TraceReject};
pub use trace::{run_dnsroute, DnsEndpoint, DnsRouteConfig, DnsRoutePlusPlus, TraceResult};
