//! ODNS component classification — the §4.1 rules.
//!
//! Given a correlated transaction, the classifier applies:
//!
//! ```text
//! Transparent Forwarder  if IP_target ≠ IP_response
//! Recursive Forwarder    if IP_target = IP_response ∧ IP_response ≠ A_resolver
//! Recursive Resolver     if IP_target = IP_response ∧ IP_response = A_resolver
//! ```
//!
//! where `A_resolver` is the dynamic A record (the authoritative server's
//! reflection of its immediate client) and the static control record must
//! be present and unaltered for the response to count at all (strict
//! sanitization, §4.2).

use crate::records::Transaction;
use std::fmt;
use std::net::Ipv4Addr;

/// The three ODNS component classes of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OdnsClass {
    /// Relays with spoofed (preserved) client source; resolver answers the
    /// client directly.
    TransparentForwarder,
    /// Rewrites the source; answers come back from the probed address but
    /// resolution happened elsewhere.
    RecursiveForwarder,
    /// Resolves itself; the probed address *is* the resolver.
    RecursiveResolver,
}

impl OdnsClass {
    /// All classes, in the paper's table order.
    pub fn all() -> [OdnsClass; 3] {
        [
            OdnsClass::RecursiveResolver,
            OdnsClass::RecursiveForwarder,
            OdnsClass::TransparentForwarder,
        ]
    }

    /// Display label matching the paper.
    #[inline]
    pub fn name(self) -> &'static str {
        match self {
            OdnsClass::TransparentForwarder => "Transparent Forwarder",
            OdnsClass::RecursiveForwarder => "Recursive Forwarder",
            OdnsClass::RecursiveResolver => "Recursive Resolver",
        }
    }
}

impl fmt::Display for OdnsClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Why a response was discarded instead of classified.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Discard {
    /// No response within the timeout.
    NoResponse,
    /// Payload did not parse as DNS.
    Malformed,
    /// Non-zero RCODE or empty answer section.
    NoAnswer,
    /// Strict sanitization: expected exactly two A records.
    WrongRecordCount,
    /// Strict sanitization: the static control record was missing or
    /// altered — a manipulated response (§4.2).
    ControlRecordViolated,
}

impl Discard {
    /// The reason's name, as the census CSV's verdict column writes it.
    #[inline]
    pub fn name(self) -> &'static str {
        match self {
            Discard::NoResponse => "NoResponse",
            Discard::Malformed => "Malformed",
            Discard::NoAnswer => "NoAnswer",
            Discard::WrongRecordCount => "WrongRecordCount",
            Discard::ControlRecordViolated => "ControlRecordViolated",
        }
    }
}

/// Result of classifying one transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A valid ODNS component, with the resolver address it exposed.
    Classified {
        /// The component class.
        class: OdnsClass,
        /// `A_resolver` — the dynamic record (the resolver's egress as the
        /// authoritative server saw it).
        a_resolver: Ipv4Addr,
        /// `IP_response` — who answered the scanner.
        response_src: Ipv4Addr,
    },
    /// Discarded, with the reason.
    Discarded(Discard),
}

impl Verdict {
    /// The class, if classified.
    #[inline]
    pub fn class(&self) -> Option<OdnsClass> {
        match self {
            Verdict::Classified { class, .. } => Some(*class),
            Verdict::Discarded(_) => None,
        }
    }
}

/// Classifier configuration.
#[derive(Debug, Clone, Copy)]
pub struct ClassifierConfig {
    /// Strict mode requires both A records with the static control record
    /// ([`odns::study::CONTROL_A`]) intact (the paper's default).
    /// Non-strict accepts any answer with ≥1 A record — the
    /// Shadowserver-compatible ablation that "leads to similar numbers
    /// than Shadowserver" (§4.2).
    pub strict: bool,
}

impl Default for ClassifierConfig {
    fn default() -> Self {
        ClassifierConfig { strict: true }
    }
}

impl ClassifierConfig {
    /// The Shadowserver-compatible relaxed configuration.
    pub fn relaxed() -> Self {
        ClassifierConfig { strict: false }
    }
}

/// Classify one correlated transaction.
///
/// The rules read an RCODE and two addresses. A response in the study's
/// own shape gives them up to [`dnswire::view_answer_a`] without being
/// decoded; any other (a CNAME chain, an OPT record, uncompressed owners,
/// garbage) is decoded, so [`Discard::Malformed`] means exactly that
/// [`dnswire::Message::decode`] failed.
#[inline]
pub fn classify(t: &Transaction, config: &ClassifierConfig) -> Verdict {
    let Some(response) = &t.response else {
        return Verdict::Discarded(Discard::NoResponse);
    };
    let answer = if let Some(view) = dnswire::view_answer_a(&response.payload) {
        read_answer(view.rcode, view.addrs(), config)
    } else if let Some(msg) = response.message() {
        let addrs = msg.answers.iter().filter_map(|r| r.a_addr());
        read_answer(msg.header.flags.rcode, addrs, config)
    } else {
        Err(Discard::Malformed)
    };
    let a_resolver = match answer {
        Ok(a_resolver) => a_resolver,
        Err(reason) => return Verdict::Discarded(reason),
    };

    let class = if t.probe.target != response.src {
        OdnsClass::TransparentForwarder
    } else if response.src != a_resolver {
        OdnsClass::RecursiveForwarder
    } else {
        OdnsClass::RecursiveResolver
    };
    Verdict::Classified {
        class,
        a_resolver,
        response_src: response.src,
    }
}

/// `A_resolver` out of a response's RCODE and the A addresses of its
/// answer section (in order), or why the response does not count.
fn read_answer(
    rcode: dnswire::Rcode,
    mut addrs: impl Iterator<Item = Ipv4Addr>,
    config: &ClassifierConfig,
) -> Result<Ipv4Addr, Discard> {
    let Some(first) = addrs.next().filter(|_| rcode == dnswire::Rcode::NoError) else {
        return Err(Discard::NoAnswer);
    };
    if !config.strict {
        // Relaxed: first A record wins, no control check.
        return Ok(first);
    }
    let (Some(second), None) = (addrs.next(), addrs.next()) else {
        return Err(Discard::WrongRecordCount);
    };
    // Dynamic record first, control second (the study zone's layout);
    // accept either order but the control value must appear exactly
    // once and unaltered.
    let control = odns::study::CONTROL_A;
    match (first == control, second == control) {
        (false, true) => Ok(first),
        (true, false) => Ok(second),
        _ => Err(Discard::ControlRecordViolated),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::{ProbeRecord, ResponseRecord};
    use dnswire::{DnsName, MessageBuilder, Record, RrType};
    use netsim::SimTime;

    const TARGET: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 1);
    const RESOLVER: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 50);
    const CONTROL: Ipv4Addr = odns::study::CONTROL_A;

    fn tx(response_src: Ipv4Addr, addrs: &[Ipv4Addr]) -> Transaction {
        let qname = DnsName::parse("odns-study.example.").unwrap();
        let query = MessageBuilder::query(7, qname.clone(), RrType::A).build();
        let mut resp = MessageBuilder::response_to(&query)
            .recursion_available(true)
            .build();
        for a in addrs {
            resp.answers.push(Record::a(qname.clone(), 300, *a));
        }
        Transaction {
            probe: ProbeRecord {
                index: 0,
                target: TARGET,
                sent_at: SimTime(0),
                src_port: 34000,
                txid: 7,
            },
            response: Some(ResponseRecord {
                received_at: SimTime(1_000),
                src: response_src,
                dst_port: 34000,
                payload: resp.encode().into(),
            }),
        }
    }

    fn cfg() -> ClassifierConfig {
        ClassifierConfig::default()
    }

    #[test]
    fn transparent_forwarder_rule() {
        // Response arrives from the resolver, not the probed IP.
        let v = classify(&tx(RESOLVER, &[RESOLVER, CONTROL]), &cfg());
        assert_eq!(v.class(), Some(OdnsClass::TransparentForwarder));
        match v {
            Verdict::Classified {
                a_resolver,
                response_src,
                ..
            } => {
                assert_eq!(a_resolver, RESOLVER);
                assert_eq!(response_src, RESOLVER);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn recursive_forwarder_rule() {
        // Probed IP answers, but the auth saw a different client.
        let v = classify(&tx(TARGET, &[RESOLVER, CONTROL]), &cfg());
        assert_eq!(v.class(), Some(OdnsClass::RecursiveForwarder));
    }

    #[test]
    fn recursive_resolver_rule() {
        // Probed IP answers and is itself the auth's client.
        let v = classify(&tx(TARGET, &[TARGET, CONTROL]), &cfg());
        assert_eq!(v.class(), Some(OdnsClass::RecursiveResolver));
    }

    #[test]
    fn control_record_order_tolerated() {
        let v = classify(&tx(TARGET, &[CONTROL, TARGET]), &cfg());
        assert_eq!(v.class(), Some(OdnsClass::RecursiveResolver));
    }

    #[test]
    fn manipulation_discarded_in_strict_mode() {
        // Control record replaced by an ad server: manipulated.
        let bad_control = Ipv4Addr::new(10, 66, 66, 66);
        let v = classify(&tx(TARGET, &[TARGET, bad_control]), &cfg());
        assert_eq!(v, Verdict::Discarded(Discard::ControlRecordViolated));
        // Single record: wrong count.
        let v = classify(&tx(TARGET, &[TARGET]), &cfg());
        assert_eq!(v, Verdict::Discarded(Discard::WrongRecordCount));
        // Both records claiming control value: ambiguous, discard.
        let v = classify(&tx(TARGET, &[CONTROL, CONTROL]), &cfg());
        assert_eq!(v, Verdict::Discarded(Discard::ControlRecordViolated));
    }

    #[test]
    fn relaxed_mode_accepts_single_record() {
        // The §4.2 ablation: without the strict check we count like
        // Shadowserver.
        let v = classify(&tx(TARGET, &[TARGET]), &ClassifierConfig::relaxed());
        assert_eq!(v.class(), Some(OdnsClass::RecursiveResolver));
        let v = classify(&tx(TARGET, &[RESOLVER]), &ClassifierConfig::relaxed());
        assert_eq!(v.class(), Some(OdnsClass::RecursiveForwarder));
    }

    #[test]
    fn no_response_and_malformed_discards() {
        let t = Transaction {
            probe: ProbeRecord {
                index: 0,
                target: TARGET,
                sent_at: SimTime(0),
                src_port: 1,
                txid: 1,
            },
            response: None,
        };
        assert_eq!(
            classify(&t, &cfg()),
            Verdict::Discarded(Discard::NoResponse)
        );

        let mut t2 = tx(TARGET, &[TARGET, CONTROL]);
        t2.response.as_mut().unwrap().payload = vec![1, 2, 3].into();
        assert_eq!(
            classify(&t2, &cfg()),
            Verdict::Discarded(Discard::Malformed)
        );
    }

    #[test]
    fn discard_names_are_pinned() {
        // The census CSV writes these bytes: a renamed variant must not
        // move them.
        let names = [
            (Discard::NoResponse, "NoResponse"),
            (Discard::Malformed, "Malformed"),
            (Discard::NoAnswer, "NoAnswer"),
            (Discard::WrongRecordCount, "WrongRecordCount"),
            (Discard::ControlRecordViolated, "ControlRecordViolated"),
        ];
        for (reason, name) in names {
            assert_eq!(reason.name(), name);
        }
    }

    #[test]
    fn empty_answer_discarded() {
        let v = classify(&tx(TARGET, &[]), &cfg());
        assert_eq!(v, Verdict::Discarded(Discard::NoAnswer));
    }

    #[test]
    fn classification_is_total_over_answered_shapes() {
        // Every two-record response with intact control maps to exactly one
        // class (the rules partition the space).
        let others = [TARGET, RESOLVER, Ipv4Addr::new(7, 7, 7, 7)];
        for response_src in others {
            for a_resolver in others {
                let v = classify(&tx(response_src, &[a_resolver, CONTROL]), &cfg());
                assert!(v.class().is_some(), "src={response_src} a={a_resolver}");
            }
        }
    }
}
