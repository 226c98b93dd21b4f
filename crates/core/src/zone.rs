//! Delegation-only name servers: the simulated root and TLD layers.
//!
//! Recursive resolvers in this reproduction perform *real* iterative
//! resolution: they start at a root server, follow a referral to the TLD
//! server, and a second referral to the study's authoritative server. This
//! keeps resolver caches, referral latency, and authoritative load honest
//! for the Table 2 method comparison.
//!
//! A census walks that chain once per resolver, and every walk asks the
//! same question in the same bytes. A server therefore answers a query
//! equal past the transaction ID to the last one it decoded by replaying
//! that reply under the new ID (a crate-private reply memo), and a
//! resolver reads a referral in this crate's shape off the wire with
//! [`dnswire::view_referral`]. Everything else is decoded.

use crate::memo::ReplyMemo;
use dnswire::{Class, DnsName, Message, MessageBuilder, RData, Rcode, Record};
use netsim::{Ctx, Datagram, Host, Payload, UdpSend};
use std::net::Ipv4Addr;

/// A delegation: the subtree at `zone` is served by `ns_name` at `ns_ip`.
#[derive(Debug, Clone)]
pub struct Delegation {
    /// Apex of the delegated zone.
    pub zone: DnsName,
    /// Name server host name (cosmetic; resolution uses the glue).
    pub ns_name: DnsName,
    /// Glue address of the name server.
    pub ns_ip: Ipv4Addr,
}

/// A name server that owns `origin` and only delegates.
///
/// * Queries for names under a registered delegation get a referral
///   (authority NS + glue A in the additional section).
/// * Queries for other names under `origin` get NXDOMAIN.
/// * Queries outside `origin` get REFUSED (a root server's `origin` is the
///   root, so nothing is outside it), as does any but a plain `IN` query.
#[derive(Debug)]
pub struct DelegatingServer {
    origin: DnsName,
    delegations: Vec<Delegation>,
    ns_ttl: u32,
    /// The last reply, for the next query equal to the one it answered.
    memo: Option<ReplyMemo>,
    /// Number of queries served (root/TLD load accounting).
    pub queries_served: u64,
}

impl DelegatingServer {
    /// Create a server authoritative for `origin`.
    pub fn new(origin: DnsName) -> Self {
        DelegatingServer {
            origin,
            delegations: Vec::new(),
            ns_ttl: 172_800,
            memo: None,
            queries_served: 0,
        }
    }

    /// A root server (origin `.`).
    pub fn root() -> Self {
        Self::new(DnsName::root())
    }

    /// Register a delegation (a reply remembered before it may be stale,
    /// so it is dropped).
    pub fn delegate(&mut self, d: Delegation) -> &mut Self {
        self.delegations.push(d);
        self.memo = None;
        self
    }

    /// Longest-match delegation lookup.
    fn find_delegation(&self, qname: &DnsName) -> Option<&Delegation> {
        self.delegations
            .iter()
            .filter(|d| qname.is_subdomain_of(&d.zone))
            .max_by_key(|d| d.zone.label_count())
    }

    /// The reply to `query`, a plain `IN` query.
    fn respond(&self, query: &Message) -> Payload {
        let q = &query.questions[0];
        if !q.qname.is_subdomain_of(&self.origin) {
            return crate::query::refusal(query);
        }
        let reply = match self.find_delegation(&q.qname) {
            Some(d) => MessageBuilder::response_to(query)
                .authority(Record {
                    name: d.zone.clone(),
                    class: Class::In,
                    ttl: self.ns_ttl,
                    rdata: RData::Ns(d.ns_name.clone()),
                })
                .additional(Record::a(d.ns_name.clone(), self.ns_ttl, d.ns_ip))
                .build(),
            None => MessageBuilder::response_to(query)
                .authoritative(true)
                .rcode(Rcode::NxDomain)
                .build(),
        };
        reply.encode().into()
    }
}

impl Host for DelegatingServer {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
        if dgram.dst_port != dnswire::DNS_PORT {
            ctx.send_port_unreachable(&dgram);
            return;
        }
        let replayed = self
            .memo
            .as_ref()
            .and_then(|m| m.replay(&dgram.payload, dgram.src));
        if let Some(reply) = replayed {
            self.queries_served += 1;
            ctx.send_udp(UdpSend::reply_to(&dgram, reply));
            return;
        }
        let reply = match crate::query::admit(&dgram.payload) {
            None => return,
            Some(Ok(query)) => {
                let reply = self.respond(&query);
                self.memo = ReplyMemo::remember(&dgram.payload, &query, &reply, None);
                reply
            }
            Some(Err(refusal)) => refusal,
        };
        self.queries_served += 1;
        ctx.send_udp(UdpSend::reply_to(&dgram, reply));
    }
}

/// Referral information extracted from a delegation response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Referral {
    /// Delegated zone apex.
    pub zone: DnsName,
    /// Name server to ask next.
    pub ns_ip: Ipv4Addr,
}

/// Parse a referral out of a response: NS in authority + A glue in
/// additional. Returns `None` when the response is not a referral.
pub fn extract_referral(m: &Message) -> Option<Referral> {
    if !m.answers.is_empty() {
        return None;
    }
    let ns = m.authorities.iter().find_map(|r| match &r.rdata {
        RData::Ns(name) => Some((r.name.clone(), name.clone())),
        _ => None,
    })?;
    let glue = m
        .additionals
        .iter()
        .find_map(|r| if r.name == ns.1 { r.a_addr() } else { None })?;
    Some(Referral {
        zone: ns.0,
        ns_ip: glue,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswire::RrType;
    use netsim::testkit::Exchange;
    use netsim::SimDuration;

    const ROOT_IP: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 4);
    const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 9);

    fn example_root() -> DelegatingServer {
        let mut s = DelegatingServer::root();
        s.delegate(Delegation {
            zone: DnsName::parse("example.").unwrap(),
            ns_name: DnsName::parse("a.nic.example.").unwrap(),
            ns_ip: Ipv4Addr::new(198, 41, 1, 4),
        });
        s
    }

    fn ask(server: DelegatingServer, qname: &str) -> Message {
        let mut ex = Exchange::new(ROOT_IP, CLIENT_IP, server);
        let q = MessageBuilder::query(1, DnsName::parse(qname).unwrap(), RrType::A).build();
        ex.send_at(
            SimDuration::ZERO,
            UdpSend::new(5000, ROOT_IP, 53, q.encode()),
        );
        ex.run();
        Message::decode(&ex.received()[0].1.payload).unwrap()
    }

    #[test]
    fn referral_for_delegated_subtree() {
        let resp = ask(example_root(), "odns-study.example.");
        assert!(resp.answers.is_empty());
        let referral = extract_referral(&resp).unwrap();
        assert_eq!(referral.zone, DnsName::parse("example.").unwrap());
        assert_eq!(referral.ns_ip, Ipv4Addr::new(198, 41, 1, 4));
    }

    #[test]
    fn nxdomain_for_unknown_tld() {
        let resp = ask(example_root(), "odns-study.nowhere.");
        assert_eq!(resp.header.flags.rcode, Rcode::NxDomain);
        assert_eq!(extract_referral(&resp), None);
    }

    #[test]
    fn longest_match_wins() {
        let mut s = DelegatingServer::root();
        s.delegate(Delegation {
            zone: DnsName::parse("example.").unwrap(),
            ns_name: DnsName::parse("a.nic.example.").unwrap(),
            ns_ip: Ipv4Addr::new(198, 41, 1, 4),
        });
        s.delegate(Delegation {
            zone: DnsName::parse("odns-study.example.").unwrap(),
            ns_name: DnsName::parse("ns1.odns-study.example.").unwrap(),
            ns_ip: Ipv4Addr::new(198, 41, 2, 4),
        });
        let resp = ask(s, "odns-study.example.");
        let referral = extract_referral(&resp).unwrap();
        assert_eq!(
            referral.zone,
            DnsName::parse("odns-study.example.").unwrap()
        );
        assert_eq!(referral.ns_ip, Ipv4Addr::new(198, 41, 2, 4));
    }

    #[test]
    fn non_referral_response_yields_none() {
        let m = MessageBuilder::query(1, DnsName::parse("x.").unwrap(), RrType::A).build();
        let answered = MessageBuilder::response_to(&m)
            .answer_a(DnsName::parse("x.").unwrap(), 60, Ipv4Addr::new(1, 1, 1, 1))
            .build();
        assert_eq!(extract_referral(&answered), None);
    }

    #[test]
    fn out_of_origin_refused() {
        let mut tld = DelegatingServer::new(DnsName::parse("example.").unwrap());
        tld.delegate(Delegation {
            zone: DnsName::parse("odns-study.example.").unwrap(),
            ns_name: DnsName::parse("ns1.odns-study.example.").unwrap(),
            ns_ip: Ipv4Addr::new(198, 41, 2, 4),
        });
        let resp = ask(tld, "google.com.");
        assert_eq!(resp.header.flags.rcode, Rcode::Refused);
    }
}
