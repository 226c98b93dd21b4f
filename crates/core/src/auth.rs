//! The study's authoritative name server.
//!
//! Implements the *source-specific response* method of §2/§4.1: every
//! answer carries two A records —
//!
//! 1. a **dynamic record** holding the IP address of the immediate client
//!    (for a forwarded query this is the recursive resolver's egress, the
//!    `A_resolver` of the classification rules), and
//! 2. a **static control record** ([`crate::study::CONTROL_A`]) whose value
//!    never changes, used to detect in-path manipulation.
//!
//! It also answers the *query-encoding* method's destination-encoded names
//! (`a-b-c-d.scan.<zone>`), whose target [`study::decode_target_name`]
//! reads back: Table 2's "detection at server" property. Zone, names,
//! control record and TTL are the [`crate::study`] constants.
//!
//! Every resolver of a census asks the static name once, in the same bytes.
//! The server answers a query equal past the transaction ID to the last one
//! it decoded by replaying that reply with the new ID and the new client's
//! address in its dynamic record; anything else — another casing, RD bit,
//! name or type — is decoded, answered from scratch and remembered. Any
//! query but a plain `IN` one is refused.

use crate::memo::ReplyMemo;
use crate::study::{self, ANSWER_TTL, CONTROL_A};
use dnswire::{DnsName, Message, MessageBuilder, Rcode, Record, RrType, SoaData};
use netsim::{Ctx, Datagram, Host, Payload, UdpSend};
use std::net::Ipv4Addr;

/// Counters kept by the server.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuthStats {
    /// Queries received, refused ones included.
    pub queries_received: u64,
    /// Responses sent.
    pub responses_sent: u64,
    /// Queries for names outside the zone (refused).
    pub out_of_zone: u64,
    /// NXDOMAIN answers for unknown in-zone names.
    pub nxdomain: u64,
}

/// The authoritative server host.
#[derive(Debug)]
pub struct StudyAuthServer {
    zone: DnsName,
    static_qname: DnsName,
    /// The last reply, for the next query equal to the one it answered.
    memo: Option<ReplyMemo>,
    /// Counters.
    pub stats: AuthStats,
}

impl Default for StudyAuthServer {
    fn default() -> Self {
        Self::new()
    }
}

impl StudyAuthServer {
    /// The study's server.
    pub fn new() -> Self {
        StudyAuthServer {
            zone: study::study_zone(),
            static_qname: study::study_qname(),
            memo: None,
            stats: AuthStats::default(),
        }
    }

    /// The SOA record for the study zone (used in negative responses; its
    /// MINIMUM field drives negative-caching duration, the §6 cache
    /// pollution mechanism).
    fn soa_record(&self) -> Record {
        Record {
            name: self.zone.clone(),
            class: dnswire::Class::In,
            ttl: ANSWER_TTL,
            rdata: dnswire::RData::Soa(SoaData {
                mname: DnsName::parse("ns1.odns-study.example.").expect("static name"),
                rname: DnsName::parse("hostmaster.odns-study.example.").expect("static name"),
                serial: 20210420,
                refresh: 7200,
                retry: 3600,
                expire: 1_209_600,
                minimum: ANSWER_TTL,
            }),
        }
    }

    /// The answer to `query`, a plain `IN` query from `client`.
    fn answer(&self, query: &Message, client: Ipv4Addr) -> Message {
        let q = &query.questions[0];
        let qname = &q.qname;
        let mut builder = MessageBuilder::response_to(query).authoritative(true);

        let in_zone = qname.is_subdomain_of(&self.zone);
        if !in_zone {
            return builder.rcode(Rcode::Refused).build();
        }

        let is_static = *qname == self.static_qname;
        let is_encoded = study::decode_target_name(qname).is_some();
        if is_static || is_encoded {
            match q.qtype {
                RrType::A | RrType::Any => {
                    // Dynamic client-reflecting record first, control second
                    // (Figure 7's layout).
                    builder = builder
                        .answer(Record::a(qname.clone(), ANSWER_TTL, client))
                        .answer(Record::a(qname.clone(), ANSWER_TTL, CONTROL_A));
                    if q.qtype == RrType::Any {
                        // ANY also returns the SOA — a little extra
                        // amplification, as real zones provide (§6).
                        builder = builder.answer(self.soa_record());
                    }
                    builder.build()
                }
                RrType::Soa => builder.answer(self.soa_record()).build(),
                RrType::Txt => builder
                    .answer(Record::txt(
                        qname.clone(),
                        ANSWER_TTL,
                        "transparent-forwarders-study see https://odns.secnow.net",
                    ))
                    .build(),
                _ => {
                    // NODATA: empty answer, SOA in authority.
                    builder.authority(self.soa_record()).build()
                }
            }
        } else {
            builder
                .rcode(Rcode::NxDomain)
                .authority(self.soa_record())
                .build()
        }
    }

    /// Count one query answered with `rcode`.
    fn count(&mut self, rcode: Rcode) {
        self.stats.queries_received += 1;
        match rcode {
            Rcode::Refused => self.stats.out_of_zone += 1,
            Rcode::NxDomain => self.stats.nxdomain += 1,
            _ => {}
        }
        self.stats.responses_sent += 1;
    }
}

/// Where `reply`, just built for `client`, carries the client's address:
/// in the first answer, the dynamic record, when the answer section is A
/// records only ([`dnswire::view_answer_a`]; each is 16 bytes, the address
/// last). `None` for a reply that reflects no client, and for one that
/// does but in another shape (`ANY` adds an SOA), which is then not
/// remembered.
fn client_offset(reply: &[u8], client: Ipv4Addr) -> Option<usize> {
    let answers = dnswire::view_answer_a(reply)?.addrs().len();
    let at = reply.len().checked_sub(16 * answers)? + 12;
    (reply.get(at..at + 4)? == client.octets()).then_some(at)
}

impl Host for StudyAuthServer {
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
            self.count(Rcode::from_u8(reply[3]));
            ctx.send_udp(UdpSend::reply_to(&dgram, reply));
            return;
        }
        let query = match crate::query::admit(&dgram.payload) {
            None => return, // ignored, like real servers
            Some(Ok(query)) => query,
            Some(Err(refusal)) => {
                self.stats.queries_received += 1;
                self.stats.responses_sent += 1;
                ctx.send_udp(UdpSend::reply_to(&dgram, refusal));
                return;
            }
        };
        let response = self.answer(&query, dgram.src);
        self.count(response.header.flags.rcode);
        let reply: Payload = response.encode().into();
        // Only `A` and `ANY` get address records, the dynamic one first.
        let reflects = response
            .answers
            .first()
            .is_some_and(|r| r.rtype() == RrType::A);
        self.memo = match reflects.then(|| client_offset(&reply, dgram.src)) {
            // It reflects the client where a replay could not patch it.
            Some(None) => None,
            at => ReplyMemo::remember(&dgram.payload, &query, &reply, at.flatten()),
        };
        ctx.send_udp(UdpSend::reply_to(&dgram, reply));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswire::MessageBuilder;

    use netsim::testkit::Exchange;
    use netsim::SimDuration;

    const AUTH_IP: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 53);
    const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(203, 1, 113, 50);

    fn query_send(qname: &str, qtype: RrType, txid: u16) -> UdpSend {
        let q = MessageBuilder::query(txid, DnsName::parse(qname).unwrap(), qtype)
            .recursion_desired(true)
            .build();
        UdpSend::new(34111, AUTH_IP, 53, q.encode())
    }

    fn ask(server: StudyAuthServer, qname: &str, qtype: RrType, txid: u16) -> (Message, Exchange) {
        let mut ex = Exchange::new(AUTH_IP, CLIENT_IP, server);
        ex.send_at(SimDuration::ZERO, query_send(qname, qtype, txid));
        ex.run();
        let resp = Message::decode(&ex.received()[0].1.payload).unwrap();
        (resp, ex)
    }

    #[test]
    fn static_name_gets_dynamic_plus_control() {
        let (resp, ex) = ask(StudyAuthServer::new(), study::STUDY_QNAME, RrType::A, 777);
        assert_eq!(resp.header.id, 777);
        assert!(resp.header.flags.authoritative);
        assert_eq!(resp.answer_a_addrs(), vec![CLIENT_IP, study::CONTROL_A]);
        let s: &StudyAuthServer = ex.subject();
        assert_eq!(s.stats.responses_sent, 1);
    }

    #[test]
    fn encoded_name_is_logged_with_target() {
        let target = Ipv4Addr::new(203, 0, 113, 1);
        let name = study::encode_target_name(target);
        let (resp, _) = ask(StudyAuthServer::new(), &name.to_string(), RrType::A, 1);
        assert_eq!(resp.answer_a_addrs(), [CLIENT_IP, study::CONTROL_A]);
        // Detection at the server: the target reads back from the name.
        let asked = &resp.questions[0].qname;
        assert_eq!(study::decode_target_name(asked), Some(target));
    }

    #[test]
    fn out_of_zone_refused() {
        let (resp, ex) = ask(StudyAuthServer::new(), "google.com.", RrType::A, 3);
        assert_eq!(resp.header.flags.rcode, Rcode::Refused);
        let s: &StudyAuthServer = ex.subject();
        assert_eq!(s.stats.out_of_zone, 1);
    }

    #[test]
    fn unknown_in_zone_name_nxdomain_with_soa() {
        let (resp, ex) = ask(
            StudyAuthServer::new(),
            "nope.odns-study.example.",
            RrType::A,
            4,
        );
        assert_eq!(resp.header.flags.rcode, Rcode::NxDomain);
        assert_eq!(resp.authorities.len(), 1, "SOA for negative caching");
        let s: &StudyAuthServer = ex.subject();
        assert_eq!(s.stats.nxdomain, 1);
    }

    #[test]
    fn any_query_amplifies() {
        let (a, _) = ask(StudyAuthServer::new(), study::STUDY_QNAME, RrType::A, 5);
        let (any, _) = ask(StudyAuthServer::new(), study::STUDY_QNAME, RrType::Any, 6);
        let any_len = any.wire_len().expect("ANY response encodes");
        let a_len = a.wire_len().expect("A response encodes");
        assert!(
            any_len > a_len,
            "ANY response must be larger: {any_len} vs {a_len}"
        );
    }

    #[test]
    fn txt_answered_for_static_name() {
        let (resp, _) = ask(StudyAuthServer::new(), study::STUDY_QNAME, RrType::Txt, 7);
        assert_eq!(resp.answers.len(), 1);
        assert_eq!(resp.answers[0].rtype(), RrType::Txt);
    }

    #[test]
    fn non_dns_port_gets_port_unreachable() {
        let mut ex = Exchange::new(AUTH_IP, CLIENT_IP, StudyAuthServer::new());
        ex.send_at(
            SimDuration::ZERO,
            UdpSend::new(40000, AUTH_IP, 9999, vec![1, 2, 3]),
        );
        ex.run();
        assert!(ex.received().is_empty());
        assert_eq!(ex.icmp().len(), 1);
        assert_eq!(ex.icmp()[0].1.kind, netsim::IcmpKind::PortUnreachable);
    }

    #[test]
    fn responses_and_garbage_ignored() {
        let mut ex = Exchange::new(AUTH_IP, CLIENT_IP, StudyAuthServer::new());
        // A response message (QR=1) must not be answered.
        let bogus =
            MessageBuilder::query(9, DnsName::parse(study::STUDY_QNAME).unwrap(), RrType::A)
                .build()
                .response_skeleton();
        ex.send_at(
            SimDuration::ZERO,
            UdpSend::new(1000, AUTH_IP, 53, bogus.encode()),
        );
        // Garbage bytes must not crash or be answered.
        ex.send_at(
            SimDuration::from_millis(1),
            UdpSend::new(1001, AUTH_IP, 53, vec![0xFF; 9]),
        );
        ex.run();
        assert!(ex.received().is_empty());
        let s: &StudyAuthServer = ex.subject();
        assert_eq!(s.stats.responses_sent, 0);
    }
}
