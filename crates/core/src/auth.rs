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
//! (`a-b-c-d.scan.<zone>`), logging every query so Table 2's "detection at
//! server" property can be exercised. Zone, names, control record and TTL
//! are the [`crate::study`] constants.

use crate::study::{self, ANSWER_TTL, CONTROL_A};
use dnswire::{DnsName, Message, MessageBuilder, Rcode, Record, RrType, SoaData};
use netsim::{Ctx, Datagram, Host, SimTime, UdpSend};
use std::net::Ipv4Addr;

/// One received query, as logged by the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuthLogEntry {
    /// Arrival time.
    pub time: SimTime,
    /// Immediate client (for forwarded queries: the recursive resolver).
    pub client: Ipv4Addr,
    /// Client source port.
    pub client_port: u16,
    /// Transaction ID.
    pub txid: u16,
    /// Query name.
    pub qname: DnsName,
    /// Query type.
    pub qtype: RrType,
    /// Target encoded in the name, when the query-based method is in use.
    pub encoded_target: Option<Ipv4Addr>,
}

/// Counters kept by the server.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuthStats {
    /// Queries received.
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
    keep_log: bool,
    /// Query log (empty unless built with `keep_log`).
    pub log: Vec<AuthLogEntry>,
    /// Counters.
    pub stats: AuthStats,
}

impl StudyAuthServer {
    /// The study's server. `keep_log` keeps the per-query log; a large
    /// scan leaves it off.
    pub fn new(keep_log: bool) -> Self {
        StudyAuthServer {
            zone: study::study_zone(),
            static_qname: study::study_qname(),
            keep_log,
            log: Vec::new(),
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

    fn answer(&self, query: &Message, client: Ipv4Addr) -> Message {
        let q = query.question().expect("caller checked");
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
}

impl Host for StudyAuthServer {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
        if dgram.dst_port != dnswire::DNS_PORT {
            ctx.send_port_unreachable(&dgram);
            return;
        }
        let Ok(query) = Message::decode(&dgram.payload) else {
            return; // malformed input is silently ignored, like real servers
        };
        if query.is_response() || query.question().is_none() {
            return;
        }
        self.stats.queries_received += 1;

        let q = query.question().expect("checked");
        if self.keep_log {
            self.log.push(AuthLogEntry {
                time: ctx.now(),
                client: dgram.src,
                client_port: dgram.src_port,
                txid: query.header.id,
                qname: q.qname.clone(),
                qtype: q.qtype,
                encoded_target: study::decode_target_name(&q.qname),
            });
        }

        let response = self.answer(&query, dgram.src);
        match response.header.flags.rcode {
            Rcode::Refused => self.stats.out_of_zone += 1,
            Rcode::NxDomain => self.stats.nxdomain += 1,
            _ => {}
        }
        self.stats.responses_sent += 1;
        ctx.send_udp(UdpSend::reply_to(&dgram, response.encode()));
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
        let (resp, ex) = ask(
            StudyAuthServer::new(true),
            study::STUDY_QNAME,
            RrType::A,
            777,
        );
        assert_eq!(resp.header.id, 777);
        assert!(resp.header.flags.authoritative);
        assert_eq!(resp.answer_a_addrs(), vec![CLIENT_IP, study::CONTROL_A]);
        let s: &StudyAuthServer = ex.subject();
        assert_eq!(s.stats.responses_sent, 1);
        assert_eq!(s.log.len(), 1);
        assert_eq!(s.log[0].client, CLIENT_IP);
        assert_eq!(s.log[0].encoded_target, None);
    }

    #[test]
    fn encoded_name_is_logged_with_target() {
        let target = Ipv4Addr::new(203, 0, 113, 1);
        let name = study::encode_target_name(target);
        let (resp, ex) = ask(StudyAuthServer::new(true), &name.to_string(), RrType::A, 1);
        assert_eq!(resp.answer_a_addrs()[0], CLIENT_IP);
        let s: &StudyAuthServer = ex.subject();
        assert_eq!(s.log[0].encoded_target, Some(target));
    }

    #[test]
    fn out_of_zone_refused() {
        let (resp, ex) = ask(StudyAuthServer::new(true), "google.com.", RrType::A, 3);
        assert_eq!(resp.header.flags.rcode, Rcode::Refused);
        let s: &StudyAuthServer = ex.subject();
        assert_eq!(s.stats.out_of_zone, 1);
    }

    #[test]
    fn unknown_in_zone_name_nxdomain_with_soa() {
        let (resp, ex) = ask(
            StudyAuthServer::new(true),
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
        let (a, _) = ask(StudyAuthServer::new(true), study::STUDY_QNAME, RrType::A, 5);
        let (any, _) = ask(
            StudyAuthServer::new(true),
            study::STUDY_QNAME,
            RrType::Any,
            6,
        );
        let any_len = any.wire_len().expect("ANY response encodes");
        let a_len = a.wire_len().expect("A response encodes");
        assert!(
            any_len > a_len,
            "ANY response must be larger: {any_len} vs {a_len}"
        );
    }

    #[test]
    fn txt_answered_for_static_name() {
        let (resp, _) = ask(
            StudyAuthServer::new(true),
            study::STUDY_QNAME,
            RrType::Txt,
            7,
        );
        assert_eq!(resp.answers.len(), 1);
        assert_eq!(resp.answers[0].rtype(), RrType::Txt);
    }

    #[test]
    fn non_dns_port_gets_port_unreachable() {
        let mut ex = Exchange::new(AUTH_IP, CLIENT_IP, StudyAuthServer::new(true));
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
        let mut ex = Exchange::new(AUTH_IP, CLIENT_IP, StudyAuthServer::new(true));
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
