//! A stub client: the ordinary DNS consumer behind forwarders (Figure 1's
//! left edge). Used by examples and integration tests to generate
//! legitimate-looking traffic.

use dnswire::{DnsName, Message, MessageBuilder, RrType};
use netsim::{Ctx, Datagram, Host, SimTime, UdpSend};
use std::net::Ipv4Addr;

/// One completed stub transaction.
#[derive(Debug, Clone)]
pub struct StubResult {
    /// When the query went out.
    pub sent_at: SimTime,
    /// When the answer arrived (None until then).
    pub answered_at: Option<SimTime>,
    /// Source address of the answer — for a client behind a *transparent*
    /// forwarder this is the resolver, not the forwarder it asked!
    pub answer_src: Option<Ipv4Addr>,
    /// The decoded answer.
    pub answer: Option<Message>,
    /// Name queried.
    pub qname: DnsName,
}

/// A stub resolver client that sends one query per timer token and records
/// answers.
#[derive(Debug)]
pub struct StubClient {
    server: Ipv4Addr,
    qname: DnsName,
    qtype: RrType,
    next_txid: u16,
    base_port: u16,
    /// Results in send order.
    pub results: Vec<StubResult>,
}

impl StubClient {
    /// A stub pointed at `server` querying `qname`.
    pub fn new(server: Ipv4Addr, qname: DnsName) -> Self {
        StubClient {
            server,
            qname,
            qtype: RrType::A,
            next_txid: 100,
            base_port: 40_000,
            results: Vec::new(),
        }
    }

    /// Number of answered queries.
    pub fn answered(&self) -> usize {
        self.results.iter().filter(|r| r.answer.is_some()).count()
    }
}

impl Host for StubClient {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
        let Ok(msg) = Message::decode(&dgram.payload) else {
            return;
        };
        if !msg.is_response() {
            return;
        }
        // Each query used a unique source port (base + index), so the
        // destination port of the reply identifies the transaction.
        let idx = dgram.dst_port.wrapping_sub(self.base_port) as usize;
        if let Some(r) = self.results.get_mut(idx) {
            if r.answer.is_none() {
                r.answered_at = Some(ctx.now());
                r.answer_src = Some(dgram.src);
                r.answer = Some(msg);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        let txid = self.next_txid;
        self.next_txid = self.next_txid.wrapping_add(1);
        let port = self.base_port + self.results.len() as u16;
        let query = MessageBuilder::query(txid, self.qname.clone(), self.qtype)
            .recursion_desired(true)
            .build();
        self.results.push(StubResult {
            sent_at: ctx.now(),
            answered_at: None,
            answer_src: None,
            answer: None,
            qname: self.qname.clone(),
        });
        ctx.send_udp(UdpSend::new(
            port,
            self.server,
            dnswire::DNS_PORT,
            query.encode(),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::testkit::playground;
    use netsim::{SimConfig, SimDuration, Simulator};

    #[test]
    fn stub_records_answer_and_its_source() {
        let client_ip = Ipv4Addr::new(192, 0, 2, 1);
        let server_ip = Ipv4Addr::new(198, 51, 100, 1);
        let (topo, nodes) = playground(&[client_ip, server_ip]);
        let mut sim = Simulator::new(topo, SimConfig::default());

        struct Answerer;
        impl Host for Answerer {
            fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
                let q = Message::decode(&dgram.payload).unwrap();
                let resp = MessageBuilder::response_to(&q)
                    .answer_a(q.questions[0].qname.clone(), 60, Ipv4Addr::new(5, 5, 5, 5))
                    .build();
                ctx.send_udp(UdpSend::reply_to(&dgram, resp.encode()));
            }
        }

        sim.install(
            nodes[0],
            StubClient::new(server_ip, DnsName::parse("x.example.").unwrap()),
        );
        sim.install(nodes[1], Answerer);
        sim.schedule_timer(nodes[0], SimDuration::ZERO, 0);
        sim.schedule_timer(nodes[0], SimDuration::from_secs(1), 1);
        sim.run();

        let stub: &StubClient = sim.host_as(nodes[0]).unwrap();
        assert_eq!(stub.results.len(), 2);
        assert_eq!(stub.answered(), 2);
        assert_eq!(stub.results[0].answer_src, Some(server_ip));
        assert!(stub.results[0].answered_at.unwrap() > stub.results[0].sent_at);
    }
}
