//! The three ODNS honeypot sensors of the §3.1 controlled experiment.
//!
//! * **Sensor 1** behaves like a public recursive resolver: it receives at
//!   `IP1` and answers from `IP1` (baseline — every viable campaign finds
//!   it).
//! * **Sensor 2** — *interior* transparent forwarder: receives at `IP2`,
//!   answers from `IP3` in the same /24. It mimics the key observable of a
//!   transparent forwarder (answer source ≠ probed address) without
//!   needing a SAV-free network, and guarantees the scanner actually
//!   receives a reply.
//! * **Sensor 3** — *exterior* transparent forwarder: relays the query to
//!   a public resolver with the scanner's spoofed source; the sensor never
//!   sees the answer.
//!
//! All sensors resolve through a public resolver (the paper uses Google)
//! and rate-limit to one answer per 5 minutes per source /24 to be useless
//! as amplifiers.

use dnswire::Message;
use netsim::{Ctx, Datagram, Host, IntMap, UdpSend};
use odns::{PrefixRateLimiter, TransparentForwarderStats};
use std::net::Ipv4Addr;

/// Which of the three §3.1 sensor behaviours to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SensorKind {
    /// Sensor 1: answers from the address it was probed at.
    RecursiveResolver,
    /// Sensor 2: answers from `reply_from` (a second owned address in the
    /// same /24).
    InteriorForwarder {
        /// The sending address `IP3`.
        reply_from: Ipv4Addr,
    },
    /// Sensor 3: spoofed relay to the upstream resolver.
    ExteriorForwarder,
}

/// Counters kept by a sensor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SensorStats {
    /// Queries that arrived.
    pub queries: u64,
    /// Queries shed by the 5-minute /24 limiter.
    pub rate_limited: u64,
    /// Queries relayed upstream (all kinds).
    pub upstream: u64,
    /// Answers delivered back by this sensor (kinds 1 and 2).
    pub answered: u64,
}

impl SensorStats {
    /// Sum another sensor instance's counters into this one — the shard
    /// merge of a sharded sensor experiment. Summing is only
    /// partition-invariant when each source /24's probes land in exactly
    /// one shard's sensor instance (every instance keeps its own
    /// [`PrefixRateLimiter`], so a split /24 would double its answer
    /// budget); the sharded drivers guarantee that by probing the sensors
    /// from a single designated shard.
    pub fn absorb(&mut self, other: SensorStats) {
        self.queries += other.queries;
        self.rate_limited += other.rate_limited;
        self.upstream += other.upstream;
        self.answered += other.answered;
    }
}

#[derive(Debug)]
struct PendingUpstream {
    client: Ipv4Addr,
    client_port: u16,
    client_txid: u16,
    probed_at: Ipv4Addr,
}

/// A honeypot sensor host.
#[derive(Debug)]
pub struct HoneypotSensor {
    kind: SensorKind,
    upstream: Ipv4Addr,
    limiter: PrefixRateLimiter,
    pending: IntMap<(u16, u16), PendingUpstream>,
    next_port: u16,
    /// Counters.
    pub stats: SensorStats,
    /// Pass-through stats when acting as an exterior forwarder.
    pub relay_stats: TransparentForwarderStats,
}

impl HoneypotSensor {
    /// Build a sensor of `kind` resolving via `upstream` (e.g. 8.8.8.8).
    pub fn new(kind: SensorKind, upstream: Ipv4Addr) -> Self {
        HoneypotSensor {
            kind,
            upstream,
            limiter: PrefixRateLimiter::sensor_default(),
            pending: IntMap::default(),
            next_port: 3000,
            stats: SensorStats::default(),
            relay_stats: TransparentForwarderStats::default(),
        }
    }

    fn alloc_port(&mut self) -> u16 {
        let p = self.next_port;
        self.next_port = if self.next_port >= 64000 {
            3000
        } else {
            self.next_port + 1
        };
        p
    }
}

impl Host for HoneypotSensor {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
        if dgram.dst_port != dnswire::DNS_PORT {
            // Upstream response for sensors 1/2?
            if let Ok(msg) = Message::decode(&dgram.payload) {
                if msg.is_response() {
                    if let Some(p) = self.pending.remove(&(dgram.dst_port, msg.header.id)) {
                        let mut relayed = msg;
                        relayed.header.id = p.client_txid;
                        let reply_src = match self.kind {
                            SensorKind::InteriorForwarder { reply_from } => reply_from,
                            _ => p.probed_at,
                        };
                        self.stats.answered += 1;
                        ctx.send_udp(UdpSend {
                            src: Some(reply_src),
                            src_port: dnswire::DNS_PORT,
                            dst: p.client,
                            dst_port: p.client_port,
                            ttl: None,
                            payload: relayed.encode().into(),
                        });
                        return;
                    }
                }
            }
            ctx.send_port_unreachable(&dgram);
            return;
        }

        let Ok(query) = Message::decode(&dgram.payload) else {
            return;
        };
        if query.is_response() || query.question().is_none() {
            return;
        }
        self.stats.queries += 1;

        // The paper's anti-amplification policy: 1 answer / 5 min / /24.
        if !self.limiter.allow(dgram.src, ctx.now()) {
            self.stats.rate_limited += 1;
            return;
        }

        match self.kind {
            SensorKind::ExteriorForwarder => {
                // Spoofed relay, exactly like a real transparent forwarder.
                if dgram.ttl <= 1 {
                    self.relay_stats.ttl_exceeded += 1;
                    ctx.send_time_exceeded(&dgram);
                    return;
                }
                self.relay_stats.relayed += 1;
                self.stats.upstream += 1;
                ctx.send_udp(UdpSend {
                    src: Some(dgram.src),
                    src_port: dgram.src_port,
                    dst: self.upstream,
                    dst_port: dnswire::DNS_PORT,
                    ttl: Some(dgram.ttl - 1),
                    payload: dgram.payload.clone(),
                });
            }
            SensorKind::RecursiveResolver | SensorKind::InteriorForwarder { .. } => {
                // Resolve via upstream from our own address, then answer
                // the client from IP1 (sensor 1) or IP3 (sensor 2).
                let port = self.alloc_port();
                let txid = query.header.id;
                self.pending.insert(
                    (port, txid),
                    PendingUpstream {
                        client: dgram.src,
                        client_port: dgram.src_port,
                        client_txid: query.header.id,
                        probed_at: dgram.dst,
                    },
                );
                self.stats.upstream += 1;
                ctx.send_udp(UdpSend::new(
                    port,
                    self.upstream,
                    dnswire::DNS_PORT,
                    dgram.payload.clone(),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswire::{MessageBuilder, RrType};
    use netsim::testkit::{install_script, playground, ScriptedClient};
    use netsim::{SimConfig, SimDuration, Simulator};
    use odns::study;

    const SCANNER: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);
    const UPSTREAM: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 1);

    // The four observable addresses of Table 3.
    const IP1: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 11);
    const IP2: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 22);
    const IP3: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 23);
    const IP4: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 44);

    struct Canned;
    impl Host for Canned {
        fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
            let q = Message::decode(&dgram.payload).unwrap();
            let resp = MessageBuilder::response_to(&q)
                .recursion_available(true)
                .answer_a(q.questions[0].qname.clone(), 300, dgram.src)
                .answer_a(q.questions[0].qname.clone(), 300, study::CONTROL_A)
                .build();
            ctx.send_udp(UdpSend::reply_to(&dgram, resp.encode()));
        }
    }

    fn query(txid: u16, dst: Ipv4Addr) -> UdpSend {
        let q = MessageBuilder::query(txid, study::study_qname(), RrType::A)
            .recursion_desired(true)
            .build();
        UdpSend::new(34_000 + txid, dst, 53, q.encode())
    }

    #[test]
    fn sensor1_answers_from_probed_address() {
        let (topo, nodes) = playground(&[SCANNER, IP1, UPSTREAM]);
        let mut sim = Simulator::new(topo, SimConfig::default());
        sim.install(
            nodes[1],
            HoneypotSensor::new(SensorKind::RecursiveResolver, UPSTREAM),
        );
        sim.install(nodes[2], Canned);
        install_script(&mut sim, nodes[0], vec![(SimDuration::ZERO, query(1, IP1))]);
        sim.run();
        let sc: &ScriptedClient = sim.host_as(nodes[0]).unwrap();
        assert_eq!(sc.datagrams.len(), 1);
        assert_eq!(sc.datagrams[0].1.src, IP1, "Sensor 1 answers from IP1");
    }

    #[test]
    fn sensor2_answers_from_second_address() {
        // IP2 and IP3 belong to the same host (extra_ips).
        let mut b = netsim::TopologyBuilder::new();
        let a = b.add_as(netsim::AsSpec {
            asn: 64512,
            country: netsim::CountryCode::new("ZZZ"),
            kind: netsim::AsKind::Unclassified,
            sav_outbound: true, // interior sensor needs no spoofing!
            transit_routers: vec![Ipv4Addr::new(10, 255, 0, 1)],
        });
        let scanner = b.add_host(a, netsim::HostSpec::simple(SCANNER));
        let sensor = b.add_host(
            a,
            netsim::HostSpec {
                ip: IP2,
                extra_ips: vec![IP3],
                access_routers: vec![],
                link_latency: SimDuration::from_millis(1),
            },
        );
        let upstream = b.add_host(a, netsim::HostSpec::simple(UPSTREAM));
        let mut sim = Simulator::new(b.build().unwrap(), SimConfig::default());
        sim.install(
            sensor,
            HoneypotSensor::new(SensorKind::InteriorForwarder { reply_from: IP3 }, UPSTREAM),
        );
        sim.install(upstream, Canned);
        install_script(&mut sim, scanner, vec![(SimDuration::ZERO, query(2, IP2))]);
        sim.run();
        let sc: &ScriptedClient = sim.host_as(scanner).unwrap();
        assert_eq!(sc.datagrams.len(), 1);
        assert_eq!(sc.datagrams[0].1.src, IP3, "Sensor 2 replies from IP3");
        assert_eq!(
            sim.stats().spoofed_sent,
            0,
            "no spoofing needed — easy deployment"
        );
    }

    #[test]
    fn sensor3_relays_spoofed_and_stays_silent() {
        let (topo, nodes) = playground(&[SCANNER, IP4, UPSTREAM]);
        let mut sim = Simulator::new(topo, SimConfig::default());
        sim.install(
            nodes[1],
            HoneypotSensor::new(SensorKind::ExteriorForwarder, UPSTREAM),
        );
        sim.install(nodes[2], Canned);
        install_script(&mut sim, nodes[0], vec![(SimDuration::ZERO, query(3, IP4))]);
        sim.run();
        let sc: &ScriptedClient = sim.host_as(nodes[0]).unwrap();
        assert_eq!(sc.datagrams.len(), 1);
        assert_eq!(
            sc.datagrams[0].1.src, UPSTREAM,
            "answer comes from the public resolver"
        );
        assert_eq!(sim.stats().spoofed_sent, 1);
        let s: &HoneypotSensor = sim.host_as(nodes[1]).unwrap();
        assert_eq!(s.relay_stats.relayed, 1);
    }

    #[test]
    fn rate_limiter_allows_one_per_5min_per_prefix() {
        let (topo, nodes) = playground(&[SCANNER, IP1, UPSTREAM]);
        let mut sim = Simulator::new(topo, SimConfig::default());
        sim.install(
            nodes[1],
            HoneypotSensor::new(SensorKind::RecursiveResolver, UPSTREAM),
        );
        sim.install(nodes[2], Canned);
        install_script(
            &mut sim,
            nodes[0],
            vec![
                (SimDuration::ZERO, query(1, IP1)),
                (SimDuration::from_secs(10), query(2, IP1)), // shed
                (SimDuration::from_secs(301), query(3, IP1)), // served
            ],
        );
        sim.run();
        let sc: &ScriptedClient = sim.host_as(nodes[0]).unwrap();
        assert_eq!(sc.datagrams.len(), 2);
        let s: &HoneypotSensor = sim.host_as(nodes[1]).unwrap();
        assert_eq!(s.stats.rate_limited, 1);
        assert_eq!(s.stats.queries, 3);
    }
}
