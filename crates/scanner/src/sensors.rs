//! The three ODNS honeypot sensors of the §3.1 controlled experiment.
//!
//! A sensor is the ODNS host it imitates behind the paper's
//! anti-amplification gate: a [`PrefixRateLimiter`] that admits one query
//! per 5 minutes per source /24, so no sensor is of use as an amplifier.
//!
//! * **Sensor 1** behaves like a public recursive resolver: a cacheless
//!   [`RecursiveForwarder`] at `IP1`, answering from `IP1` (baseline —
//!   every viable campaign finds it).
//! * **Sensor 2** — *interior* transparent forwarder: the same forwarder
//!   on a node whose primary address is `IP3` and which also owns `IP2` in
//!   the same /24. Probed at `IP2`, it answers from `IP3`. It mimics the
//!   key observable of a transparent forwarder (answer source ≠ probed
//!   address) without needing a SAV-free network, and guarantees the
//!   scanner actually receives a reply.
//! * **Sensor 3** — *exterior* transparent forwarder: a
//!   [`TransparentForwarder`], relaying the query to a public resolver with
//!   the scanner's spoofed source; the sensor never sees the answer.
//!
//! All sensors resolve through a public resolver (the paper uses Google).

use dnswire::Message;
use netsim::{Ctx, Datagram, Host, TimerOutcome};
use odns::{PrefixRateLimiter, RecursiveForwarder, TransparentForwarder};
use std::net::Ipv4Addr;

/// Which of the three §3.1 sensor behaviours to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SensorKind {
    /// Sensor 1: answers from the address it was probed at.
    RecursiveResolver,
    /// Sensor 2: answers from its node's primary address, a second address
    /// in the /24 it is probed at.
    InteriorForwarder,
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

/// The ODNS host behind a sensor's gate.
#[derive(Debug)]
enum Imitated {
    Recursive(Box<RecursiveForwarder>),
    Transparent(TransparentForwarder),
}

/// A honeypot sensor host: a rate-limit gate in front of the forwarder it
/// imitates.
#[derive(Debug)]
pub struct HoneypotSensor {
    gate: PrefixRateLimiter,
    host: Imitated,
}

impl HoneypotSensor {
    /// Build a sensor of `kind` resolving via `upstream` (e.g. 8.8.8.8).
    pub fn new(kind: SensorKind, upstream: Ipv4Addr) -> Self {
        let host = match kind {
            SensorKind::RecursiveResolver | SensorKind::InteriorForwarder => {
                Imitated::Recursive(Box::new(RecursiveForwarder::new(upstream).without_cache()))
            }
            SensorKind::ExteriorForwarder => {
                Imitated::Transparent(TransparentForwarder::new(upstream))
            }
        };
        HoneypotSensor {
            gate: PrefixRateLimiter::new(),
            host,
        }
    }

    /// What the gate admitted and shed, and what the forwarder behind it
    /// sent upstream and answered.
    pub fn stats(&self) -> SensorStats {
        let (upstream, answered) = match &self.host {
            Imitated::Recursive(f) => (f.stats.forwarded, f.stats.relayed),
            Imitated::Transparent(f) => (f.stats.relayed, 0),
        };
        SensorStats {
            queries: self.gate.admitted + self.gate.rejected,
            rate_limited: self.gate.rejected,
            upstream,
            answered,
        }
    }

    fn host(&mut self) -> &mut dyn Host {
        match &mut self.host {
            Imitated::Recursive(f) => f.as_mut(),
            Imitated::Transparent(f) => f,
        }
    }
}

impl Host for HoneypotSensor {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
        // Only a query passes the gate, and only within the paper's
        // anti-amplification budget: 1 answer / 5 min / /24. Whatever
        // arrives on another port (an upstream answer, a stray probe) is
        // the forwarder's business.
        if dgram.dst_port == dnswire::DNS_PORT {
            let query = Message::decode(&dgram.payload)
                .is_ok_and(|q| !q.is_response() && q.question().is_some());
            if !query || !self.gate.allow(dgram.src, ctx.now()) {
                return;
            }
        }
        self.host().on_datagram(ctx, dgram);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) -> TimerOutcome {
        self.host().on_timer(ctx, token)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswire::{MessageBuilder, RrType};
    use netsim::testkit::{install_script, playground, ScriptedClient};
    use netsim::{SimDuration, Simulator, UdpSend};
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
        let mut sim = Simulator::new(topo);
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
        // IP3 and IP2 belong to the same host (extra_ips).
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
                ip: IP3,
                extra_ips: vec![IP2],
                access_routers: vec![],
                link_latency: SimDuration::from_millis(1),
            },
        );
        let upstream = b.add_host(a, netsim::HostSpec::simple(UPSTREAM));
        let mut sim = Simulator::new(b.build().unwrap());
        sim.install(
            sensor,
            HoneypotSensor::new(SensorKind::InteriorForwarder, UPSTREAM),
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
        let mut sim = Simulator::new(topo);
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
        assert_eq!(s.stats().upstream, 1);
    }

    #[test]
    fn rate_limiter_allows_one_per_5min_per_prefix() {
        let (topo, nodes) = playground(&[SCANNER, IP1, UPSTREAM]);
        let mut sim = Simulator::new(topo);
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
        assert_eq!(s.stats().rate_limited, 1);
        assert_eq!(s.stats().queries, 3);
    }

    #[test]
    fn unanswered_upstream_query_times_out() {
        // The forwarder behind the gate gives up on a query its upstream
        // never answers, as any forwarder does, rather than holding it for
        // the life of the world.
        struct Silent;
        impl Host for Silent {
            fn on_datagram(&mut self, _: &mut Ctx<'_>, _: Datagram) {}
        }
        let (topo, nodes) = playground(&[SCANNER, IP1, UPSTREAM]);
        let mut sim = Simulator::new(topo);
        sim.install(
            nodes[1],
            HoneypotSensor::new(SensorKind::RecursiveResolver, UPSTREAM),
        );
        sim.install(nodes[2], Silent);
        install_script(&mut sim, nodes[0], vec![(SimDuration::ZERO, query(1, IP1))]);
        assert!(sim.run());
        assert!(sim.stats().conserved());
        let sc: &ScriptedClient = sim.host_as(nodes[0]).unwrap();
        assert!(sc.datagrams.is_empty());
        let s: &HoneypotSensor = sim.host_as(nodes[1]).unwrap();
        let Imitated::Recursive(forwarder) = &s.host else {
            panic!("sensor 1 imitates a recursive forwarder");
        };
        assert_eq!(forwarder.stats.timeouts, 1);
        assert_eq!(
            s.stats(),
            SensorStats {
                queries: 1,
                upstream: 1,
                ..SensorStats::default()
            }
        );
    }
}
