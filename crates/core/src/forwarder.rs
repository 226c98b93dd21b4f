//! DNS forwarders: recursive (NAT-style) and transparent (spoofing relay).
//!
//! The distinction these two types embody *is the paper's contribution*:
//!
//! * a **recursive forwarder** behaves like a normal UDP client toward its
//!   resolver — it replaces the source address with its own, so the
//!   resolver's answer comes back to *it*, and it relays (and may cache)
//!   the answer to the original client;
//! * a **transparent forwarder** relays the query packet with the client's
//!   source address *unchanged* (spoofing), so the resolver answers the
//!   client directly; the forwarder never sees the response, keeps no
//!   state, and works only from networks without outbound SAV (§2).
//!
//! The transparent forwarder also behaves like a router at the IP layer:
//! it decrements TTL when relaying and emits ICMP Time Exceeded when the
//! TTL dies — which is exactly the behaviour DNSRoute++ (§5) exploits to
//! trace the path *behind* it.
//!
//! A recursive forwarder that does not manipulate answers is a byte relay,
//! like the devices it models: the upstream datagram is matched to its
//! pending query on `(our port, txid)`, checked for section structure by
//! [`dnswire::walk_sections`] (no decode), and sent on to the client as the
//! very bytes received — the upstream query kept the client's transaction
//! ID, so nothing needs patching. One deliberate consequence: a response
//! with sound structure that [`Message::decode`] would still reject (a
//! forward compression pointer, a malformed RDATA body) is relayed
//! untouched, where a decoding proxy would have dropped it. It is never
//! served from the cache — the entry is decoded on its first lookup, and
//! bytes that fail there are a counted miss. Only
//! [`Manipulation::ReplaceARecords`] decodes, because it rewrites.
//!
//! The client leg is the same: a query is read once, by
//! [`ServeCache::serve`] — or, without a cache, by the reader it uses —
//! and relayed as the datagram that arrived. A census probe is read
//! without decoding; a plain `IN` query in a shape [`dnswire::view_query`]
//! declines (EDNS, a compressed name) is decoded; any other query is
//! refused, never forwarded, so the cache holds `IN` answers only.

use crate::cache::{ClientQuery, ServeCache, Served};
use crate::device::DeviceProfile;
use dnswire::Message;
use netsim::{Ctx, Datagram, Host, IntMap, SimDuration, TimerId, TimerOutcome, UdpSend};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// How long a recursive forwarder waits for its resolver's answer before
/// it forgets the query.
const UPSTREAM_TIMEOUT: SimDuration = SimDuration::from_secs(5);

/// Counters for a recursive forwarder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecursiveForwarderStats {
    /// Queries received from clients, refused ones included.
    pub client_queries: u64,
    /// Answers served from the local cache.
    pub cache_answers: u64,
    /// Queries forwarded upstream.
    pub forwarded: u64,
    /// Responses relayed back to clients.
    pub relayed: u64,
    /// Upstream timeouts.
    pub timeouts: u64,
}

/// `(our port, txid)` of a query in flight upstream; the transaction ID is
/// the client's own, kept on the upstream leg.
type PendingKey = (u16, u16);

/// A query in flight upstream.
#[derive(Debug)]
struct PendingQuery {
    client: Ipv4Addr,
    client_port: u16,
    qname: dnswire::DnsName,
    qtype: dnswire::RrType,
    /// The upstream timeout armed for this query, cancelled by its answer.
    timeout: TimerId,
}

/// Queries in flight upstream. An entry leaves when its answer is relayed,
/// which cancels its timer, or when that timer fires, whichever is first.
///
/// A census asks each forwarder one question, so one query is in flight in
/// the life of most tables. It sits inline; the hash table is built when a
/// second joins it, and a table that has built one keeps it.
#[derive(Debug)]
enum Pending {
    Inline(Option<(PendingKey, PendingQuery)>),
    Spilled(IntMap<PendingKey, PendingQuery>),
}

impl Pending {
    fn contains_key(&self, key: PendingKey) -> bool {
        match self {
            Pending::Inline(slot) => slot.as_ref().is_some_and(|(held, _)| *held == key),
            Pending::Spilled(map) => map.contains_key(&key),
        }
    }

    fn insert(&mut self, key: PendingKey, query: PendingQuery) {
        match self {
            Pending::Inline(slot) if slot.as_ref().is_some_and(|(held, _)| *held != key) => {
                let mut map = IntMap::default();
                map.extend(slot.take());
                map.insert(key, query);
                *self = Pending::Spilled(map);
            }
            Pending::Inline(slot) => *slot = Some((key, query)),
            Pending::Spilled(map) => {
                map.insert(key, query);
            }
        }
    }

    fn remove(&mut self, key: PendingKey) -> Option<PendingQuery> {
        match self {
            Pending::Inline(slot) => slot.take_if(|(held, _)| *held == key).map(|(_, q)| q),
            Pending::Spilled(map) => map.remove(&key),
        }
    }

    #[cfg(test)]
    fn is_empty(&self) -> bool {
        match self {
            Pending::Inline(slot) => slot.is_none(),
            Pending::Spilled(map) => map.is_empty(),
        }
    }
}

/// In-path response manipulation, as practiced by ad-injecting or
/// censoring CPE/ISP middleboxes (§6 distinguishes transparent forwarders
/// from these). Manipulated responses fail the study's control-record
/// check and are discarded by the strict classifier — but single-record
/// pipelines like Shadowserver's still count the responder, which is how
/// Shadowserver ends up reporting *more* ODNS hosts than the study in
/// heavily-manipulated countries (Table 5: China, South Korea, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Manipulation {
    /// Relay answers untouched.
    None,
    /// Replace every A record's address (ad-server injection style).
    ReplaceARecords(Ipv4Addr),
}

/// A recursive (address-rewriting) DNS forwarder — typically CPE running a
/// DNS proxy. Open to everyone, which is what makes it an ODNS component.
#[derive(Debug)]
pub struct RecursiveForwarder {
    resolver: Ipv4Addr,
    cache: Option<ServeCache>,
    pending: Pending,
    device: Option<Arc<DeviceProfile>>,
    manipulation: Manipulation,
    /// Counters.
    pub stats: RecursiveForwarderStats,
}

impl RecursiveForwarder {
    /// Forwarder relaying to `resolver`, with a small answer cache.
    pub fn new(resolver: Ipv4Addr) -> Self {
        RecursiveForwarder {
            resolver,
            cache: Some(ServeCache::new(64)),
            pending: Pending::Inline(None),
            device: None,
            manipulation: Manipulation::None,
            stats: RecursiveForwarderStats::default(),
        }
    }

    /// Disable the answer cache (some CPE proxies do not cache).
    pub fn without_cache(mut self) -> Self {
        self.cache = None;
        self
    }

    /// Attach a device profile (open ports / banners) for fingerprinting;
    /// an `Arc` is shared with every other host it was handed to.
    pub fn with_device(mut self, device: impl Into<Arc<DeviceProfile>>) -> Self {
        self.device = Some(device.into());
        self
    }

    /// Enable in-path response manipulation.
    pub fn with_manipulation(mut self, manipulation: Manipulation) -> Self {
        self.manipulation = manipulation;
        self
    }

    /// The resolver this forwarder relays to.
    pub fn resolver(&self) -> Ipv4Addr {
        self.resolver
    }

    /// Upstream ephemeral port for a client query, keyed off the client
    /// flow rather than an allocation counter. The upstream five-tuple is
    /// then a pure function of the downstream query: per-flow fault
    /// verdicts cannot depend on the order probes happen to arrive in
    /// (and therefore cannot depend on the shard count). A counter hands
    /// the fault-doomed port to whichever query arrives first.
    fn flow_port(&self, client: Ipv4Addr, client_port: u16, txid: u16) -> u16 {
        const BASE: u16 = 2048;
        const SPAN: u64 = 65000 - BASE as u64 + 1;
        let h = netsim::mix64(
            (u64::from(u32::from(client)) << 32) | (u64::from(client_port) << 16) | u64::from(txid),
        );
        let mut port = BASE + (h % SPAN) as u16;
        // On the rare (port, txid) collision with a query still in flight
        // — or a client retransmit racing its own first attempt — probe
        // linearly so the pending entry is never clobbered.
        while self.pending.contains_key((port, txid)) {
            port = if port >= 65000 { BASE } else { port + 1 };
        }
        port
    }

    /// Relay `dgram` to the client whose pending upstream query it answers
    /// and cache what upstream said; `false` when it answers none.
    fn relay_upstream_answer(&mut self, ctx: &mut Ctx<'_>, dgram: &Datagram) -> bool {
        if dnswire::peek_qr(&dgram.payload) != Some(true) {
            return false;
        }
        let (txid, min_ttl, payload) = match self.manipulation {
            Manipulation::None => {
                let Some(walk) = dnswire::walk_sections(&dgram.payload) else {
                    return false;
                };
                (walk.id, walk.min_answer_ttl, dgram.payload.clone())
            }
            Manipulation::ReplaceARecords(inject) => {
                // Rewriting records means re-encoding: the whole message.
                let Ok(mut msg) = Message::decode(&dgram.payload) else {
                    return false;
                };
                let min_ttl = msg.answers.iter().map(|r| r.ttl).min();
                for r in &mut msg.answers {
                    if let dnswire::RData::A(a) = &mut r.rdata {
                        *a = inject;
                    }
                }
                (msg.header.id, min_ttl, msg.encode().into())
            }
        };
        let Some(q) = self.pending.remove((dgram.dst_port, txid)) else {
            return false;
        };
        // Left armed, the timeout would expire whichever later query came
        // to reuse this key — the same client's retransmit does.
        ctx.cancel_timer(q.timeout);
        // Cache what upstream said — never the manipulated copy — under
        // the client's question.
        if let (Some(cache), Some(min_ttl)) = (&mut self.cache, min_ttl) {
            cache.insert_wire(q.qname, q.qtype, dgram.payload.clone(), min_ttl, ctx.now());
        }
        // From our own address: to the client *we* look like the resolver.
        self.stats.relayed += 1;
        ctx.send_udp(UdpSend {
            src: None,
            src_port: dnswire::DNS_PORT,
            dst: q.client,
            dst_port: q.client_port,
            ttl: None,
            payload,
        });
        true
    }
}

impl Host for RecursiveForwarder {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
        if dgram.dst_port != dnswire::DNS_PORT {
            // An upstream response to one of our ephemeral ports, or else
            // not DNS business: the fingerprinting surface.
            if !self.relay_upstream_answer(ctx, &dgram) {
                crate::device::handle_probe(ctx, &dgram, self.device.as_deref());
            }
            return;
        }

        // The question, read once: by the serve path, which answers a hit,
        // or by the same reader when there is no cache.
        let served = match &mut self.cache {
            Some(cache) => cache.serve(&dgram.payload, ctx.now()),
            None => ClientQuery::read(&dgram.payload)
                .map(|read| read.map_or_else(Served::Refused, Served::Miss)),
        };
        let Some(served) = served else {
            return;
        };
        self.stats.client_queries += 1;
        let query = match served {
            Served::Answer(answer) => {
                self.stats.cache_answers += 1;
                ctx.send_udp(UdpSend::reply_to(&dgram, answer));
                return;
            }
            Served::Refused(refusal) => {
                ctx.send_udp(UdpSend::reply_to(&dgram, refusal));
                return;
            }
            Served::Miss(query) => query,
        };
        let txid = query.id;

        // Forward upstream from our own address (the defining rewrite),
        // keeping the ID: our port disambiguates.
        let port = self.flow_port(dgram.src, dgram.src_port, txid);
        self.stats.forwarded += 1;
        ctx.send_udp(UdpSend {
            src: None,
            src_port: port,
            dst: self.resolver,
            dst_port: dnswire::DNS_PORT,
            ttl: None,
            payload: dgram.payload.clone(),
        });
        let timeout = ctx.set_timer(UPSTREAM_TIMEOUT, (u64::from(port) << 16) | u64::from(txid));
        self.pending.insert(
            (port, txid),
            PendingQuery {
                client: dgram.src,
                client_port: dgram.src_port,
                qname: query.qname,
                qtype: query.qtype,
                timeout,
            },
        );
    }

    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, token: u64) -> TimerOutcome {
        let key = ((token >> 16) as u16, token as u16);
        if self.pending.remove(key).is_none() {
            return TimerOutcome::Stale;
        }
        // Give up silently (stub clients retry on their own), matching
        // typical CPE proxy behaviour.
        self.stats.timeouts += 1;
        TimerOutcome::Acted
    }
}

/// Counters for a transparent forwarder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransparentForwarderStats {
    /// DNS queries relayed (spoofed) toward the resolver.
    pub relayed: u64,
    /// Queries whose TTL died at this device (ICMP Time Exceeded sent).
    pub ttl_exceeded: u64,
}

/// A transparent DNS forwarder: the misbehaving middlebox at the center of
/// the paper.
///
/// It relays port-53 queries to its configured resolver with the client's
/// source address preserved and never handles responses. It has *no
/// per-query state* — which is also why scanning campaigns based purely on
/// responses cannot see it (§3).
#[derive(Debug)]
pub struct TransparentForwarder {
    resolver: Ipv4Addr,
    device: Option<Arc<DeviceProfile>>,
    /// Counters.
    pub stats: TransparentForwarderStats,
}

impl TransparentForwarder {
    /// A transparent forwarder relaying to `resolver`.
    pub fn new(resolver: Ipv4Addr) -> Self {
        TransparentForwarder {
            resolver,
            device: None,
            stats: TransparentForwarderStats::default(),
        }
    }

    /// Attach a device profile (open ports / banners) for fingerprinting;
    /// an `Arc` is shared with every other host it was handed to.
    pub fn with_device(mut self, device: impl Into<Arc<DeviceProfile>>) -> Self {
        self.device = Some(device.into());
        self
    }

    /// The resolver this forwarder relays to.
    pub fn resolver(&self) -> Ipv4Addr {
        self.resolver
    }
}

impl Host for TransparentForwarder {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
        if dgram.dst_port != dnswire::DNS_PORT {
            crate::device::handle_probe(ctx, &dgram, self.device.as_deref());
            return;
        }
        // Quick sanity check that this is a DNS query; middleboxes that
        // blindly redirect port 53 forward anything, so only the header is
        // peeked, not fully validated.
        if dnswire::peek_id(&dgram.payload).is_none() {
            return;
        }
        // Router-at-IP-layer behaviour: relaying decrements TTL; a dead TTL
        // elicits Time Exceeded *from this device* — DNSRoute++'s marker
        // for the forwarder itself.
        if dgram.ttl <= 1 {
            self.stats.ttl_exceeded += 1;
            ctx.send_time_exceeded(&dgram);
            return;
        }
        self.stats.relayed += 1;
        ctx.send_udp(UdpSend {
            // The defining spoof: original source preserved.
            src: Some(dgram.src),
            src_port: dgram.src_port,
            dst: self.resolver,
            dst_port: dnswire::DNS_PORT,
            ttl: Some(dgram.ttl - 1),
            payload: dgram.payload.clone(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswire::{DnsName, MessageBuilder, RrType};
    use netsim::testkit::{playground, Exchange};
    use netsim::Simulator;

    const FWD_IP: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 1);
    const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);
    const RESOLVER_IP: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 1);

    fn query_bytes(txid: u16) -> Vec<u8> {
        MessageBuilder::query(
            txid,
            DnsName::parse("odns-study.example.").unwrap(),
            RrType::A,
        )
        .recursion_desired(true)
        .build()
        .encode()
    }

    /// A resolver stand-in that answers every query with a fixed A record.
    struct CannedResolver {
        seen: Vec<Datagram>,
    }
    impl Host for CannedResolver {
        fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
            let query = Message::decode(&dgram.payload).unwrap();
            let resp = MessageBuilder::response_to(&query)
                .recursion_available(true)
                .answer_a(
                    query.questions[0].qname.clone(),
                    300,
                    Ipv4Addr::new(7, 7, 7, 7),
                )
                .build();
            ctx.send_udp(UdpSend::reply_to(&dgram, resp.encode()));
            self.seen.push(dgram);
        }
    }

    fn three_node_sim() -> (Simulator, netsim::NodeId, netsim::NodeId, netsim::NodeId) {
        let (topo, nodes) = playground(&[CLIENT_IP, FWD_IP, RESOLVER_IP]);
        let sim = Simulator::new(topo);
        (sim, nodes[0], nodes[1], nodes[2])
    }

    #[test]
    fn transparent_forwarder_spoofs_and_resolver_answers_client_directly() {
        let (mut sim, client, fwd, resolver) = three_node_sim();
        sim.install(fwd, TransparentForwarder::new(RESOLVER_IP));
        sim.install(resolver, CannedResolver { seen: vec![] });
        netsim::testkit::install_script(
            &mut sim,
            client,
            vec![(
                SimDuration::ZERO,
                UdpSend::new(34000, FWD_IP, 53, query_bytes(77)),
            )],
        );
        sim.run();

        let resolver_host: &CannedResolver = sim.host_as(resolver).unwrap();
        assert_eq!(resolver_host.seen.len(), 1);
        assert_eq!(
            resolver_host.seen[0].src, CLIENT_IP,
            "source spoofed to the client"
        );
        assert_eq!(
            resolver_host.seen[0].src_port, 34000,
            "client port preserved"
        );

        let client_host: &netsim::testkit::ScriptedClient = sim.host_as(client).unwrap();
        assert_eq!(client_host.datagrams.len(), 1);
        let (_, d) = &client_host.datagrams[0];
        assert_eq!(
            d.src, RESOLVER_IP,
            "answer comes from the resolver, not the probed IP"
        );
        let resp = Message::decode(&d.payload).unwrap();
        assert_eq!(resp.header.id, 77);

        let fwd_host: &TransparentForwarder = sim.host_as(fwd).unwrap();
        assert_eq!(fwd_host.stats.relayed, 1);
        assert_eq!(sim.stats().spoofed_sent, 1);
    }

    #[test]
    fn transparent_forwarder_blocked_by_sav() {
        let (topo, nodes) =
            netsim::testkit::playground_with_sav(&[CLIENT_IP, FWD_IP, RESOLVER_IP], true);
        let mut sim = Simulator::new(topo);
        sim.install(nodes[1], TransparentForwarder::new(RESOLVER_IP));
        sim.install(nodes[2], CannedResolver { seen: vec![] });
        netsim::testkit::install_script(
            &mut sim,
            nodes[0],
            vec![(
                SimDuration::ZERO,
                UdpSend::new(34000, FWD_IP, 53, query_bytes(1)),
            )],
        );
        sim.run();
        let resolver_host: &CannedResolver = sim.host_as(nodes[2]).unwrap();
        assert!(resolver_host.seen.is_empty(), "SAV eats the spoofed relay");
        assert_eq!(sim.stats().dropped_sav, 1);
    }

    #[test]
    fn transparent_forwarder_emits_time_exceeded_on_dead_ttl() {
        let (mut sim, client, fwd, resolver) = three_node_sim();
        sim.install(fwd, TransparentForwarder::new(RESOLVER_IP));
        sim.install(resolver, CannedResolver { seen: vec![] });
        // One router on the playground path: TTL 2 arrives at the
        // forwarder with 1 left — the relay decrement kills it.
        netsim::testkit::install_script(
            &mut sim,
            client,
            vec![(
                SimDuration::ZERO,
                UdpSend {
                    src: None,
                    src_port: 34001,
                    dst: FWD_IP,
                    dst_port: 53,
                    ttl: Some(2),
                    payload: query_bytes(2).into(),
                },
            )],
        );
        sim.run();
        let client_host: &netsim::testkit::ScriptedClient = sim.host_as(client).unwrap();
        assert_eq!(client_host.icmp.len(), 1);
        let icmp = &client_host.icmp[0].1;
        assert_eq!(icmp.kind, netsim::IcmpKind::TimeExceeded);
        assert_eq!(icmp.from, FWD_IP, "the forwarder itself answers");
        let fwd_host: &TransparentForwarder = sim.host_as(fwd).unwrap();
        assert_eq!(fwd_host.stats.ttl_exceeded, 1);
        assert_eq!(fwd_host.stats.relayed, 0);
    }

    #[test]
    fn recursive_forwarder_rewrites_source_and_relays_answer() {
        let (mut sim, client, fwd, resolver) = three_node_sim();
        sim.install(fwd, RecursiveForwarder::new(RESOLVER_IP));
        sim.install(resolver, CannedResolver { seen: vec![] });
        netsim::testkit::install_script(
            &mut sim,
            client,
            vec![(
                SimDuration::ZERO,
                UdpSend::new(34000, FWD_IP, 53, query_bytes(42)),
            )],
        );
        sim.run();

        let resolver_host: &CannedResolver = sim.host_as(resolver).unwrap();
        assert_eq!(resolver_host.seen.len(), 1);
        assert_eq!(
            resolver_host.seen[0].src, FWD_IP,
            "source rewritten to the forwarder"
        );

        let client_host: &netsim::testkit::ScriptedClient = sim.host_as(client).unwrap();
        assert_eq!(client_host.datagrams.len(), 1);
        let (_, d) = &client_host.datagrams[0];
        assert_eq!(d.src, FWD_IP, "answer arrives from the probed IP");
        let resp = Message::decode(&d.payload).unwrap();
        assert_eq!(resp.header.id, 42, "client's transaction ID restored");
        assert_eq!(resp.answer_a_addrs(), vec![Ipv4Addr::new(7, 7, 7, 7)]);
        assert_eq!(sim.stats().spoofed_sent, 0, "no spoofing involved");
    }

    #[test]
    fn recursive_forwarder_serves_second_query_from_cache() {
        let (mut sim, client, fwd, resolver) = three_node_sim();
        sim.install(fwd, RecursiveForwarder::new(RESOLVER_IP));
        sim.install(resolver, CannedResolver { seen: vec![] });
        netsim::testkit::install_script(
            &mut sim,
            client,
            vec![
                (
                    SimDuration::ZERO,
                    UdpSend::new(34000, FWD_IP, 53, query_bytes(1)),
                ),
                (
                    SimDuration::from_secs(10),
                    UdpSend::new(34001, FWD_IP, 53, query_bytes(2)),
                ),
            ],
        );
        sim.run();
        let resolver_host: &CannedResolver = sim.host_as(resolver).unwrap();
        assert_eq!(
            resolver_host.seen.len(),
            1,
            "second query absorbed by cache"
        );
        let client_host: &netsim::testkit::ScriptedClient = sim.host_as(client).unwrap();
        assert_eq!(client_host.datagrams.len(), 2);
        let second = Message::decode(&client_host.datagrams[1].1.payload).unwrap();
        assert_eq!(second.answers[0].ttl, 290, "cached TTL decayed by 10 s");
        let f: &RecursiveForwarder = sim.host_as(fwd).unwrap();
        assert_eq!(f.stats.cache_answers, 1);
    }

    #[test]
    fn cached_forwarder_refuses_a_chaos_query_and_caches_only_in_answers() {
        // The cache is keyed by `(qname, qtype)`: a forwarded `CH A` query
        // would have its answer cached where the `IN` one is looked up.
        let (mut sim, client, fwd, resolver) = three_node_sim();
        sim.install(fwd, RecursiveForwarder::new(RESOLVER_IP));
        sim.install(resolver, CannedResolver { seen: vec![] });
        let study = DnsName::parse("odns-study.example.").unwrap();
        let chaos = MessageBuilder::query_class(1, study, RrType::A, dnswire::QClass::Ch)
            .recursion_desired(true)
            .build();
        netsim::testkit::install_script(
            &mut sim,
            client,
            vec![
                (
                    SimDuration::ZERO,
                    UdpSend::new(34000, FWD_IP, 53, chaos.encode()),
                ),
                (
                    SimDuration::from_secs(10),
                    UdpSend::new(34001, FWD_IP, 53, query_bytes(2)),
                ),
            ],
        );
        sim.run();

        let client_host: &netsim::testkit::ScriptedClient = sim.host_as(client).unwrap();
        let [(_, refused), (_, answered)] = &client_host.datagrams[..] else {
            panic!("two answers: {:?}", client_host.datagrams);
        };
        let refused = Message::decode(&refused.payload).unwrap();
        assert_eq!(refused.header.flags.rcode, dnswire::Rcode::Refused);
        assert_eq!(refused.questions, chaos.questions, "the CH question echoed");
        assert!(refused.answers.is_empty());
        let answered = Message::decode(&answered.payload).unwrap();
        assert_eq!(answered.answer_a_addrs(), vec![Ipv4Addr::new(7, 7, 7, 7)]);

        let upstream: &CannedResolver = sim.host_as(resolver).unwrap();
        let [asked] = &upstream.seen[..] else {
            panic!("one query upstream: {:?}", upstream.seen);
        };
        let asked = Message::decode(&asked.payload).unwrap();
        assert!(asked.is_plain_in_query(), "only the IN query went upstream");
        let f: &RecursiveForwarder = sim.host_as(fwd).unwrap();
        assert_eq!(
            f.stats,
            RecursiveForwarderStats {
                client_queries: 2,
                forwarded: 1,
                relayed: 1,
                ..RecursiveForwarderStats::default()
            }
        );
        let cache = f.cache.as_ref().unwrap().cache();
        assert_eq!(cache.len(), 1, "the IN resolution's entry");
        assert_eq!((cache.stats.misses, cache.stats.insertions), (1, 1));
    }

    #[test]
    fn two_clients_same_txid_disambiguated_by_port() {
        // Two clients query the recursive forwarder with the *same* DNS
        // transaction ID; the forwarder's per-query upstream port keeps the
        // answers apart.
        let (topo, nodes) =
            playground(&[CLIENT_IP, Ipv4Addr::new(192, 0, 2, 2), FWD_IP, RESOLVER_IP]);
        let mut sim = Simulator::new(topo);
        sim.install(
            nodes[2],
            RecursiveForwarder::new(RESOLVER_IP).without_cache(),
        );
        sim.install(nodes[3], CannedResolver { seen: vec![] });
        netsim::testkit::install_script(
            &mut sim,
            nodes[0],
            vec![(
                SimDuration::ZERO,
                UdpSend::new(40001, FWD_IP, 53, query_bytes(99)),
            )],
        );
        netsim::testkit::install_script(
            &mut sim,
            nodes[1],
            vec![(
                SimDuration::from_micros(10),
                UdpSend::new(40002, FWD_IP, 53, query_bytes(99)),
            )],
        );
        sim.run();
        for client in [nodes[0], nodes[1]] {
            let h: &netsim::testkit::ScriptedClient = sim.host_as(client).unwrap();
            assert_eq!(h.datagrams.len(), 1, "each client gets exactly one answer");
            let m = Message::decode(&h.datagrams[0].1.payload).unwrap();
            assert_eq!(m.header.id, 99);
        }
    }

    #[test]
    fn pending_table_drains_on_answer_and_on_timeout() {
        // Regression: every forwarded query used to leave a record behind
        // for the life of the host, flagged done but never freed.
        /// Answers transaction IDs below 100, swallows the rest.
        struct SelectiveResolver(CannedResolver);
        impl Host for SelectiveResolver {
            fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
                if dnswire::peek_id(&dgram.payload).is_some_and(|id| id < 100) {
                    self.0.on_datagram(ctx, dgram);
                }
            }
        }
        let (mut sim, client, fwd, resolver) = three_node_sim();
        sim.install(fwd, RecursiveForwarder::new(RESOLVER_IP).without_cache());
        sim.install(resolver, SelectiveResolver(CannedResolver { seen: vec![] }));
        let answered = 0..5u16;
        let timed_out = 100..103u16;
        let script = answered
            .clone()
            .chain(timed_out.clone())
            .map(|txid| {
                (
                    SimDuration::from_micros(u64::from(txid)),
                    UdpSend::new(34000 + txid, FWD_IP, 53, query_bytes(txid)),
                )
            })
            .collect();
        netsim::testkit::install_script(&mut sim, client, script);
        sim.run();

        let client_host: &netsim::testkit::ScriptedClient = sim.host_as(client).unwrap();
        assert_eq!(client_host.datagrams.len(), answered.len());
        let f: &RecursiveForwarder = sim.host_as(fwd).unwrap();
        assert!(f.pending.is_empty(), "left behind: {:?}", f.pending);
        assert_eq!(
            f.stats,
            RecursiveForwarderStats {
                client_queries: 8,
                cache_answers: 0,
                forwarded: 8,
                relayed: 5,
                timeouts: 3,
            }
        );
    }

    #[test]
    fn answered_querys_timeout_does_not_expire_a_retransmit_on_the_same_key() {
        // `flow_port` is a pure function of the client flow, so a client
        // retransmit lands on the `(port, txid)` its answered first attempt
        // used. The first attempt's 5 s timeout must be gone by then: left
        // armed, it fires at t = 5 s and expires the retransmit, whose
        // answer (t = 6 s) then finds nobody waiting.
        /// Answers its first query at once and every later one 2 s late.
        struct SlowingResolver {
            canned: CannedResolver,
            held: Vec<Datagram>,
        }
        impl Host for SlowingResolver {
            fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
                let late = if self.held.is_empty() { 0 } else { 2 };
                let _ = ctx.set_timer(SimDuration::from_secs(late), self.held.len() as u64);
                self.held.push(dgram);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) -> TimerOutcome {
                let dgram = self.held[token as usize].clone();
                self.canned.on_datagram(ctx, dgram);
                TimerOutcome::Acted
            }
        }
        let (mut sim, client, fwd, resolver) = three_node_sim();
        sim.install(fwd, RecursiveForwarder::new(RESOLVER_IP).without_cache());
        sim.install(
            resolver,
            SlowingResolver {
                canned: CannedResolver { seen: vec![] },
                held: vec![],
            },
        );
        let script = [0, 4]
            .map(|secs| {
                (
                    SimDuration::from_secs(secs),
                    UdpSend::new(34000, FWD_IP, 53, query_bytes(42)),
                )
            })
            .to_vec();
        netsim::testkit::install_script(&mut sim, client, script);
        assert!(sim.run());

        let upstream: &SlowingResolver = sim.host_as(resolver).unwrap();
        let ports: Vec<u16> = upstream.canned.seen.iter().map(|d| d.src_port).collect();
        assert_eq!(ports[0], ports[1], "the retransmit reused the key");
        let client_host: &netsim::testkit::ScriptedClient = sim.host_as(client).unwrap();
        assert_eq!(client_host.datagrams.len(), 2);
        let f: &RecursiveForwarder = sim.host_as(fwd).unwrap();
        assert_eq!((f.stats.relayed, f.stats.timeouts), (2, 0));
        assert!(f.pending.is_empty());
        assert_eq!(sim.stats().timers_cancelled, 2);
        assert!(sim.stats().conserved());
    }

    /// [`CannedResolver`], except that a transaction ID of 100 or more is
    /// swallowed the first time it is seen.
    struct DeafOnceResolver {
        canned: CannedResolver,
        swallowed: Vec<u16>,
    }
    impl Host for DeafOnceResolver {
        fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
            let txid = dnswire::peek_id(&dgram.payload).unwrap();
            if txid >= 100 && !self.swallowed.contains(&txid) {
                self.swallowed.push(txid);
                self.canned.seen.push(dgram);
            } else {
                self.canned.on_datagram(ctx, dgram);
            }
        }
    }

    /// Run `scenario` — `(seconds, client port, txid)` queries, none before
    /// t = 1 s — through a cacheless forwarder whose pending table starts
    /// `spilled`: behind two queries in flight at once at t = 0, which leave
    /// it an empty hash table where a new forwarder has its inline slot.
    /// Returns the forwarder, what the resolver saw of the scenario and what
    /// the client got for it.
    fn pending_scenario(
        spilled: bool,
        scenario: &[(u64, u16, u16)],
    ) -> (Simulator, netsim::NodeId, Vec<Datagram>, Vec<Datagram>) {
        let (mut sim, client, fwd, resolver) = three_node_sim();
        sim.install(fwd, RecursiveForwarder::new(RESOLVER_IP).without_cache());
        sim.install(
            resolver,
            DeafOnceResolver {
                canned: CannedResolver { seen: vec![] },
                swallowed: vec![],
            },
        );
        let before: &[(u64, u16, u16)] = if spilled {
            &[(0, 33000, 1), (10, 33001, 2)]
        } else {
            &[]
        };
        let script = before
            .iter()
            .map(|&(micros, port, txid)| (SimDuration::from_micros(micros), port, txid))
            .chain(
                scenario
                    .iter()
                    .map(|&(secs, port, txid)| (SimDuration::from_secs(secs), port, txid)),
            )
            .map(|(at, port, txid)| (at, UdpSend::new(port, FWD_IP, 53, query_bytes(txid))))
            .collect();
        netsim::testkit::install_script(&mut sim, client, script);
        assert!(sim.run());
        assert!(sim.stats().conserved());

        let f: &RecursiveForwarder = sim.host_as(fwd).unwrap();
        assert!(f.pending.is_empty(), "left behind: {:?}", f.pending);
        assert_eq!(f.stats.relayed, f.stats.forwarded - f.stats.timeouts);
        let upstream: &DeafOnceResolver = sim.host_as(resolver).unwrap();
        let seen = upstream.canned.seen[before.len()..].to_vec();
        let client_host: &netsim::testkit::ScriptedClient = sim.host_as(client).unwrap();
        let got = client_host.datagrams[before.len()..]
            .iter()
            .map(|(_, d)| d.clone())
            .collect();
        (sim, fwd, seen, got)
    }

    fn is_spilled(sim: &Simulator, fwd: netsim::NodeId) -> bool {
        let f: &RecursiveForwarder = sim.host_as(fwd).unwrap();
        matches!(f.pending, Pending::Spilled(_))
    }

    #[test]
    fn two_queries_in_flight_are_answered_apart_on_both_sides_of_the_spill() {
        for spilled in [false, true] {
            let (sim, fwd, seen, got) = pending_scenario(spilled, &[(1, 34000, 7), (1, 34001, 8)]);
            assert_eq!(seen.len(), 2);
            let answered: Vec<(u16, u16)> = got
                .iter()
                .map(|d| (d.dst_port, dnswire::peek_id(&d.payload).unwrap()))
                .collect();
            assert_eq!(answered, [(34000, 7), (34001, 8)], "spilled: {spilled}");
            assert!(is_spilled(&sim, fwd), "the second query built the table");
            let f: &RecursiveForwarder = sim.host_as(fwd).unwrap();
            assert_eq!(f.stats.timeouts, 0);
        }
    }

    #[test]
    fn retransmit_racing_its_first_attempt_probes_past_it_on_both_sides_of_the_spill() {
        // Same client flow, same txid, so `flow_port` lands the retransmit on
        // the `(port, txid)` its first attempt still holds: it must find
        // that entry — in the inline slot or in the table — and step past.
        for spilled in [false, true] {
            let (sim, fwd, seen, got) =
                pending_scenario(spilled, &[(1, 34000, 42), (1, 34000, 42)]);
            let ports: Vec<u16> = seen.iter().map(|d| d.src_port).collect();
            assert_eq!(ports.len(), 2);
            assert_eq!(ports[1], ports[0] + 1, "spilled: {spilled}");
            assert_eq!(got.len(), 2, "neither attempt clobbered the other");
            assert!(got.iter().all(|d| d.dst_port == 34000));
            assert!(is_spilled(&sim, fwd));
            let f: &RecursiveForwarder = sim.host_as(fwd).unwrap();
            assert_eq!(f.stats.timeouts, 0);
        }
    }

    #[test]
    fn timed_out_key_is_reused_on_both_sides_of_the_spill() {
        // Swallowed at t = 1 s, expired at t = 6 s, retransmitted at t = 7 s
        // onto the same `(port, txid)` and answered.
        for spilled in [false, true] {
            let (sim, fwd, seen, got) =
                pending_scenario(spilled, &[(1, 34000, 142), (7, 34000, 142)]);
            let ports: Vec<u16> = seen.iter().map(|d| d.src_port).collect();
            assert_eq!(ports.len(), 2);
            assert_eq!(ports[0], ports[1], "the expired key was free again");
            assert_eq!(got.len(), 1, "spilled: {spilled}");
            assert_eq!(dnswire::peek_id(&got[0].payload), Some(142));
            let f: &RecursiveForwarder = sim.host_as(fwd).unwrap();
            assert_eq!(f.stats.timeouts, 1);
            assert_eq!(
                is_spilled(&sim, fwd),
                spilled,
                "one query at a time never builds the table"
            );
        }
    }

    /// [`CannedResolver`] with its answer bytes passed through `mangle`.
    struct ManglingResolver {
        seen: usize,
        mangle: fn(&mut Vec<u8>),
    }
    impl Host for ManglingResolver {
        fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
            if dgram.dst_port != dnswire::DNS_PORT {
                return;
            }
            self.seen += 1;
            let query = Message::decode(&dgram.payload).unwrap();
            let qname = query.questions[0].qname.clone();
            let mut bytes = MessageBuilder::response_to(&query)
                .recursion_available(true)
                .answer_a(qname, 300, Ipv4Addr::new(7, 7, 7, 7))
                .build()
                .encode();
            (self.mangle)(&mut bytes);
            ctx.send_udp(UdpSend::reply_to(&dgram, bytes));
        }
    }

    /// Two client queries 10 s apart through a caching forwarder whose
    /// resolver mangles every answer.
    fn relay_through_mangling_resolver(
        mangle: fn(&mut Vec<u8>),
    ) -> (Simulator, [netsim::NodeId; 3]) {
        let (mut sim, client, fwd, resolver) = three_node_sim();
        sim.install(fwd, RecursiveForwarder::new(RESOLVER_IP));
        sim.install(resolver, ManglingResolver { seen: 0, mangle });
        let script = [(0, 1), (10, 2)]
            .map(|(secs, txid)| {
                (
                    SimDuration::from_secs(secs),
                    UdpSend::new(34000 + txid, FWD_IP, 53, query_bytes(txid)),
                )
            })
            .to_vec();
        netsim::testkit::install_script(&mut sim, client, script);
        sim.run();
        (sim, [client, fwd, resolver])
    }

    #[test]
    fn upstream_answer_the_walk_rejects_is_not_relayed() {
        // A matching `(port, txid)` and QR=1, but the body stops two bytes
        // short of its RDLENGTH: not an answer. It goes where every other
        // stray datagram goes — the device's closed-port handling — and
        // the pending query is left to time out.
        let (sim, nodes) = relay_through_mangling_resolver(|bytes| bytes.truncate(bytes.len() - 2));
        let client: &netsim::testkit::ScriptedClient = sim.host_as(nodes[0]).unwrap();
        assert!(client.datagrams.is_empty(), "nothing relayed");
        let f: &RecursiveForwarder = sim.host_as(nodes[1]).unwrap();
        assert_eq!(
            f.stats,
            RecursiveForwarderStats {
                client_queries: 2,
                forwarded: 2,
                timeouts: 2,
                ..RecursiveForwarderStats::default()
            }
        );
        assert!(f.pending.is_empty());
        assert_eq!(
            sim.stats().icmp_delivered,
            2,
            "port unreachable back to the resolver, as for any stray datagram"
        );
    }

    #[test]
    fn upstream_answer_only_a_decoder_would_reject_is_relayed_but_never_served() {
        // The one deliberate difference to a decoding proxy: sound section
        // structure with a forward compression pointer as the answer's
        // owner passes the walk, so the client gets the upstream bytes as
        // they are. The cache cannot decode them: the next lookup is a
        // counted miss, and the query goes upstream again.
        let (sim, nodes) = relay_through_mangling_resolver(|bytes| {
            let owner = bytes.len() - 16;
            bytes[owner..owner + 2].copy_from_slice(&[0xC0, 0xFF]);
        });
        let client: &netsim::testkit::ScriptedClient = sim.host_as(nodes[0]).unwrap();
        assert_eq!(client.datagrams.len(), 2);
        for ((_, d), txid) in client.datagrams.iter().zip([1u16, 2]) {
            assert!(Message::decode(&d.payload).is_err());
            let walk = dnswire::walk_sections(&d.payload).expect("sound structure");
            assert_eq!((walk.id, walk.ancount), (txid, 1));
            assert_eq!(d.src, FWD_IP);
        }
        let resolver: &ManglingResolver = sim.host_as(nodes[2]).unwrap();
        assert_eq!(resolver.seen, 2, "the second query was not absorbed");
        let f: &RecursiveForwarder = sim.host_as(nodes[1]).unwrap();
        assert_eq!((f.stats.relayed, f.stats.cache_answers), (2, 0));
        let cache = f.cache.as_ref().unwrap().cache();
        assert_eq!((cache.stats.hits, cache.stats.misses), (0, 2));
        assert_eq!(cache.len(), 1, "only the second answer, not yet looked up");
    }

    #[test]
    fn manipulating_forwarder_rewrites_a_records() {
        let (mut sim, client, fwd, resolver) = three_node_sim();
        let inject = Ipv4Addr::new(10, 66, 66, 66);
        sim.install(
            fwd,
            RecursiveForwarder::new(RESOLVER_IP)
                .with_manipulation(Manipulation::ReplaceARecords(inject)),
        );
        sim.install(resolver, CannedResolver { seen: vec![] });
        netsim::testkit::install_script(
            &mut sim,
            client,
            vec![(
                SimDuration::ZERO,
                UdpSend::new(34000, FWD_IP, 53, query_bytes(8)),
            )],
        );
        sim.run();
        let client_host: &netsim::testkit::ScriptedClient = sim.host_as(client).unwrap();
        let resp = Message::decode(&client_host.datagrams[0].1.payload).unwrap();
        assert_eq!(
            resp.answer_a_addrs(),
            vec![inject],
            "all A records replaced"
        );
    }

    #[test]
    fn transparent_forwarder_ignores_garbage() {
        let mut ex = Exchange::new(FWD_IP, CLIENT_IP, TransparentForwarder::new(RESOLVER_IP));
        ex.send_at(SimDuration::ZERO, UdpSend::new(1, FWD_IP, 53, vec![0x01]));
        ex.run();
        let f: &TransparentForwarder = ex.subject();
        assert_eq!(f.stats.relayed, 0);
    }
}
