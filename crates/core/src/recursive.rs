//! The recursive resolver: iterative resolution with caching and ACLs.
//!
//! This single implementation plays three roles in the study (Figure 1):
//!
//! * **open recursive resolver** — `AccessPolicy::Open`, the classic ODNS
//!   component and the only resolver type a transparent forwarder can use;
//! * **restricted recursive resolver** — `AccessPolicy::RestrictedTo`, which
//!   REFUSES off-net clients (and thereby *rejects* queries relayed by a
//!   transparent forwarder, since those arrive with the scanner's address);
//! * **public anycast resolver PoP** — an open instance registered under a
//!   project's anycast service address (`inetgen` registers one per
//!   [`crate::ResolverProject`]), answering from that address.
//!
//! Resolution is genuinely iterative: root referral → TLD referral →
//! authoritative answer, all through the simulated network, with positive
//! and negative caching.

use crate::cache::{CachedAnswer, DnsCache, ServeCache};
use dnswire::{DnsName, Message, MessageBuilder, Rcode, ResponseTemplate, RrType};
use netsim::{Ctx, Datagram, Host, IntMap, Payload, SimDuration, TimerId, UdpSend};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Who may use this resolver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessPolicy {
    /// Anyone — an ODNS component.
    Open,
    /// Only clients inside one of these `(network, prefix_len)` blocks;
    /// everyone else gets REFUSED.
    RestrictedTo(Vec<(Ipv4Addr, u8)>),
}

impl AccessPolicy {
    /// Does `client` pass this policy?
    pub fn allows(&self, client: Ipv4Addr) -> bool {
        match self {
            AccessPolicy::Open => true,
            AccessPolicy::RestrictedTo(nets) => {
                nets.iter().any(|(net, len)| in_prefix(client, *net, *len))
            }
        }
    }
}

/// Is `ip` inside `net/len`?
pub fn in_prefix(ip: Ipv4Addr, net: Ipv4Addr, len: u8) -> bool {
    if len == 0 {
        return true;
    }
    if len > 32 {
        return false;
    }
    let mask = u32::MAX << (32 - u32::from(len));
    (u32::from(ip) & mask) == (u32::from(net) & mask)
}

/// Resolver configuration.
#[derive(Debug, Clone)]
pub struct ResolverConfig {
    /// Root server addresses (tried in order).
    pub roots: Vec<Ipv4Addr>,
    /// Client access policy.
    pub acl: AccessPolicy,
    /// Cache capacity in entries.
    pub cache_capacity: usize,
}

/// Timeout per upstream query before retry/SERVFAIL.
const UPSTREAM_TIMEOUT: SimDuration = SimDuration::from_secs(2);
/// Maximum referral depth (loop guard).
const MAX_REFERRALS: u8 = 8;
/// Total upstream retries per resolution before SERVFAIL. Real resolvers
/// persist through several lost legs; a single-retry budget makes every
/// coalesced client hostage to two unlucky packets.
const MAX_RETRIES: u8 = 4;

impl ResolverConfig {
    /// An open resolver with the given roots and sane defaults.
    pub fn open(roots: Vec<Ipv4Addr>) -> Self {
        ResolverConfig {
            roots,
            acl: AccessPolicy::Open,
            cache_capacity: 512,
        }
    }

    /// A restricted resolver serving only `nets`.
    pub fn restricted(roots: Vec<Ipv4Addr>, nets: Vec<(Ipv4Addr, u8)>) -> Self {
        ResolverConfig {
            acl: AccessPolicy::RestrictedTo(nets),
            ..Self::open(roots)
        }
    }
}

/// Counters kept by the resolver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolverStats {
    /// Client queries received.
    pub client_queries: u64,
    /// Client queries answered from cache.
    pub cache_answers: u64,
    /// Client queries coalesced onto an in-flight resolution for the same
    /// name (real resolvers do this; without it a fast scanner's identical
    /// queries stampede the authoritative server before the first answer
    /// can populate the cache).
    pub coalesced: u64,
    /// Client queries REFUSED by the ACL.
    pub refused: u64,
    /// Upstream queries emitted (root + TLD + auth).
    pub upstream_queries: u64,
    /// SERVFAIL responses sent.
    pub servfail: u64,
    /// Upstream timeouts observed.
    pub timeouts: u64,
}

/// How a resolution ended, delivered to the leader and all coalesced
/// waiters.
#[derive(Debug, Clone)]
enum TaskOutcome {
    Records(Vec<dnswire::Record>),
    Rcode(Rcode),
    NoData,
}

/// A client owed an answer: the leader of a resolution, or a waiter
/// coalesced behind it.
#[derive(Debug)]
struct Client {
    addr: Ipv4Addr,
    port: u16,
    txid: u16,
    /// The client's RD bit, echoed in its answer.
    rd: bool,
    /// The address the client queried (unicast or anycast service IP);
    /// responses are sourced from it.
    service_addr: Ipv4Addr,
    /// The question name in this client's own casing.
    qname: DnsName,
}

/// One resolution in flight.
#[derive(Debug)]
struct Task {
    leader: Client,
    qtype: RrType,
    /// The upstream query for `(leader.qname, qtype)` in the leader's
    /// casing, encoded once with ID 0: root, TLD, auth and every retry
    /// send it under their own txid.
    upstream_query: Vec<u8>,
    /// Clients that asked the same `(qname, qtype)` while this resolution
    /// was in flight, in arrival order. They are answered with it.
    waiters: Vec<Client>,
    current_ns: Ipv4Addr,
    referrals: u8,
    retries: u8,
}

/// The recursive resolver host.
#[derive(Debug)]
pub struct RecursiveResolver {
    config: ResolverConfig,
    cache: ServeCache,
    /// Resolutions in flight by task id; an entry lives from its leader's
    /// cache miss until [`Self::finish`] answers it and everyone coalesced
    /// behind it, so the table drains.
    tasks: IntMap<u64, Task>,
    next_task: u64,
    /// Pending upstream transactions: `(our_port, txid)` → task id and the
    /// transaction's timeout, which its response cancels.
    pending: IntMap<(u16, u16), (u64, TimerId)>,
    /// Reverse lookup: `(qname, qtype)` → task id.
    inflight: HashMap<(DnsName, RrType), u64>,
    /// The newest resolution in flight whose leader sent a plain `IN`
    /// query, with that datagram: a later one equal to it past the
    /// transaction ID is the same question in the same casing with the
    /// same flags, and joins as a waiter without being decoded. A burst of
    /// census probes relayed to one resolver is exactly that.
    newest_plain_leader: Option<(u64, Payload)>,
    next_port: u16,
    next_txid: u16,
    /// Counters.
    pub stats: ResolverStats,
}

impl RecursiveResolver {
    /// Build from config.
    pub fn new(config: ResolverConfig) -> Self {
        let cache = ServeCache::new(config.cache_capacity);
        RecursiveResolver {
            config,
            cache,
            tasks: IntMap::default(),
            next_task: 0,
            pending: IntMap::default(),
            inflight: HashMap::new(),
            newest_plain_leader: None,
            next_port: 1024,
            next_txid: 1,
            stats: ResolverStats::default(),
        }
    }

    /// Access to the cache (for pollution experiments).
    pub fn cache(&self) -> &DnsCache {
        self.cache.cache()
    }

    /// Bookkeeping entries held for unfinished work: open tasks, pending
    /// upstream transactions, coalesced waiters, in-flight names. All zero
    /// once every client query has been answered.
    pub fn open_entries(&self) -> [usize; 4] {
        [
            self.tasks.len(),
            self.pending.len(),
            self.tasks.values().map(|t| t.waiters.len()).sum(),
            self.inflight.len(),
        ]
    }

    fn alloc_ids(&mut self) -> (u16, u16) {
        let port = self.next_port;
        self.next_port = if self.next_port >= 65000 {
            1024
        } else {
            self.next_port + 1
        };
        let txid = self.next_txid;
        self.next_txid = self.next_txid.wrapping_add(1).max(1);
        (port, txid)
    }

    /// The response `client` is owed, before `build` fills it in.
    fn response_for(
        client: &Client,
        qtype: RrType,
        build: impl FnOnce(MessageBuilder) -> MessageBuilder,
    ) -> Message {
        let skeleton = MessageBuilder::query(client.txid, client.qname.clone(), qtype)
            .recursion_desired(client.rd)
            .build();
        build(MessageBuilder::response_to(&skeleton).recursion_available(true)).build()
    }

    /// Deliver a final outcome to a task's leader and every coalesced
    /// waiter, removing the task.
    fn finish(&mut self, ctx: &mut Ctx<'_>, id: u64, outcome: TaskOutcome) {
        let Some(task) = self.tasks.remove(&id) else {
            return;
        };
        let qtype = task.qtype;
        self.inflight.remove(&(task.leader.qname.clone(), qtype));
        if self.newest_plain_leader.as_ref().is_some_and(|l| l.0 == id) {
            self.newest_plain_leader = None;
        }
        // A burst of identical probes coalesces into one resolution with
        // many recipients: records are encoded once, for the first
        // recipient, and every later one whose question has the same raw
        // casing gets those bytes with its own txid and RD patched in.
        let mut encoded: Option<(DnsName, ResponseTemplate)> = None;
        for client in std::iter::once(task.leader).chain(task.waiters) {
            let built = |build: &dyn Fn(MessageBuilder) -> MessageBuilder| -> Payload {
                Self::response_for(&client, qtype, build).encode().into()
            };
            let payload = match &outcome {
                TaskOutcome::Records(records) => {
                    let with_records =
                        |b: MessageBuilder| records.iter().cloned().fold(b, MessageBuilder::answer);
                    if encoded.is_none() {
                        let first = Self::response_for(&client, qtype, with_records);
                        encoded = ResponseTemplate::from_message(&first)
                            .map(|t| (client.qname.clone(), t));
                    }
                    match &encoded {
                        Some((qname, template)) if qname.as_wire() == client.qname.as_wire() => {
                            template
                                .materialize_ttls_kept(client.txid, client.rd)
                                .into()
                        }
                        // Another 0x20 casing: this client's response is
                        // built on its own, echoing its own question.
                        _ => built(&with_records),
                    }
                }
                TaskOutcome::Rcode(rcode) => built(&|b| b.rcode(*rcode)),
                TaskOutcome::NoData => built(&|b| b),
            };
            ctx.send_udp(UdpSend {
                src: Some(client.service_addr),
                src_port: dnswire::DNS_PORT,
                dst: client.addr,
                dst_port: client.port,
                ttl: None,
                payload,
            });
        }
    }

    fn send_upstream(&mut self, ctx: &mut Ctx<'_>, id: u64) {
        let (port, txid) = self.alloc_ids();
        let task = &self.tasks[&id];
        self.stats.upstream_queries += 1;
        ctx.send_udp(UdpSend {
            src: None, // egress uses the node's unicast address, even on anycast PoPs
            src_port: port,
            dst: task.current_ns,
            dst_port: dnswire::DNS_PORT,
            ttl: None,
            payload: Payload::with_dns_id(&task.upstream_query, txid),
        });
        let timeout = ctx.set_timer(UPSTREAM_TIMEOUT, encode_timer(port, txid));
        self.pending.insert((port, txid), (id, timeout));
    }

    fn handle_client_query(&mut self, ctx: &mut Ctx<'_>, dgram: &Datagram, query: Message) {
        self.stats.client_queries += 1;

        if !self.config.acl.allows(dgram.src) {
            self.stats.refused += 1;
            let resp = MessageBuilder::response_to(&query)
                .rcode(Rcode::Refused)
                .build();
            ctx.send_udp(UdpSend::reply_to(dgram, resp.encode()));
            return;
        }

        if let Some(answer) = self.cache.serve_decoded(&dgram.payload, &query, ctx.now()) {
            self.stats.cache_answers += 1;
            ctx.send_udp(UdpSend::reply_to(dgram, answer));
            return;
        }

        let Some(&root) = self.config.roots.first() else {
            let resp = MessageBuilder::response_to(&query)
                .rcode(Rcode::ServFail)
                .build();
            self.stats.servfail += 1;
            ctx.send_udp(UdpSend::reply_to(dgram, resp.encode()));
            return;
        };

        let q = query.question().expect("caller checked");
        let client = Client {
            addr: dgram.src,
            port: dgram.src_port,
            txid: query.header.id,
            rd: query.header.flags.recursion_desired,
            service_addr: dgram.dst,
            qname: q.qname.clone(),
        };
        let id = self.next_task;
        self.next_task += 1;
        // Coalesce onto an in-flight resolution for the same name (the
        // entry exists exactly while its leader is unanswered).
        let key = (q.qname.clone(), q.qtype);
        if let Some(leader) = self.inflight.get(&key) {
            self.stats.coalesced += 1;
            let task = self.tasks.get_mut(leader).expect("in flight");
            task.waiters.push(client);
            return;
        }
        self.inflight.insert(key, id);
        let task = Task {
            upstream_query: MessageBuilder::query(0, q.qname.clone(), q.qtype)
                .build()
                .encode(),
            leader: client,
            qtype: q.qtype,
            waiters: Vec::new(),
            current_ns: root,
            referrals: 0,
            retries: 0,
        };
        self.tasks.insert(id, task);
        if query.is_plain_in_query() {
            self.newest_plain_leader = Some((id, dgram.payload.clone()));
        }
        self.send_upstream(ctx, id);
    }

    /// Admit `dgram` as a waiter without decoding it, if it is the newest
    /// plain leader's query again under another transaction ID: `true`
    /// when the datagram has been dealt with. Everything
    /// [`Self::handle_client_query`] would have done for it after the ACL
    /// happens here — the counters, the memo rule and the one counted
    /// cache lookup ([`ServeCache::serve_plain`]), the task id consumed —
    /// with txid and RD read off the header and the name shared with the
    /// leader.
    fn admit_waiter_undecoded(&mut self, ctx: &mut Ctx<'_>, dgram: &Datagram) -> bool {
        let payload = &dgram.payload;
        let Some((id, query)) = &self.newest_plain_leader else {
            return false;
        };
        if query.len() != payload.len() || query[2..] != payload[2..] {
            return false;
        }
        let task = self.tasks.get_mut(id).expect("cleared with its task");
        let client = Client {
            addr: dgram.src,
            port: dgram.src_port,
            txid: u16::from_be_bytes([payload[0], payload[1]]),
            rd: payload[2] & 0x01 != 0,
            service_addr: dgram.dst,
            qname: task.leader.qname.clone(),
        };
        self.stats.client_queries += 1;
        if let Some(answer) = self.cache.serve_plain(
            payload,
            client.txid,
            client.rd,
            &client.qname,
            task.qtype,
            ctx.now(),
        ) {
            self.stats.cache_answers += 1;
            ctx.send_udp(UdpSend::reply_to(dgram, answer));
            return true;
        }
        self.next_task += 1;
        self.stats.coalesced += 1;
        task.waiters.push(client);
        true
    }

    fn handle_upstream_response(&mut self, ctx: &mut Ctx<'_>, dgram: &Datagram, resp: Message) {
        let key = (dgram.dst_port, resp.header.id);
        let Some((id, timeout)) = self.pending.remove(&key) else {
            return; // late or unsolicited; drop
        };
        ctx.cancel_timer(timeout);
        let Some(task) = self.tasks.get_mut(&id) else {
            return;
        };

        if !resp.answers.is_empty() {
            // Final answer: cache and relay (to the leader and everyone
            // coalesced behind it).
            let min_ttl = resp.answers.iter().map(|r| r.ttl).min().unwrap_or(0);
            let records = resp.answers;
            self.cache.insert(
                task.leader.qname.clone(),
                task.qtype,
                CachedAnswer::Positive(records.clone()),
                min_ttl,
                ctx.now(),
            );
            self.finish(ctx, id, TaskOutcome::Records(records));
            return;
        }

        if let Some(referral) = crate::zone::extract_referral(&resp) {
            task.referrals += 1;
            if task.referrals > MAX_REFERRALS {
                self.stats.servfail += 1;
                self.finish(ctx, id, TaskOutcome::Rcode(Rcode::ServFail));
                return;
            }
            task.current_ns = referral.ns_ip;
            self.send_upstream(ctx, id);
            return;
        }

        match resp.header.flags.rcode {
            Rcode::NxDomain => {
                // Negative caching per the SOA MINIMUM if present.
                let ttl = resp
                    .authorities
                    .iter()
                    .find_map(|r| match &r.rdata {
                        dnswire::RData::Soa(soa) => Some(soa.minimum.min(r.ttl)),
                        _ => None,
                    })
                    .unwrap_or(60);
                self.cache.insert(
                    task.leader.qname.clone(),
                    task.qtype,
                    CachedAnswer::Negative(Rcode::NxDomain),
                    ttl,
                    ctx.now(),
                );
                self.finish(ctx, id, TaskOutcome::Rcode(Rcode::NxDomain));
            }
            Rcode::NoError => {
                self.finish(ctx, id, TaskOutcome::NoData);
            }
            _ => {
                self.stats.servfail += 1;
                self.finish(ctx, id, TaskOutcome::Rcode(Rcode::ServFail));
            }
        }
    }
}

fn encode_timer(port: u16, txid: u16) -> u64 {
    (u64::from(port) << 16) | u64::from(txid)
}

fn decode_timer(token: u64) -> (u16, u16) {
    ((token >> 16) as u16, token as u16)
}

impl Host for RecursiveResolver {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
        if dgram.dst_port == dnswire::DNS_PORT {
            // Steady-state fast path: a probe byte-identical to the
            // memoized query (modulo txid) skips the decode entirely
            // when its answer is a positive wire-cache hit. The ACL comes
            // first — refusals belong to the decode path.
            if self.config.acl.allows(dgram.src) {
                if let Some(answer) = self.cache.serve_undecoded(&dgram.payload, ctx.now()) {
                    self.stats.client_queries += 1;
                    self.stats.cache_answers += 1;
                    ctx.send_udp(UdpSend::reply_to(&dgram, answer));
                    return;
                }
                // Before the answer is cached, the burst's later probes
                // wait for it: same bytes as the leader's, no decode.
                if self.admit_waiter_undecoded(ctx, &dgram) {
                    return;
                }
            }
            // A leader, another casing or RD, an exotic class, a refusal:
            // the whole question and header are needed.
            let Ok(msg) = Message::decode(&dgram.payload) else {
                return;
            };
            if msg.is_response() || msg.question().is_none() {
                return;
            }
            self.handle_client_query(ctx, &dgram, msg);
        } else {
            // Traffic to our ephemeral ports: upstream responses, read
            // whole — answers to cache, referrals and SOA to follow.
            let Ok(msg) = Message::decode(&dgram.payload) else {
                return;
            };
            if !msg.is_response() {
                return;
            }
            self.handle_upstream_response(ctx, &dgram, msg);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let key = decode_timer(token);
        let Some((id, _)) = self.pending.remove(&key) else {
            return; // answered, with a timeout too far out to cancel
        };
        self.stats.timeouts += 1;
        let Some(task) = self.tasks.get_mut(&id) else {
            return;
        };
        // Retry the current server with a fresh (port, txid) until the
        // budget runs out, then SERVFAIL everyone waiting.
        if task.retries < MAX_RETRIES {
            task.retries += 1;
            self.send_upstream(ctx, id);
        } else {
            self.stats.servfail += 1;
            self.finish(ctx, id, TaskOutcome::Rcode(Rcode::ServFail));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_matching() {
        let net = Ipv4Addr::new(203, 0, 113, 0);
        assert!(in_prefix(Ipv4Addr::new(203, 0, 113, 77), net, 24));
        assert!(!in_prefix(Ipv4Addr::new(203, 0, 114, 1), net, 24));
        assert!(in_prefix(Ipv4Addr::new(203, 0, 114, 1), net, 16));
        assert!(
            in_prefix(Ipv4Addr::new(9, 9, 9, 9), net, 0),
            "len 0 matches all"
        );
        assert!(
            !in_prefix(Ipv4Addr::new(9, 9, 9, 9), net, 33),
            "invalid length matches none"
        );
    }

    #[test]
    fn access_policy() {
        let open = AccessPolicy::Open;
        assert!(open.allows(Ipv4Addr::new(1, 2, 3, 4)));
        let restricted = AccessPolicy::RestrictedTo(vec![(Ipv4Addr::new(10, 0, 0, 0), 8)]);
        assert!(restricted.allows(Ipv4Addr::new(10, 200, 3, 4)));
        assert!(!restricted.allows(Ipv4Addr::new(192, 0, 2, 1)));
    }

    #[test]
    fn timer_token_roundtrip() {
        let (p, t) = decode_timer(encode_timer(34017, 0xBEEF));
        assert_eq!((p, t), (34017, 0xBEEF));
    }

    #[test]
    fn port_allocation_wraps_in_ephemeral_range() {
        let mut r = RecursiveResolver::new(ResolverConfig::open(vec![Ipv4Addr::new(1, 1, 1, 1)]));
        r.next_port = 64999;
        let (p1, _) = r.alloc_ids();
        let (p2, _) = r.alloc_ids();
        let (p3, _) = r.alloc_ids();
        assert_eq!((p1, p2, p3), (64999, 65000, 1024));
    }

    #[test]
    fn answered_transactions_timeout_does_not_expire_a_later_one_on_the_same_key() {
        // The forwarder's stale-timeout bug, for this table. `alloc_ids`
        // walks ports and txids round two coprime cycles (63 977 and
        // 65 535 long), so a `(port, txid)` key only comes back after
        // ≈ 4.2 · 10⁹ upstream queries — no run gets there. The test
        // rewinds both counters by hand instead: the second transaction
        // reuses the key of the first, answered one, whose 2 s timeout
        // must not fire into it.
        use netsim::testkit::{install_script, playground, ScriptedClient};
        use netsim::{SimConfig, SimTime, Simulator};

        const CLIENT: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);
        const RESOLVER: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 1);
        const UPSTREAM: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 2);

        /// Answers every query with one A record: the first at once, every
        /// later one 1.5 s late.
        #[derive(Default)]
        struct SlowingServer {
            seen: Vec<Datagram>,
        }
        impl Host for SlowingServer {
            fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
                let late = if self.seen.is_empty() { 0 } else { 1_500 };
                ctx.set_timer(SimDuration::from_millis(late), self.seen.len() as u64);
                self.seen.push(dgram);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
                let dgram = &self.seen[token as usize];
                let query = Message::decode(&dgram.payload).unwrap();
                let qname = query.questions[0].qname.clone();
                let resp = MessageBuilder::response_to(&query)
                    .answer_a(qname, 300, Ipv4Addr::new(7, 7, 7, 7))
                    .build();
                ctx.send_udp(UdpSend::reply_to(dgram, resp.encode()));
            }
        }

        let (topo, nodes) = playground(&[CLIENT, RESOLVER, UPSTREAM]);
        let mut sim = Simulator::new(topo, SimConfig::default());
        sim.install(
            nodes[1],
            RecursiveResolver::new(ResolverConfig::open(vec![UPSTREAM])),
        );
        sim.install(nodes[2], SlowingServer::default());
        let script = [(0, "a.example."), (1, "b.example.")]
            .map(|(secs, name)| {
                let query = MessageBuilder::query(9, DnsName::parse(name).unwrap(), RrType::A)
                    .recursion_desired(true)
                    .build();
                (
                    SimDuration::from_secs(secs),
                    UdpSend::new(34000, RESOLVER, 53, query.encode()),
                )
            })
            .to_vec();
        install_script(&mut sim, nodes[0], script);

        sim.run_until(SimTime::ZERO + SimDuration::from_millis(500));
        let r: &mut RecursiveResolver = sim.host_as_mut(nodes[1]).unwrap();
        assert_eq!((r.stats.upstream_queries, r.pending.len()), (1, 0));
        (r.next_port, r.next_txid) = (1024, 1);
        assert!(sim.run());

        let upstream: &SlowingServer = sim.host_as(nodes[2]).unwrap();
        let keys: Vec<(u16, Option<u16>)> = upstream
            .seen
            .iter()
            .map(|d| (d.src_port, dnswire::peek_id(&d.payload)))
            .collect();
        assert_eq!(keys, [(1024, Some(1)); 2], "one query each, same key");
        let r: &RecursiveResolver = sim.host_as(nodes[1]).unwrap();
        assert_eq!((r.stats.timeouts, r.stats.servfail), (0, 0));
        assert_eq!(r.open_entries(), [0; 4]);
        let client: &ScriptedClient = sim.host_as(nodes[0]).unwrap();
        assert_eq!(client.datagrams.len(), 2);
        assert_eq!(sim.stats().timers_cancelled, 2);
    }

    // Full end-to-end resolution paths are covered by integration tests in
    // `resolution_chain.rs` (root → TLD → auth through the simulator).
}
