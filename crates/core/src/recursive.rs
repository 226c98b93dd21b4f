//! The recursive resolver: iterative resolution with caching.
//!
//! This single implementation plays two roles in the study (Figure 1):
//!
//! * **open recursive resolver** — the classic ODNS component and the only
//!   resolver type a transparent forwarder can use: a relayed query carries
//!   the scanner's address, which a restricted resolver would refuse (§2);
//! * **public anycast resolver PoP** — an open instance registered under a
//!   project's anycast service address (`inetgen` registers one per
//!   [`crate::ResolverProject`]), answering from that address.
//!
//! Resolution is genuinely iterative: root referral → TLD referral →
//! authoritative answer, all through the simulated network, with positive
//! and negative caching.
//!
//! The one message a resolution decodes is the final answer, whose records
//! it caches. A client query is read once, by [`ServeCache::serve`]; one
//! in the study's plain shape has its upstream query spliced from the
//! question bytes it arrived with, and a referral in this crate's shape is
//! followed from what [`dnswire::view_referral`] reads. Any query but a
//! plain `IN` one is refused.

use crate::cache::{CachedAnswer, ClientQuery, DnsCache, Reading, ServeCache, Served};
use dnswire::{DnsName, Message, MessageBuilder, Rcode, ResponseTemplate, RrType, HEADER_LEN};
use netsim::{Ctx, Datagram, Host, IntMap, Payload, SimDuration, TimerId, TimerOutcome, UdpSend};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Timeout per upstream query before retry/SERVFAIL.
const UPSTREAM_TIMEOUT: SimDuration = SimDuration::from_secs(2);
/// Maximum referral depth (loop guard).
const MAX_REFERRALS: u8 = 8;
/// Total upstream retries per resolution before SERVFAIL. Real resolvers
/// persist through several lost legs; a single-retry budget makes every
/// coalesced client hostage to two unlucky packets.
const MAX_RETRIES: u8 = 4;

/// What a resolution resolves: a question's name and type. Names compare
/// without regard to case, so every 0x20 casing of one question shares it.
type Question = (DnsName, RrType);

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
    /// Client queries REFUSED for not being a plain `IN` query.
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
    /// The address the client queried (unicast or anycast service IP);
    /// responses are sourced from it.
    service_addr: Ipv4Addr,
    /// What the client asked, in its own casing, under its txid and RD bit.
    query: ClientQuery,
}

/// One resolution in flight.
#[derive(Debug)]
struct Task {
    leader: Client,
    /// The upstream query for the leader's question in its casing, encoded
    /// once with ID 0: root, TLD, auth and every retry send it under their
    /// own txid.
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
    /// The root server every resolution starts at.
    root: Ipv4Addr,
    cache: ServeCache,
    /// Resolutions in flight by question; an entry lives from its leader's
    /// cache miss until [`Self::finish`] answers it and everyone coalesced
    /// behind it, so the table drains. A task has at most one pending
    /// transaction, and `finish` runs only after that transaction is
    /// removed, so no stale transaction can reach a later resolution of the
    /// same question.
    tasks: HashMap<Question, Task>,
    /// Pending upstream transactions: `(our_port, txid)` → the question it
    /// resolves and the transaction's timeout, which its response cancels.
    pending: IntMap<(u16, u16), (Question, TimerId)>,
    next_port: u16,
    next_txid: u16,
    /// Counters.
    pub stats: ResolverStats,
}

impl RecursiveResolver {
    /// An open resolver that starts every resolution at `root` and caches
    /// up to `cache_capacity` entries.
    pub fn new(root: Ipv4Addr, cache_capacity: usize) -> Self {
        RecursiveResolver {
            root,
            cache: ServeCache::new(cache_capacity),
            tasks: HashMap::new(),
            pending: IntMap::default(),
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
    /// upstream transactions, coalesced waiters. All zero once every client
    /// query has been answered.
    // detlint::allow(needless-pub): crates/core/tests/coalescing.rs asserts through it that every table drains
    pub fn open_entries(&self) -> [usize; 3] {
        [
            self.tasks.len(),
            self.pending.len(),
            self.tasks.values().map(|t| t.waiters.len()).sum(),
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

    /// Deliver a final outcome to a task's leader and every coalesced
    /// waiter, removing the task.
    fn finish(&mut self, ctx: &mut Ctx<'_>, question: &Question, outcome: TaskOutcome) {
        let Some(task) = self.tasks.remove(question) else {
            return;
        };
        // A burst of identical probes coalesces into one resolution with
        // many recipients: records are encoded once, for the first
        // recipient, and every later one whose question has the same raw
        // casing gets those bytes with its own txid and RD patched in.
        let mut encoded: Option<(DnsName, ResponseTemplate)> = None;
        for client in std::iter::once(task.leader).chain(task.waiters) {
            let asked = &client.query;
            let payload = match &outcome {
                TaskOutcome::Records(records) => {
                    let response = || asked.response(Rcode::NoError, records.clone());
                    if encoded.is_none() {
                        encoded = ResponseTemplate::from_message(&response())
                            .map(|t| (asked.qname.clone(), t));
                    }
                    match &encoded {
                        Some((qname, template)) if qname.as_wire() == asked.qname.as_wire() => {
                            template.materialize_ttls_kept(asked.id, asked.rd).into()
                        }
                        // Another 0x20 casing: this client's response is
                        // built on its own, echoing its own question.
                        _ => response().encode().into(),
                    }
                }
                TaskOutcome::Rcode(rcode) => asked.response(*rcode, Vec::new()).encode().into(),
                TaskOutcome::NoData => asked.response(Rcode::NoError, Vec::new()).encode().into(),
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

    fn send_upstream(&mut self, ctx: &mut Ctx<'_>, question: Question) {
        let (port, txid) = self.alloc_ids();
        let task = &self.tasks[&question];
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
        self.pending.insert((port, txid), (question, timeout));
    }

    /// Resolve the cache miss `query` that arrived in `dgram`: coalesce it
    /// onto the resolution in flight for its question, or start one at the
    /// root. A query read from its bytes' plain shape (or the memo's) has
    /// its upstream query spliced from its question as it arrived.
    fn resolve(&mut self, ctx: &mut Ctx<'_>, dgram: &Datagram, query: ClientQuery) {
        let question = (query.qname.clone(), query.qtype);
        let client = Client {
            addr: dgram.src,
            port: dgram.src_port,
            service_addr: dgram.dst,
            query,
        };
        // Coalesce onto an in-flight resolution for the same question (the
        // entry exists exactly while its leader is unanswered).
        if let Some(task) = self.tasks.get_mut(&question) {
            self.stats.coalesced += 1;
            task.waiters.push(client);
            return;
        }
        let upstream_query = if client.query.read == Reading::Decoded {
            MessageBuilder::query(0, question.0.clone(), question.1)
                .build()
                .encode()
        } else {
            // ID 0, no flags, one question, then the question as it
            // arrived: the bytes the builder above would encode.
            let mut query = Vec::with_capacity(dgram.payload.len());
            query.extend_from_slice(&[0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0]);
            query.extend_from_slice(&dgram.payload[HEADER_LEN..]);
            query
        };
        let task = Task {
            upstream_query,
            leader: client,
            waiters: Vec::new(),
            current_ns: self.root,
            referrals: 0,
            retries: 0,
        };
        self.tasks.insert(question.clone(), task);
        self.send_upstream(ctx, question);
    }

    /// The question that upstream transaction `(port, txid)` resolves, the
    /// transaction closed and its timeout cancelled; `None` when it is no
    /// longer pending (a late or unsolicited datagram).
    fn answered(&mut self, ctx: &mut Ctx<'_>, port: u16, txid: u16) -> Option<Question> {
        let (question, timeout) = self.pending.remove(&(port, txid))?;
        ctx.cancel_timer(timeout);
        Some(question)
    }

    /// Take the resolution of `question` one delegation down, to the name
    /// server at `ns_ip` — or SERVFAIL everyone waiting on it past
    /// [`MAX_REFERRALS`].
    fn follow_referral(&mut self, ctx: &mut Ctx<'_>, question: Question, ns_ip: Ipv4Addr) {
        let Some(task) = self.tasks.get_mut(&question) else {
            return;
        };
        task.referrals += 1;
        if task.referrals > MAX_REFERRALS {
            self.stats.servfail += 1;
            self.finish(ctx, &question, TaskOutcome::Rcode(Rcode::ServFail));
            return;
        }
        task.current_ns = ns_ip;
        self.send_upstream(ctx, question);
    }

    fn handle_upstream_response(&mut self, ctx: &mut Ctx<'_>, dgram: &Datagram, resp: Message) {
        let Some(question) = self.answered(ctx, dgram.dst_port, resp.header.id) else {
            return; // late or unsolicited; drop
        };
        let (qname, qtype) = &question;

        if !resp.answers.is_empty() {
            // Final answer: cache and relay (to the leader and everyone
            // coalesced behind it).
            let min_ttl = resp.answers.iter().map(|r| r.ttl).min().unwrap_or(0);
            let records = resp.answers;
            self.cache.insert(
                qname.clone(),
                *qtype,
                CachedAnswer::Positive(records.clone()),
                min_ttl,
                ctx.now(),
            );
            self.finish(ctx, &question, TaskOutcome::Records(records));
            return;
        }

        if let Some(referral) = crate::zone::extract_referral(&resp) {
            self.follow_referral(ctx, question, referral.ns_ip);
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
                    qname.clone(),
                    *qtype,
                    CachedAnswer::Negative(Rcode::NxDomain),
                    ttl,
                    ctx.now(),
                );
                self.finish(ctx, &question, TaskOutcome::Rcode(Rcode::NxDomain));
            }
            Rcode::NoError => {
                self.finish(ctx, &question, TaskOutcome::NoData);
            }
            _ => {
                self.stats.servfail += 1;
                self.finish(ctx, &question, TaskOutcome::Rcode(Rcode::ServFail));
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
            // A client query is read once, by the serve path, and answered
            // from cache, resolved, or refused.
            let Some(served) = self.cache.serve(&dgram.payload, ctx.now()) else {
                return;
            };
            self.stats.client_queries += 1;
            match served {
                Served::Answer(answer) => {
                    self.stats.cache_answers += 1;
                    ctx.send_udp(UdpSend::reply_to(&dgram, answer));
                }
                Served::Miss(query) => self.resolve(ctx, &dgram, query),
                Served::Refused(refusal) => {
                    self.stats.refused += 1;
                    ctx.send_udp(UdpSend::reply_to(&dgram, refusal));
                }
            }
        } else {
            // Traffic to our ephemeral ports: upstream responses. A
            // referral in the delegating servers' shape is read off the
            // wire; anything else — the final answer to cache, an SOA to
            // follow — is decoded whole.
            if let Some(referral) = dnswire::view_referral(&dgram.payload) {
                if let Some(question) = self.answered(ctx, dgram.dst_port, referral.id) {
                    self.follow_referral(ctx, question, referral.ns_ip);
                }
                return;
            }
            let Ok(msg) = Message::decode(&dgram.payload) else {
                return;
            };
            if !msg.is_response() {
                return;
            }
            self.handle_upstream_response(ctx, &dgram, msg);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) -> TimerOutcome {
        let key = decode_timer(token);
        let Some((question, _)) = self.pending.remove(&key) else {
            // Answered, with a timeout too far out to cancel.
            return TimerOutcome::Stale;
        };
        self.stats.timeouts += 1;
        let Some(task) = self.tasks.get_mut(&question) else {
            return TimerOutcome::Acted;
        };
        // Retry the current server with a fresh (port, txid) until the
        // budget runs out, then SERVFAIL everyone waiting.
        if task.retries < MAX_RETRIES {
            task.retries += 1;
            self.send_upstream(ctx, question);
        } else {
            self.stats.servfail += 1;
            self.finish(ctx, &question, TaskOutcome::Rcode(Rcode::ServFail));
        }
        TimerOutcome::Acted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::testkit::{install_script, playground, ScriptedClient};
    use netsim::{NodeId, SimTime, Simulator};

    const RESOLVER: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 1);
    const UPSTREAM: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 2);
    const CLIENTS: [Ipv4Addr; 2] = [Ipv4Addr::new(192, 0, 2, 1), Ipv4Addr::new(192, 0, 2, 2)];

    /// Answers the `n`th query it sees (from 0) after `delay(n)`, with one
    /// A record `10.0.0.n`, so a reply names the query it answers.
    struct LateServer {
        delay: fn(usize) -> SimDuration,
        seen: Vec<Datagram>,
    }
    impl Host for LateServer {
        fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
            let n = self.seen.len();
            let _ = ctx.set_timer((self.delay)(n), n as u64);
            self.seen.push(dgram);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) -> TimerOutcome {
            let dgram = &self.seen[token as usize];
            let query = Message::decode(&dgram.payload).unwrap();
            let qname = query.questions[0].qname.clone();
            let resp = MessageBuilder::response_to(&query)
                .answer_a(qname, 300, Ipv4Addr::new(10, 0, 0, token as u8))
                .build();
            ctx.send_udp(UdpSend::reply_to(dgram, resp.encode()));
            TimerOutcome::Acted
        }
    }

    /// A resolver whose root is a [`LateServer`] answering after `delay`,
    /// and two clients that send `asks[c]` — `(milliseconds, name)` — to it.
    /// Nodes: resolver, server, the clients.
    fn world(
        delay: fn(usize) -> SimDuration,
        asks: [&[(u64, &str)]; 2],
    ) -> (Simulator, Vec<NodeId>) {
        let (topo, nodes) = playground(&[&[RESOLVER, UPSTREAM][..], &CLIENTS[..]].concat());
        let mut sim = Simulator::new(topo);
        sim.install(nodes[0], RecursiveResolver::new(UPSTREAM, 512));
        sim.install(
            nodes[1],
            LateServer {
                delay,
                seen: Vec::new(),
            },
        );
        for (node, asks) in nodes[2..].iter().zip(asks) {
            let script = asks
                .iter()
                .map(|&(ms, name)| {
                    let query = MessageBuilder::query(9, DnsName::parse(name).unwrap(), RrType::A)
                        .recursion_desired(true)
                        .build();
                    (
                        SimDuration::from_millis(ms),
                        UdpSend::new(34000, RESOLVER, 53, query.encode()),
                    )
                })
                .collect();
            install_script(&mut sim, *node, script);
        }
        (sim, nodes)
    }

    #[test]
    fn timer_token_roundtrip() {
        let (p, t) = decode_timer(encode_timer(34017, 0xBEEF));
        assert_eq!((p, t), (34017, 0xBEEF));
    }

    #[test]
    fn port_allocation_wraps_in_ephemeral_range() {
        let mut r = RecursiveResolver::new(Ipv4Addr::new(1, 1, 1, 1), 512);
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
        // must not fire into it. The server answers the first query at
        // once and the second 1.5 s late.
        let delay = |n| SimDuration::from_millis(if n == 0 { 0 } else { 1_500 });
        let (mut sim, nodes) = world(delay, [&[(0, "a.example."), (1_000, "b.example.")], &[]]);

        sim.run_until(SimTime::ZERO + SimDuration::from_millis(500));
        let r: &mut RecursiveResolver = sim.host_as_mut(nodes[0]).unwrap();
        assert_eq!((r.stats.upstream_queries, r.pending.len()), (1, 0));
        (r.next_port, r.next_txid) = (1024, 1);
        assert!(sim.run());

        let upstream: &LateServer = sim.host_as(nodes[1]).unwrap();
        let keys: Vec<(u16, Option<u16>)> = upstream
            .seen
            .iter()
            .map(|d| (d.src_port, dnswire::peek_id(&d.payload)))
            .collect();
        assert_eq!(keys, [(1024, Some(1)); 2], "one query each, same key");
        let r: &RecursiveResolver = sim.host_as(nodes[0]).unwrap();
        assert_eq!((r.stats.timeouts, r.stats.servfail), (0, 0));
        assert_eq!(r.open_entries(), [0; 3]);
        let client: &ScriptedClient = sim.host_as(nodes[2]).unwrap();
        assert_eq!(client.datagrams.len(), 2);
        assert_eq!(sim.stats().timers_cancelled, 2);
    }

    #[test]
    fn a_late_answer_to_a_failed_resolution_does_not_finish_a_later_one_of_its_question() {
        // Resolution A's five queries (the first and four retries) are
        // each answered 2.5 s late, after their 2 s timeout: A SERVFAILs
        // at 10 s. A second client asks the same question at 10.2 s and
        // opens resolution B, whose query is answered in 1 s. The late
        // answer to A's last query lands at 10.5 s, while B is open under
        // the same question; it must be dropped, and B must finish at
        // 11.2 s from its own transaction, the server's sixth query.
        let delay = |n| SimDuration::from_millis(if n < 5 { 2_500 } else { 1_000 });
        let (mut sim, nodes) = world(delay, [&[(0, "a.example.")], &[(10_200, "a.example.")]]);
        assert!(sim.run());

        let upstream: &LateServer = sim.host_as(nodes[1]).unwrap();
        assert_eq!(upstream.seen.len(), 6);
        let r: &RecursiveResolver = sim.host_as(nodes[0]).unwrap();
        let s = r.stats;
        assert_eq!((s.client_queries, s.coalesced, s.cache_answers), (2, 0, 0));
        assert_eq!((s.upstream_queries, s.timeouts, s.servfail), (6, 5, 1));
        assert_eq!(r.open_entries(), [0; 3]);

        let reply = |c: usize| {
            let client: &ScriptedClient = sim.host_as(nodes[2 + c]).unwrap();
            assert_eq!(client.datagrams.len(), 1, "client {c} answered once");
            let (at, dgram) = &client.datagrams[0];
            (*at, Message::decode(&dgram.payload).unwrap())
        };
        let (at, a) = reply(0);
        assert_eq!(a.header.flags.rcode, Rcode::ServFail);
        assert!(at < SimTime::ZERO + SimDuration::from_millis(10_200));
        let (at, b) = reply(1);
        assert_eq!(b.header.flags.rcode, Rcode::NoError);
        assert_eq!(b.answer_a_addrs(), [Ipv4Addr::new(10, 0, 0, 5)]);
        assert!(at >= SimTime::ZERO + SimDuration::from_millis(11_200));
        // A's five timeouts fired; B's answer cancelled its one.
        assert_eq!(sim.stats().timers_cancelled, 1);
        assert_eq!(sim.stats().timers_stale, 0);
    }

    // Full end-to-end resolution paths are covered by integration tests in
    // `resolution_chain.rs` (root → TLD → auth through the simulator).
}
