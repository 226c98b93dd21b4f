//! Resolver-side DNS cache with TTL decay, negative caching, and bounded
//! capacity.
//!
//! Cache behaviour is measurement-relevant twice over: (1) remaining TTLs
//! observed by the scanner reveal whether an answer was served from cache
//! (Figure 7 shows 300 s vs 50 s from the same resolver); (2) the
//! query-encoding detection method plants one unique name per probed
//! target, polluting caches and evicting legitimate entries — the paper's
//! argument for response-based probing (§6, "resolvers serving >40k
//! forwarders would take >40k cache entries").
//!
//! [`DnsCache`] is the store; [`ServeCache`] is the serve path the
//! resolver and the recursive forwarder both answer clients through.

use crate::memo::{HotWire, QueryMemo};
use dnswire::{DnsName, Message, MessageBuilder, Rcode, Record, ResponseTemplate, RrType};
use netsim::{Payload, SimTime};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Cache lookup key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Query name.
    pub name: DnsName,
    /// Query type.
    pub rtype: RrType,
}

/// A cached outcome: either records or a negative result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CachedAnswer {
    /// Positive answer records (TTLs as stored; adjusted on read).
    Positive(Vec<Record>),
    /// Negative result (NXDOMAIN or NODATA), with the RCODE to relay.
    Negative(Rcode),
}

/// A cache hit served on the wire-bytes fast path ([`DnsCache::get_wire`]).
#[derive(Debug)]
pub enum CachedWire {
    /// Fully encoded response: txid and RD patched, TTLs decayed.
    Positive(Vec<u8>),
    /// Negative result; the caller builds the (rare) error response.
    Negative(Rcode),
}

#[derive(Debug, Clone)]
struct Entry {
    answer: CachedAnswer,
    inserted: SimTime,
    expires: SimTime,
    /// Lazily built pre-encoded response for this entry — the hot serve
    /// path patches (txid, RD, TTL) instead of rebuilding and re-encoding
    /// the whole message per client. The name records the exact question
    /// casing the template echoes: name matching is case-insensitive
    /// (0x20 randomization!), so a querier whose casing differs gets a
    /// freshly built response instead of another client's casing.
    template: Option<(DnsName, Arc<ResponseTemplate>)>,
}

/// Counters describing cache effectiveness (Table 2 reproduction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a live entry.
    pub hits: u64,
    /// Lookups that found nothing (or only expired entries).
    pub misses: u64,
    /// Entries written.
    pub insertions: u64,
    /// Entries displaced by capacity pressure — the cache-pollution signal.
    pub evictions: u64,
    /// Entries that aged out.
    pub expirations: u64,
}

impl CacheStats {
    /// Hit ratio in [0, 1]; 0 when never queried.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A bounded DNS cache with FIFO eviction.
///
/// Real resolvers use LRU-ish policies; FIFO keeps the simulation
/// deterministic and is a conservative (worse-for-the-defender) choice for
/// the pollution experiment: a polluter streaming unique names evicts
/// legitimate entries at the same rate under either policy.
#[derive(Debug)]
pub struct DnsCache {
    map: HashMap<CacheKey, Entry>,
    order: VecDeque<CacheKey>,
    capacity: usize,
    /// Effectiveness counters.
    pub stats: CacheStats,
}

impl DnsCache {
    /// A cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        DnsCache {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity,
            stats: CacheStats::default(),
        }
    }

    /// Current number of live-or-expired entries held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are held.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Look up `name`/`rtype` at time `now`. Positive answers come back
    /// with record TTLs rewritten to the *remaining* lifetime — exactly
    /// what a resolver serves from cache, and what Figure 7 observes.
    pub fn get(&mut self, name: &DnsName, rtype: RrType, now: SimTime) -> Option<CachedAnswer> {
        let key = CacheKey {
            name: name.clone(),
            rtype,
        };
        match self.map.get(&key) {
            None => {
                self.stats.misses += 1;
                None
            }
            Some(e) if now >= e.expires => {
                self.stats.misses += 1;
                self.stats.expirations += 1;
                self.map.remove(&key);
                None
            }
            Some(e) => {
                self.stats.hits += 1;
                let remaining = (e.expires - now).as_micros() / 1_000_000;
                Some(match &e.answer {
                    CachedAnswer::Positive(records) => CachedAnswer::Positive(
                        records
                            .iter()
                            .map(|r| Record {
                                ttl: remaining as u32,
                                ..r.clone()
                            })
                            .collect(),
                    ),
                    CachedAnswer::Negative(rcode) => CachedAnswer::Negative(*rcode),
                })
            }
        }
    }

    /// Serve `name`/`rtype` at `now` directly as wire bytes, for a
    /// standard-opcode `IN` query with transaction ID `txid` and RD flag
    /// `rd`.
    ///
    /// Positive hits come back as encoded bytes, byte-identical to the
    /// `MessageBuilder::response_to(..).recursion_available(true)` path the
    /// resolvers previously walked per client — but produced with a single
    /// allocation from a per-entry [`ResponseTemplate`] built on first
    /// serve. Negative hits return the RCODE for the caller to build (the
    /// rare path). Stats count exactly like [`DnsCache::get`].
    pub fn get_wire(
        &mut self,
        name: &DnsName,
        rtype: RrType,
        now: SimTime,
        txid: u16,
        rd: bool,
    ) -> Option<CachedWire> {
        let key = CacheKey {
            name: name.clone(),
            rtype,
        };
        match self.map.get_mut(&key) {
            None => {
                self.stats.misses += 1;
                None
            }
            Some(e) if now >= e.expires => {
                self.stats.misses += 1;
                self.stats.expirations += 1;
                self.map.remove(&key);
                None
            }
            Some(e) => {
                self.stats.hits += 1;
                let remaining = ((e.expires - now).as_micros() / 1_000_000) as u32;
                match &e.answer {
                    CachedAnswer::Negative(rcode) => Some(CachedWire::Negative(*rcode)),
                    CachedAnswer::Positive(records) => {
                        let build = |qname: DnsName, answers: &[Record]| {
                            let mut b = MessageBuilder::query(0, qname, rtype)
                                .recursion_desired(true)
                                .build();
                            b.header.flags.response = true;
                            b.header.flags.recursion_available = true;
                            b.answers = answers.to_vec();
                            b
                        };
                        if e.template.is_none() {
                            let msg = build(key.name.clone(), records);
                            e.template = ResponseTemplate::from_message(&msg)
                                .map(|t| (key.name.clone(), Arc::new(t)));
                        }
                        match &e.template {
                            // The question section must echo *this*
                            // querier's casing exactly; the wire forms
                            // compare raw bytes where name equality would
                            // not.
                            Some((tq, t)) if tq.as_wire() == name.as_wire() => {
                                Some(CachedWire::Positive(t.materialize(txid, rd, remaining)))
                            }
                            Some(_) => {
                                // Casing differs from the template (0x20
                                // randomization): build this response the
                                // slow way rather than leak another
                                // client's casing.
                                let mut msg = build(name.clone(), records);
                                msg.header.id = txid;
                                msg.header.flags.recursion_desired = rd;
                                for r in &mut msg.answers {
                                    r.ttl = remaining;
                                }
                                Some(CachedWire::Positive(msg.encode()))
                            }
                            // Un-encodable entry (never built by this
                            // workspace): let the caller take the slow path.
                            None => None,
                        }
                    }
                }
            }
        }
    }

    /// How long the bytes of a positive wire answer served at `now` stay
    /// exact: the embedded TTL decays per whole elapsed second, so the
    /// encoding is stable strictly before `expires − remaining·1s`.
    /// `None` for missing, expired, or negative entries. No stats impact.
    fn wire_valid_before(&self, name: &DnsName, rtype: RrType, now: SimTime) -> Option<SimTime> {
        let key = CacheKey {
            name: name.clone(),
            rtype,
        };
        let e = self.map.get(&key)?;
        if now >= e.expires || !matches!(e.answer, CachedAnswer::Positive(_)) {
            return None;
        }
        let remaining = (e.expires - now).as_micros() / 1_000_000;
        Some(SimTime(e.expires.0 - remaining * 1_000_000))
    }

    /// Insert an answer valid for `ttl_secs` starting at `now`.
    pub fn insert(
        &mut self,
        name: DnsName,
        rtype: RrType,
        answer: CachedAnswer,
        ttl_secs: u32,
        now: SimTime,
    ) {
        let key = CacheKey { name, rtype };
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            // Capacity pressure: evict in insertion order, skipping keys
            // already removed by expiration.
            while let Some(old) = self.order.pop_front() {
                if self.map.remove(&old).is_some() {
                    self.stats.evictions += 1;
                    break;
                }
            }
        }
        let expires = now + netsim::SimDuration::from_secs(u64::from(ttl_secs));
        if self
            .map
            .insert(
                key.clone(),
                Entry {
                    answer,
                    inserted: now,
                    expires,
                    template: None,
                },
            )
            .is_none()
        {
            self.order.push_back(key);
        }
        self.stats.insertions += 1;
    }

    /// Age of the entry for `name`/`rtype` at `now`, if present and live.
    pub fn age(&self, name: &DnsName, rtype: RrType, now: SimTime) -> Option<u64> {
        let key = CacheKey {
            name: name.clone(),
            rtype,
        };
        let e = self.map.get(&key)?;
        if now >= e.expires {
            None
        } else {
            Some((now - e.inserted).as_micros() / 1_000_000)
        }
    }
}

/// The cached serve path of a host that answers clients from a
/// [`DnsCache`] — written once for [`crate::RecursiveResolver`] and
/// [`crate::RecursiveForwarder`].
///
/// It owns the cache and its two accelerators, and is the only code that
/// touches them: a [`QueryMemo`] of the first plain `IN` query decoded
/// (census probes are byte-identical modulo txid, so later ones skip the
/// decode) and a [`HotWire`] holding the last answer served through the
/// memo (replayed as a refcount bump while its bytes stay exact). Every
/// write goes through [`ServeCache::insert`], which drops the `HotWire` —
/// a replay cannot outlive the entry it came from — and every client
/// query performs exactly one counted cache lookup.
///
/// What stays with the host: who may be served at all (the resolver's
/// ACL, checked *before* [`ServeCache::serve_undecoded`]), its own
/// counters, and what to do on a miss.
#[derive(Debug)]
pub struct ServeCache {
    cache: DnsCache,
    memo: Option<QueryMemo>,
    hot: Option<HotWire>,
}

impl ServeCache {
    /// An empty serve path over a cache of `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        ServeCache {
            cache: DnsCache::new(capacity),
            memo: None,
            hot: None,
        }
    }

    /// The cache underneath (read-only: stats, pollution experiments).
    pub fn cache(&self) -> &DnsCache {
        &self.cache
    }

    /// Answer `payload` without decoding it, if it is the memoized query
    /// (modulo txid) and its answer is a live positive entry. Anything
    /// else — foreign bytes, a miss, an expired or negative entry — is
    /// `None` with the cache untouched and uncounted; the host decodes and
    /// calls [`ServeCache::serve_decoded`], which owns those cases.
    pub fn serve_undecoded(&mut self, payload: &[u8], now: SimTime) -> Option<Payload> {
        let memo = self.memo.as_ref()?;
        let txid = memo.txid_of_match(payload)?;
        // Replay the previous answer while its bytes are still exact — the
        // steady state of a census burst, one refcount bump per probe,
        // counted as the `get_wire` hit it stands in for.
        if let Some(replay) = self.hot.as_ref().and_then(|h| h.serve(txid, now)) {
            self.cache.stats.hits += 1;
            return Some(replay);
        }
        // Peek before the counted lookup, so a query this path cannot
        // answer is counted once (by the decode path), not twice.
        let valid_before = self
            .cache
            .wire_valid_before(memo.qname(), memo.qtype(), now)?;
        let Some(CachedWire::Positive(bytes)) =
            self.cache
                .get_wire(memo.qname(), memo.qtype(), now, txid, memo.rd())
        else {
            return None;
        };
        let answer: Payload = bytes.into();
        self.hot = Some(HotWire::new(txid, valid_before, answer.clone()));
        Some(answer)
    }

    /// Answer the decoded client `query` (whose wire form is `payload`)
    /// from cache, positive or negative; `None` on a miss. The first plain
    /// `IN` query seen becomes the memo. Plain queries are served from
    /// pre-encoded bytes (txid/RD/TTL patched into the cached template);
    /// exotic classes/opcodes take the builder path.
    pub fn serve_decoded(
        &mut self,
        payload: &[u8],
        query: &Message,
        now: SimTime,
    ) -> Option<Payload> {
        if self.memo.is_none() {
            self.memo = QueryMemo::remember(payload, query);
        }
        let q = query.question()?;
        let respond = || MessageBuilder::response_to(query).recursion_available(true);
        let response = if query.is_plain_in_query() {
            let rd = query.header.flags.recursion_desired;
            match self
                .cache
                .get_wire(&q.qname, q.qtype, now, query.header.id, rd)?
            {
                CachedWire::Positive(bytes) => return Some(bytes.into()),
                CachedWire::Negative(rcode) => respond().rcode(rcode),
            }
        } else {
            match self.cache.get(&q.qname, q.qtype, now)? {
                CachedAnswer::Positive(records) => {
                    records.into_iter().fold(respond(), MessageBuilder::answer)
                }
                CachedAnswer::Negative(rcode) => respond().rcode(rcode),
            }
        };
        Some(response.build().encode().into())
    }

    /// Insert an answer valid for `ttl_secs` starting at `now`. The cache
    /// changed (an overwrite, possibly an eviction), so any replayable
    /// answer may now be stale: it is dropped here, for every caller.
    pub fn insert(
        &mut self,
        name: DnsName,
        rtype: RrType,
        answer: CachedAnswer,
        ttl_secs: u32,
        now: SimTime,
    ) {
        self.hot.take();
        self.cache.insert(name, rtype, answer, ttl_secs, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswire::DnsName;
    use netsim::SimDuration;
    use std::net::Ipv4Addr;

    fn name(s: &str) -> DnsName {
        DnsName::parse(s).unwrap()
    }

    fn a_record(s: &str, ttl: u32) -> Record {
        Record::a(name(s), ttl, Ipv4Addr::new(198, 51, 100, 7))
    }

    #[test]
    fn miss_then_hit_with_ttl_decay() {
        let mut c = DnsCache::new(8);
        let t0 = SimTime::ZERO;
        assert_eq!(c.get(&name("x.example."), RrType::A, t0), None);
        c.insert(
            name("x.example."),
            RrType::A,
            CachedAnswer::Positive(vec![a_record("x.example.", 300)]),
            300,
            t0,
        );
        // 250 seconds later the remaining TTL is 50 — the Figure 7 signal.
        let t1 = t0 + SimDuration::from_secs(250);
        match c.get(&name("x.example."), RrType::A, t1).unwrap() {
            CachedAnswer::Positive(recs) => assert_eq!(recs[0].ttl, 50),
            other => panic!("expected positive, got {other:?}"),
        }
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 1);
    }

    #[test]
    fn get_wire_matches_builder_path_and_decays_ttl() {
        let mut c = DnsCache::new(4);
        let n = name("odns-study.example.");
        c.insert(
            n.clone(),
            RrType::A,
            CachedAnswer::Positive(vec![a_record("odns-study.example.", 300)]),
            300,
            SimTime(0),
        );
        let ten_s = SimTime(0) + SimDuration::from_secs(10);
        let Some(CachedWire::Positive(bytes)) = c.get_wire(&n, RrType::A, ten_s, 0xABCD, true)
        else {
            panic!("positive wire hit expected");
        };
        let m = dnswire::Message::decode(&bytes).unwrap();
        assert_eq!(m.header.id, 0xABCD);
        assert!(m.header.flags.recursion_desired);
        assert!(m.header.flags.recursion_available);
        assert_eq!(m.answers[0].ttl, 290, "TTL decayed by 10 s");
        // Second serve with different txid/rd comes from the template.
        let Some(CachedWire::Positive(bytes2)) = c.get_wire(&n, RrType::A, ten_s, 7, false) else {
            panic!("template hit expected");
        };
        let m2 = dnswire::Message::decode(&bytes2).unwrap();
        assert_eq!(m2.header.id, 7);
        assert!(!m2.header.flags.recursion_desired);
        assert_eq!(m2.answers, m.answers);
    }

    #[test]
    fn get_wire_echoes_each_queriers_casing() {
        // 0x20 case randomization: name matching is case-insensitive, but
        // the response's question section must echo the querier's exact
        // bytes, never another client's casing baked into the template.
        let mut c = DnsCache::new(4);
        let lower = name("odns-study.example.");
        let mixed = name("ODNS-Study.EXAMPLE.");
        c.insert(
            lower.clone(),
            RrType::A,
            CachedAnswer::Positive(vec![a_record("odns-study.example.", 300)]),
            300,
            SimTime(0),
        );
        // Warm the template with the lowercase querier.
        let Some(CachedWire::Positive(first)) = c.get_wire(&lower, RrType::A, SimTime(1), 1, true)
        else {
            panic!("hit expected");
        };
        assert_eq!(
            dnswire::Message::decode(&first).unwrap().questions[0]
                .qname
                .to_string(),
            "odns-study.example."
        );
        // The mixed-case querier must see its own casing echoed.
        let Some(CachedWire::Positive(second)) = c.get_wire(&mixed, RrType::A, SimTime(1), 2, true)
        else {
            panic!("case-insensitive hit expected");
        };
        let echoed = dnswire::Message::decode(&second).unwrap();
        assert_eq!(echoed.questions[0].qname.to_string(), "ODNS-Study.EXAMPLE.");
        assert_eq!(echoed.header.id, 2);
    }

    /// One client query the way both hosts drive the serve path:
    /// undecoded first, decode only when that declines.
    fn client_query(serve: &mut ServeCache, txid: u16, now: SimTime) -> Option<Payload> {
        let query = MessageBuilder::query(txid, name("odns-study.example."), RrType::A)
            .recursion_desired(true)
            .build();
        let payload = query.encode();
        serve
            .serve_undecoded(&payload, now)
            .or_else(|| serve.serve_decoded(&payload, &query, now))
    }

    #[test]
    fn serve_cache_counts_each_client_query_once() {
        // Static-naming probes are byte-identical modulo txid, so every
        // query after the first matches the memo — hit or miss.
        let mut serve = ServeCache::new(8);
        let t0 = SimTime::ZERO;
        for txid in 0..5 {
            assert!(client_query(&mut serve, txid, t0).is_none());
        }
        serve.insert(
            name("odns-study.example."),
            RrType::A,
            CachedAnswer::Positive(vec![a_record("odns-study.example.", 300)]),
            300,
            t0,
        );
        for txid in 5..12 {
            assert!(client_query(&mut serve, txid, t0).is_some());
        }
        assert_eq!(
            serve.cache().stats,
            CacheStats {
                hits: 7,
                misses: 5,
                insertions: 1,
                ..CacheStats::default()
            }
        );
        // An expired entry is one miss and one expiration.
        let late = t0 + SimDuration::from_secs(300);
        assert!(client_query(&mut serve, 12, late).is_none());
        assert_eq!(
            serve.cache().stats,
            CacheStats {
                hits: 7,
                misses: 6,
                insertions: 1,
                expirations: 1,
                ..CacheStats::default()
            }
        );
    }

    #[test]
    fn expired_entries_are_misses() {
        let mut c = DnsCache::new(8);
        c.insert(
            name("x.example."),
            RrType::A,
            CachedAnswer::Positive(vec![a_record("x.example.", 10)]),
            10,
            SimTime::ZERO,
        );
        let late = SimTime::ZERO + SimDuration::from_secs(10);
        assert_eq!(c.get(&name("x.example."), RrType::A, late), None);
        assert_eq!(c.stats.expirations, 1);
        assert!(c.is_empty());
    }

    #[test]
    fn negative_caching() {
        let mut c = DnsCache::new(8);
        c.insert(
            name("nx.example."),
            RrType::A,
            CachedAnswer::Negative(Rcode::NxDomain),
            60,
            SimTime::ZERO,
        );
        match c.get(
            &name("nx.example."),
            RrType::A,
            SimTime::ZERO + SimDuration::from_secs(1),
        ) {
            Some(CachedAnswer::Negative(Rcode::NxDomain)) => {}
            other => panic!("expected negative, got {other:?}"),
        }
    }

    #[test]
    fn capacity_eviction_fifo() {
        let mut c = DnsCache::new(2);
        let t = SimTime::ZERO;
        for i in 0..3 {
            c.insert(
                name(&format!("h{i}.example.")),
                RrType::A,
                CachedAnswer::Positive(vec![a_record("h.example.", 60)]),
                60,
                t,
            );
        }
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats.evictions, 1);
        assert_eq!(
            c.get(&name("h0.example."), RrType::A, t),
            None,
            "oldest evicted"
        );
        assert!(c.get(&name("h2.example."), RrType::A, t).is_some());
    }

    #[test]
    fn pollution_scenario_unique_names_evict_legit_entry() {
        // The §6 argument: a query-encoding scan floods unique names.
        let mut c = DnsCache::new(100);
        let t = SimTime::ZERO;
        c.insert(
            name("popular.example."),
            RrType::A,
            CachedAnswer::Positive(vec![a_record("popular.example.", 3600)]),
            3600,
            t,
        );
        for i in 0..200u32 {
            c.insert(
                name(&format!(
                    "{}-{}-{}-{}.scan.odns-study.example.",
                    i % 256,
                    i / 256,
                    0,
                    1
                )),
                RrType::A,
                CachedAnswer::Positive(vec![a_record("x.", 300)]),
                300,
                t,
            );
        }
        assert_eq!(
            c.get(&name("popular.example."), RrType::A, t),
            None,
            "legit entry evicted"
        );
        assert!(c.stats.evictions >= 100);
    }

    #[test]
    fn case_insensitive_keys() {
        let mut c = DnsCache::new(4);
        let t = SimTime::ZERO;
        c.insert(
            name("MiXeD.Example."),
            RrType::A,
            CachedAnswer::Positive(vec![a_record("mixed.example.", 60)]),
            60,
            t,
        );
        assert!(c.get(&name("mixed.example."), RrType::A, t).is_some());
    }

    #[test]
    fn age_tracks_insertion() {
        let mut c = DnsCache::new(4);
        c.insert(
            name("x.example."),
            RrType::A,
            CachedAnswer::Positive(vec![a_record("x.example.", 300)]),
            300,
            SimTime::ZERO,
        );
        let now = SimTime::ZERO + SimDuration::from_secs(42);
        assert_eq!(c.age(&name("x.example."), RrType::A, now), Some(42));
        assert_eq!(c.age(&name("y.example."), RrType::A, now), None);
    }

    #[test]
    fn hit_ratio() {
        let mut c = DnsCache::new(4);
        let t = SimTime::ZERO;
        c.insert(
            name("x.example."),
            RrType::A,
            CachedAnswer::Positive(vec![a_record("x.example.", 300)]),
            300,
            t,
        );
        let _ = c.get(&name("x.example."), RrType::A, t);
        let _ = c.get(&name("y.example."), RrType::A, t);
        assert!((c.stats.hit_ratio() - 0.5).abs() < 1e-9);
        assert_eq!(CacheStats::default().hit_ratio(), 0.0);
    }
}
