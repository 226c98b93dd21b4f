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

impl CacheKey {
    fn of(name: &DnsName, rtype: RrType) -> Self {
        CacheKey {
            name: name.clone(),
            rtype,
        }
    }

    /// Is this the key of `name`/`rtype`? What `==` against
    /// [`CacheKey::of`] answers, without building that key.
    fn is(&self, name: &DnsName, rtype: RrType) -> bool {
        self.rtype == rtype && self.name == *name
    }
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
    /// Fully encoded response: txid and RD patched, TTLs decayed; in the
    /// shared buffer a `Payload` wraps, so sending it copies nothing.
    Positive(Arc<[u8]>),
    /// Negative result; the caller builds the (rare) error response.
    Negative(Rcode),
}

/// What an entry holds: an answer, or the upstream response it will be
/// decoded from.
#[derive(Debug, Clone)]
enum Stored {
    Answer(CachedAnswer),
    /// A relayed upstream response exactly as received, cached without
    /// decoding it (a census never looks the entry up again). The first
    /// lookup turns it into `Answer(Positive(its answer section))`.
    Wire(Payload),
}

impl Stored {
    /// The answer, decoding a wire-backed entry in place first. `None`
    /// when those bytes are not a decodable message.
    fn answer(&mut self) -> Option<&CachedAnswer> {
        if let Stored::Wire(wire) = self {
            let answers = Message::decode(wire).ok()?.answers;
            *self = Stored::Answer(CachedAnswer::Positive(answers));
        }
        match self {
            Stored::Answer(answer) => Some(answer),
            Stored::Wire(_) => unreachable!("decoded above"),
        }
    }
}

#[derive(Debug, Clone)]
struct Entry {
    stored: Stored,
    inserted: SimTime,
    expires: SimTime,
    /// Lazily built pre-encoded response for this entry — the hot serve
    /// path patches (txid, RD, TTL) instead of rebuilding and re-encoding
    /// the whole message per client. The name records the exact question
    /// casing the template echoes: name matching is case-insensitive
    /// (0x20 randomization!), so a querier whose casing differs gets a
    /// freshly built response instead of another client's casing.
    template: Option<Template>,
}

/// A pre-encoded response and the question name, in its exact casing, that
/// it echoes.
type Template = (DnsName, Arc<ResponseTemplate>);

impl Entry {
    /// What a lookup at `now` serves from: the answer (a wire-backed entry
    /// is decoded in place first), the template slot, and the whole
    /// seconds left. `None` once expired, or when the wire bytes do not
    /// decode.
    fn live(&mut self, now: SimTime) -> Option<(&CachedAnswer, &mut Option<Template>, u32)> {
        if now >= self.expires {
            return None;
        }
        let remaining = ((self.expires - now).as_micros() / 1_000_000) as u32;
        Some((self.stored.answer()?, &mut self.template, remaining))
    }
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

/// The entries of a [`DnsCache`], oldest insert first, and the only code
/// that keeps them so.
///
/// State a host has not needed does not exist: a census asks each forwarder
/// one question, so its cache holds one entry for as long as it lives. That
/// entry sits inline; the hash table and the order queue are built when a
/// second key joins it, and a table that has built them keeps them.
#[derive(Debug)]
enum FifoTable {
    /// At most one entry, which is its own eviction order.
    Inline(Option<(CacheKey, Entry)>),
    /// Two keys have been held at once.
    Spilled {
        map: HashMap<CacheKey, Entry>,
        /// The keys of `map`, oldest insert first — each exactly once.
        order: VecDeque<CacheKey>,
    },
}

impl FifoTable {
    fn len(&self) -> usize {
        match self {
            FifoTable::Inline(slot) => usize::from(slot.is_some()),
            FifoTable::Spilled { map, .. } => map.len(),
        }
    }

    fn get(&self, name: &DnsName, rtype: RrType) -> Option<&Entry> {
        match self {
            FifoTable::Inline(slot) => slot
                .as_ref()
                .filter(|(held, _)| held.is(name, rtype))
                .map(|(_, entry)| entry),
            FifoTable::Spilled { map, .. } => map.get(&CacheKey::of(name, rtype)),
        }
    }

    fn get_mut(&mut self, name: &DnsName, rtype: RrType) -> Option<&mut Entry> {
        match self {
            FifoTable::Inline(slot) => slot
                .as_mut()
                .filter(|(held, _)| held.is(name, rtype))
                .map(|(_, entry)| entry),
            FifoTable::Spilled { map, .. } => map.get_mut(&CacheKey::of(name, rtype)),
        }
    }

    /// Hold `entry` under `key`: a new key queues youngest, an overwrite
    /// keeps the key's place in the eviction order.
    fn insert(&mut self, key: CacheKey, entry: Entry) {
        match self {
            FifoTable::Inline(slot @ None) => *slot = Some((key, entry)),
            FifoTable::Inline(Some((held, e))) if *held == key => *e = entry,
            FifoTable::Inline(slot) => {
                let (first, first_entry) = slot.take().expect("an empty slot matched above");
                let mut spilled = FifoTable::Spilled {
                    map: HashMap::new(),
                    order: VecDeque::new(),
                };
                spilled.insert(first, first_entry);
                spilled.insert(key, entry);
                *self = spilled;
            }
            FifoTable::Spilled { map, order } => {
                if map.insert(key.clone(), entry).is_none() {
                    order.push_back(key);
                }
            }
        }
    }

    /// Drop the entry for `name`/`rtype` together with its place in the
    /// eviction order, so that a later re-insert queues as the new entry it
    /// is.
    fn remove(&mut self, name: &DnsName, rtype: RrType) -> Option<Entry> {
        match self {
            FifoTable::Inline(slot) => slot
                .take_if(|(held, _)| held.is(name, rtype))
                .map(|(_, entry)| entry),
            FifoTable::Spilled { map, order } => {
                let key = CacheKey::of(name, rtype);
                let entry = map.remove(&key)?;
                let at = order.iter().position(|k| *k == key);
                order.remove(at.expect("every key of `map` is queued"));
                Some(entry)
            }
        }
    }

    /// Drop the oldest entry.
    fn pop_oldest(&mut self) -> Option<Entry> {
        match self {
            FifoTable::Inline(slot) => slot.take().map(|(_, entry)| entry),
            FifoTable::Spilled { map, order } => map.remove(&order.pop_front()?),
        }
    }

    /// The keys held, oldest insert first.
    #[cfg(test)]
    fn order(&self) -> Vec<&CacheKey> {
        match self {
            FifoTable::Inline(slot) => slot.iter().map(|(key, _)| key).collect(),
            FifoTable::Spilled { order, .. } => order.iter().collect(),
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
    table: FifoTable,
    capacity: usize,
    /// Effectiveness counters.
    pub stats: CacheStats,
}

impl DnsCache {
    /// A cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        DnsCache {
            table: FifoTable::Inline(None),
            capacity,
            stats: CacheStats::default(),
        }
    }

    /// Current number of live-or-expired entries held.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True when no entries are held.
    pub fn is_empty(&self) -> bool {
        self.table.len() == 0
    }

    /// Count a lookup that found an entry it cannot serve — expired, or
    /// wire-backed with bytes that do not decode — as a miss, and drop the
    /// entry.
    fn forget(&mut self, name: &DnsName, rtype: RrType, now: SimTime) {
        self.stats.misses += 1;
        if self
            .table
            .remove(name, rtype)
            .is_some_and(|e| now >= e.expires)
        {
            self.stats.expirations += 1;
        }
    }

    /// Look up `name`/`rtype` at time `now`. Positive answers come back
    /// with record TTLs rewritten to the *remaining* lifetime — exactly
    /// what a resolver serves from cache, and what Figure 7 observes.
    pub fn get(&mut self, name: &DnsName, rtype: RrType, now: SimTime) -> Option<CachedAnswer> {
        let Some(e) = self.table.get_mut(name, rtype) else {
            self.stats.misses += 1;
            return None;
        };
        if let Some((answer, _, remaining)) = e.live(now) {
            self.stats.hits += 1;
            return Some(match answer {
                CachedAnswer::Positive(records) => CachedAnswer::Positive(
                    records
                        .iter()
                        .map(|r| Record {
                            ttl: remaining,
                            ..r.clone()
                        })
                        .collect(),
                ),
                CachedAnswer::Negative(rcode) => CachedAnswer::Negative(*rcode),
            });
        }
        self.forget(name, rtype, now);
        None
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
        let Some(e) = self.table.get_mut(name, rtype) else {
            self.stats.misses += 1;
            return None;
        };
        if let Some((answer, template, remaining)) = e.live(now) {
            self.stats.hits += 1;
            let records = match answer {
                CachedAnswer::Negative(rcode) => return Some(CachedWire::Negative(*rcode)),
                CachedAnswer::Positive(records) => records,
            };
            let build = |qname: DnsName| {
                let mut b = MessageBuilder::query(0, qname, rtype)
                    .recursion_desired(true)
                    .build();
                b.header.flags.response = true;
                b.header.flags.recursion_available = true;
                b.answers = records.to_vec();
                b
            };
            if template.is_none() {
                *template = ResponseTemplate::from_message(&build(name.clone()))
                    .map(|t| (name.clone(), Arc::new(t)));
            }
            return match template {
                // The question section must echo *this* querier's casing
                // exactly; the wire forms compare raw bytes where name
                // equality would not.
                Some((tq, t)) if tq.as_wire() == name.as_wire() => {
                    Some(CachedWire::Positive(t.materialize(txid, rd, remaining)))
                }
                Some(_) => {
                    // Casing differs from the template (0x20
                    // randomization): build this response the slow way
                    // rather than leak another client's casing.
                    let mut msg = build(name.clone());
                    msg.header.id = txid;
                    msg.header.flags.recursion_desired = rd;
                    for r in &mut msg.answers {
                        r.ttl = remaining;
                    }
                    Some(CachedWire::Positive(msg.encode().into()))
                }
                // Un-encodable entry (never built by this workspace): let
                // the caller take the slow path.
                None => None,
            };
        }
        self.forget(name, rtype, now);
        None
    }

    /// How long the bytes of a positive wire answer served at `now` stay
    /// exact: the embedded TTL decays per whole elapsed second, so the
    /// encoding is stable strictly before `expires − remaining·1s`.
    /// `None` for missing, expired, or negative entries, and for a
    /// wire-backed one no lookup has decoded yet (whether it serves at all
    /// is the counted lookup's to find out). No stats impact.
    fn wire_valid_before(&self, name: &DnsName, rtype: RrType, now: SimTime) -> Option<SimTime> {
        let e = self.table.get(name, rtype)?;
        if now >= e.expires || !matches!(e.stored, Stored::Answer(CachedAnswer::Positive(_))) {
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
        self.store(
            CacheKey { name, rtype },
            Stored::Answer(answer),
            ttl_secs,
            now,
        );
    }

    fn store(&mut self, key: CacheKey, stored: Stored, ttl_secs: u32, now: SimTime) {
        let full = self.table.len() >= self.capacity;
        if full && self.table.get(&key.name, key.rtype).is_none() {
            // Capacity pressure: evict in insertion order.
            if self.table.pop_oldest().is_some() {
                self.stats.evictions += 1;
            }
        }
        let entry = Entry {
            stored,
            inserted: now,
            expires: now + netsim::SimDuration::from_secs(u64::from(ttl_secs)),
            template: None,
        };
        self.table.insert(key, entry);
        self.stats.insertions += 1;
    }

    /// Age of the entry for `name`/`rtype` at `now`, if present and live.
    pub fn age(&self, name: &DnsName, rtype: RrType, now: SimTime) -> Option<u64> {
        let e = self.table.get(name, rtype)?;
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
/// touches them: a [`QueryMemo`] of the first plain `IN` query seen
/// (census probes are byte-identical modulo txid, so later ones skip the
/// decode) and a [`HotWire`] holding the last answer served through the
/// memo (replayed as a refcount bump while its bytes stay exact). Every
/// write goes through [`ServeCache::insert`] or
/// [`ServeCache::insert_wire`], which drop the `HotWire` — a replay cannot
/// outlive the entry it came from — and every client query performs
/// exactly one counted cache lookup, through one of three doors:
/// [`ServeCache::serve_undecoded`] first, and when that declines
/// [`ServeCache::serve_plain`] for a query the host could read without
/// decoding or [`ServeCache::serve_decoded`] for one it had to decode.
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
    /// `IN` query seen becomes the memo. Plain queries are served as by
    /// [`ServeCache::serve_plain`]; exotic classes/opcodes take the
    /// builder path.
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
        if query.is_plain_in_query() {
            let (id, rd) = (query.header.id, query.header.flags.recursion_desired);
            return self.lookup_plain(id, rd, &q.qname, q.qtype, now);
        }
        let respond = MessageBuilder::response_to(query).recursion_available(true);
        let response = match self.cache.get(&q.qname, q.qtype, now)? {
            CachedAnswer::Positive(records) => {
                records.into_iter().fold(respond, MessageBuilder::answer)
            }
            CachedAnswer::Negative(rcode) => respond.rcode(rcode),
        };
        Some(response.build().encode().into())
    }

    /// [`ServeCache::serve_decoded`] for a client query the host did not
    /// have to decode: `payload` is known to be a plain `IN` query with
    /// transaction ID `id` and RD flag `rd` for `qname`/`qtype` — read off
    /// it by [`dnswire::view_query`], or byte-equal past the ID to a query
    /// that decoded to that. Same memo rule, same one counted lookup, same
    /// bytes; the memo keeps the arriving datagram instead of a copy.
    pub fn serve_plain(
        &mut self,
        payload: &Payload,
        id: u16,
        rd: bool,
        qname: &DnsName,
        qtype: RrType,
        now: SimTime,
    ) -> Option<Payload> {
        if self.memo.is_none() {
            self.memo = Some(QueryMemo::of_plain(payload, qname, qtype, rd));
        }
        self.lookup_plain(id, rd, qname, qtype, now)
    }

    /// The counted lookup of a plain `IN` query: positive hits come from
    /// the entry's pre-encoded template with `id`/`rd`/TTL patched in, a
    /// negative one is built (the rare path).
    fn lookup_plain(
        &mut self,
        id: u16,
        rd: bool,
        qname: &DnsName,
        qtype: RrType,
        now: SimTime,
    ) -> Option<Payload> {
        match self.cache.get_wire(qname, qtype, now, id, rd)? {
            CachedWire::Positive(bytes) => Some(bytes.into()),
            CachedWire::Negative(rcode) => {
                let query = MessageBuilder::query(id, qname.clone(), qtype)
                    .recursion_desired(rd)
                    .build();
                let response = MessageBuilder::response_to(&query)
                    .recursion_available(true)
                    .rcode(rcode);
                Some(response.build().encode().into())
            }
        }
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

    /// [`ServeCache::insert`] for a positive answer still in the encoded
    /// upstream `response` it arrived in — what a relay that never decoded
    /// the datagram has in hand. The entry serves exactly as if
    /// `CachedAnswer::Positive(answers of response)` had been inserted; the
    /// decode happens on its first lookup, and bytes that turn out not to
    /// decode make that lookup a miss.
    pub fn insert_wire(
        &mut self,
        name: DnsName,
        rtype: RrType,
        response: Payload,
        ttl_secs: u32,
        now: SimTime,
    ) {
        self.hot.take();
        let key = CacheKey { name, rtype };
        self.cache.store(key, Stored::Wire(response), ttl_secs, now);
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

    /// The study's two-A upstream response as a relay holds it.
    fn upstream_response(ttl: u32) -> Payload {
        let query = MessageBuilder::query(9, name("odns-study.example."), RrType::A).build();
        MessageBuilder::response_to(&query)
            .answer(a_record("odns-study.example.", ttl))
            .answer(a_record("odns-study.example.", ttl + 7))
            .build()
            .encode()
            .into()
    }

    #[test]
    fn wire_backed_insert_serves_like_the_decoded_one() {
        let mut wire = ServeCache::new(8);
        let mut decoded = ServeCache::new(8);
        let t0 = SimTime::ZERO;
        let response = upstream_response(300);
        let answers = Message::decode(&response).unwrap().answers;
        wire.insert_wire(name("odns-study.example."), RrType::A, response, 300, t0);
        decoded.insert(
            name("odns-study.example."),
            RrType::A,
            CachedAnswer::Positive(answers),
            300,
            t0,
        );
        for (txid, secs) in [(1, 0), (2, 0), (3, 42), (4, 299), (5, 300)] {
            let now = t0 + SimDuration::from_secs(secs);
            assert_eq!(
                client_query(&mut wire, txid, now),
                client_query(&mut decoded, txid, now),
                "txid {txid} at {secs} s"
            );
        }
        assert_eq!(wire.cache().stats, decoded.cache().stats);
        assert_eq!(wire.cache().stats.hits, 4);
    }

    #[test]
    fn wire_backed_insert_drops_the_replayable_answer() {
        let mut serve = ServeCache::new(8);
        let t0 = SimTime::ZERO;
        let ttl_of = |answer: Option<Payload>| {
            Message::decode(&answer.expect("hit")).unwrap().answers[0].ttl
        };
        serve.insert_wire(
            name("odns-study.example."),
            RrType::A,
            upstream_response(300),
            300,
            t0,
        );
        // Mid-second, so the served bytes stay exact for a while: decode
        // path, template path, then the `HotWire` replay.
        let now = t0 + SimDuration::from_millis(500);
        for txid in [1, 2, 2] {
            assert_eq!(ttl_of(client_query(&mut serve, txid, now)), 299);
        }
        serve.insert_wire(
            name("odns-study.example."),
            RrType::A,
            upstream_response(50),
            50,
            now,
        );
        assert_eq!(
            ttl_of(client_query(&mut serve, 2, now)),
            50,
            "no stale replay"
        );
    }

    #[test]
    fn undecodable_wire_entry_is_one_counted_miss_and_gone() {
        // Sound section structure, but the answer's owner is a forward
        // compression pointer: `walk_sections` passes it, `decode` does not.
        let mut bytes = upstream_response(300).to_vec();
        let owner = bytes.len() - 2 * 16;
        bytes[owner..owner + 2].copy_from_slice(&[0xC0, 0xFF]);
        assert!(dnswire::walk_sections(&bytes).is_some());
        assert!(Message::decode(&bytes).is_err());

        let mut serve = ServeCache::new(8);
        let t0 = SimTime::ZERO;
        serve.insert_wire(
            name("odns-study.example."),
            RrType::A,
            bytes.into(),
            300,
            t0,
        );
        assert_eq!(serve.cache().len(), 1);
        assert!(client_query(&mut serve, 1, t0).is_none());
        assert!(serve.cache().is_empty(), "the entry is dropped");
        assert!(client_query(&mut serve, 2, t0).is_none());
        assert_eq!(
            serve.cache().stats,
            CacheStats {
                misses: 2,
                insertions: 1,
                ..CacheStats::default()
            }
        );
    }

    #[test]
    fn expired_key_leaves_the_eviction_order() {
        // Regression: a key expired by a lookup stayed queued, so its
        // re-insert queued a second copy — the stale one then evicted the
        // re-inserted (youngest) entry in place of the oldest, and `order`
        // grew by one per expire/re-insert cycle.
        let mut c = DnsCache::new(2);
        let positive = |s: &str| CachedAnswer::Positive(vec![a_record(s, 60)]);
        let at = |secs| SimTime::ZERO + SimDuration::from_secs(secs);
        c.insert(
            name("a.example."),
            RrType::A,
            positive("a.example."),
            10,
            at(0),
        );
        c.insert(
            name("b.example."),
            RrType::A,
            positive("b.example."),
            600,
            at(1),
        );
        for cycle in 0..3 {
            let t = at(20 + 20 * cycle);
            assert_eq!(c.get(&name("a.example."), RrType::A, t), None, "expired");
            c.insert(name("a.example."), RrType::A, positive("a.example."), 10, t);
            let order = c.table.order();
            assert!(order.len() <= 2, "order holds {order:?}");
        }
        let t = at(65);
        c.insert(
            name("c.example."),
            RrType::A,
            positive("c.example."),
            600,
            t,
        );
        assert_eq!(c.stats.evictions, 1);
        assert!(c.get(&name("b.example."), RrType::A, t).is_none(), "oldest");
        assert!(c.get(&name("a.example."), RrType::A, t).is_some());
        assert!(c.get(&name("c.example."), RrType::A, t).is_some());
        assert_eq!((c.len(), c.table.order().len()), (2, 2));
    }

    /// A `HashMap` + `VecDeque` store with no inline slot, as the model
    /// [`FifoTable`] under a [`DnsCache`] is held to: same capacity rule,
    /// same counters, same place in the order for an overwrite, keyed by
    /// lower-cased text so that not even key equality is shared with the
    /// code under test.
    struct Reference {
        map: HashMap<ModelKey, (CachedAnswer, SimTime)>,
        order: VecDeque<ModelKey>,
        capacity: usize,
        stats: CacheStats,
    }

    type ModelKey = (String, RrType);

    fn model_key(name: &DnsName, rtype: RrType) -> ModelKey {
        (name.to_string().to_ascii_lowercase(), rtype)
    }

    impl Reference {
        fn insert(&mut self, key: ModelKey, answer: CachedAnswer, ttl_secs: u32, now: SimTime) {
            if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
                let oldest = self.order.pop_front().expect("capacity is positive");
                self.map.remove(&oldest);
                self.stats.evictions += 1;
            }
            let expires = now + SimDuration::from_secs(u64::from(ttl_secs));
            if self.map.insert(key.clone(), (answer, expires)).is_none() {
                self.order.push_back(key);
            }
            self.stats.insertions += 1;
        }

        /// The counted lookup both `get` and `get_wire` perform.
        fn get(&mut self, key: &ModelKey, now: SimTime) -> Option<CachedAnswer> {
            let Some((answer, expires)) = self.map.get(key) else {
                self.stats.misses += 1;
                return None;
            };
            if now >= *expires {
                self.stats.misses += 1;
                self.stats.expirations += 1;
                self.map.remove(key);
                self.order.retain(|k| k != key);
                return None;
            }
            self.stats.hits += 1;
            let remaining = ((*expires - now).as_micros() / 1_000_000) as u32;
            Some(match answer {
                CachedAnswer::Positive(records) => CachedAnswer::Positive(
                    records
                        .iter()
                        .map(|r| Record {
                            ttl: remaining,
                            ..r.clone()
                        })
                        .collect(),
                ),
                negative => negative.clone(),
            })
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum ModelOp {
        /// Cache a positive (or negative) answer for name `n`, upper-cased
        /// when `shout`.
        Insert {
            n: usize,
            shout: bool,
            positive: bool,
            ttl: u32,
        },
        /// `DnsCache::get` for name `n`.
        Get {
            n: usize,
            shout: bool,
        },
        /// `DnsCache::get_wire` for name `n`.
        GetWire {
            n: usize,
            shout: bool,
            txid: u16,
            rd: bool,
        },
        Advance {
            millis: u64,
        },
    }

    /// Takes a table 0 → 1 → 2 → 1 → 0 → 1 entries (two expiries forgotten
    /// by lookups) before the seeded ops start; at capacity 1 the second
    /// insert evicts instead, which is the other way to stay inline.
    const PROLOGUE: [ModelOp; 6] = [
        ModelOp::Insert {
            n: 0,
            shout: false,
            positive: true,
            ttl: 1,
        },
        ModelOp::Insert {
            n: 1,
            shout: false,
            positive: true,
            ttl: 1,
        },
        ModelOp::Advance { millis: 1_000 },
        ModelOp::Get { n: 0, shout: false },
        ModelOp::GetWire {
            n: 1,
            shout: true,
            txid: 9,
            rd: true,
        },
        ModelOp::Insert {
            n: 0,
            shout: true,
            positive: false,
            ttl: 2,
        },
    ];

    fn seeded_op(seed: u64, step: u64) -> ModelOp {
        let r = netsim::mix64(seed ^ (step << 20));
        let n = (r >> 8) as usize % 6;
        let shout = r >> 16 & 1 == 1;
        match r % 10 {
            0..=2 => ModelOp::Insert {
                n,
                shout,
                positive: r >> 17 & 7 != 0,
                ttl: 1 + (r >> 24) as u32 % 4,
            },
            3..=4 => ModelOp::Get { n, shout },
            5..=7 => ModelOp::GetWire {
                n,
                shout,
                txid: (r >> 32) as u16,
                rd: r >> 17 & 1 == 1,
            },
            _ => ModelOp::Advance {
                millis: (r >> 24) % 2_500,
            },
        }
    }

    #[test]
    fn fifo_table_matches_the_hashmap_and_vecdeque_model() {
        for (capacity, seed) in [(1, 11), (2, 12), (2, 13), (64, 14), (64, 15)] {
            let mut cache = DnsCache::new(capacity);
            let mut model = Reference {
                map: HashMap::new(),
                order: VecDeque::new(),
                capacity,
                stats: CacheStats::default(),
            };
            let mut now = SimTime::ZERO;
            let mut occupancy = vec![0];
            let ops = PROLOGUE
                .into_iter()
                .chain((0..2_000).map(|step| seeded_op(seed, step)));
            for (step, op) in ops.enumerate() {
                let at = format!("capacity {capacity}, seed {seed}, step {step}: {op:?}");
                let spelled = |n: usize, shout: bool| {
                    let text = format!("n{n}.model.example.");
                    name(&if shout { text.to_uppercase() } else { text })
                };
                match op {
                    ModelOp::Insert {
                        n,
                        shout,
                        positive,
                        ttl,
                    } => {
                        let owner = spelled(n, shout);
                        let answer = if positive {
                            let addr = Ipv4Addr::new(198, 51, 100, step as u8);
                            CachedAnswer::Positive(vec![Record::a(owner.clone(), ttl, addr)])
                        } else {
                            CachedAnswer::Negative(Rcode::NxDomain)
                        };
                        model.insert(model_key(&owner, RrType::A), answer.clone(), ttl, now);
                        cache.insert(owner, RrType::A, answer, ttl, now);
                    }
                    ModelOp::Get { n, shout } => {
                        let qname = spelled(n, shout);
                        let expected = model.get(&model_key(&qname, RrType::A), now);
                        assert_eq!(cache.get(&qname, RrType::A, now), expected, "{at}");
                    }
                    ModelOp::GetWire { n, shout, txid, rd } => {
                        let qname = spelled(n, shout);
                        let query = MessageBuilder::query(txid, qname.clone(), RrType::A)
                            .recursion_desired(rd)
                            .build();
                        let respond = MessageBuilder::response_to(&query).recursion_available(true);
                        let expected = model.get(&model_key(&qname, RrType::A), now).map(
                            |answer| match answer {
                                CachedAnswer::Positive(records) => Ok(records
                                    .into_iter()
                                    .fold(respond, MessageBuilder::answer)
                                    .build()
                                    .encode()),
                                CachedAnswer::Negative(rcode) => Err(rcode),
                            },
                        );
                        let served = cache
                            .get_wire(&qname, RrType::A, now, txid, rd)
                            .map(|wire| match wire {
                                CachedWire::Positive(bytes) => Ok(bytes.to_vec()),
                                CachedWire::Negative(rcode) => Err(rcode),
                            });
                        assert_eq!(served, expected, "{at}");
                    }
                    ModelOp::Advance { millis } => now += SimDuration::from_millis(millis),
                }
                assert_eq!(cache.stats, model.stats, "{at}");
                assert_eq!(cache.len(), model.map.len(), "{at}");
                let order: Vec<ModelKey> = cache
                    .table
                    .order()
                    .into_iter()
                    .map(|key| model_key(&key.name, key.rtype))
                    .collect();
                assert_eq!(order, Vec::from(model.order.clone()), "{at}");
                if occupancy.last() != Some(&cache.len()) {
                    occupancy.push(cache.len());
                }
            }
            let spilled = matches!(cache.table, FifoTable::Spilled { .. });
            if capacity == 1 {
                assert!(!spilled, "one entry never needs the heap");
                assert!(cache.stats.evictions > 100, "{:?}", cache.stats);
            } else {
                assert!(spilled);
                assert_eq!(occupancy[..6], [0, 1, 2, 1, 0, 1], "capacity {capacity}");
            }
            let stats = cache.stats;
            assert!(stats.hits > 100 && stats.expirations > 10, "{stats:?}");
            assert_eq!(stats.evictions > 0, capacity < 6, "{stats:?}");
        }
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
