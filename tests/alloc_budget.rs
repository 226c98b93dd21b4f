//! Whole-probe allocation budget: what one probed target may cost from
//! world generation to the rendered CSV.
//!
//! `dnswire`'s and `netsim`'s `alloc_budget.rs` pin single calls; this one
//! pins their sum over the unit a user runs — one fresh `scale` 1000
//! census (generate → scan → correlate → classify → render every census
//! artifact → drop the world), the repo benchmark's `census_fresh` rep and
//! its `mem.allocs_per_op`. That figure was 104 with the label-vector
//! codec, 59 with per-host-pair paths, 46 while forwarders re-encoded
//! every relayed answer, resolvers rebuilt a message per coalesced waiter
//! and the CSV went through a `String` per cell, 23.6 while forwarders,
//! resolvers and the classifier decoded every census query and answer to
//! read two or three fields, a patched response was copied once more to be
//! sent, the memo kept its own copy of the query and every route miss made
//! three BFS buffers, 13.9 while every queued packet was boxed (3.65 per
//! target) and every fresh world grew the wheel's per-slot vectors (0.3),
//! and 9.9 while every forwarder built a hash table for its one pending
//! query and a hash table plus an order queue for its one cache entry (2.0
//! per target) and was handed its own copy of its device profile (0.4), and
//! 7.3 while the root, the TLD and the study server decoded, built and
//! encoded an answer for every resolver walking down to the study name, and
//! the resolver decoded its leaders and referrals (1.8 per target), and
//! 5.5 while every planted host was boxed, every AS route miss built two
//! vectors and every AS its own neighbor list (1.5 per target); it is
//! ≈3.95 now. The ceiling fails tier-1 when a per-probe
//! allocation creeps back into a host, the scanner, the event queue or a
//! renderer, instead of only drifting a benchmark.
//!
//! The second pin is the rule behind that last step, at its source: a
//! `RecursiveForwarder` that has relayed and cached the only query of its
//! life has allocated the name it was asked for and nothing else; asked
//! the same again under another txid, it reads no second name. The third
//! is its counterpart for a reused world: `Internet::reset`
//! overwrites every planted host where its slot holds the last one, so it
//! allocates no host storage at all.
//!
//! The library crates forbid `unsafe`; this test crate carries the one
//! `unsafe impl` a counting allocator needs. The count is per thread, so
//! the harness's other threads cannot disturb it.

use analysis::{report, Census};
use dnswire::{DnsName, MessageBuilder, RrType};
use inetgen::{CountrySelection, GenConfig};
use netsim::{Ctx, Datagram, Host, NodeId, Payload, SimDuration, Simulator, TimerOutcome, UdpSend};
use odns::RecursiveForwarder;
use scanner::{ClassifierConfig, ScanConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a thread-local
// counter bump, which neither allocates nor unwinds (`try_with` turns the
// thread-teardown case into a skipped count).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`, plus the caller's `new_size` guarantee.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) one probed target may cost.
const CEILING_PER_TARGET: f64 = 4.5;

/// The benchmark's `census_fresh` world.
fn census_config() -> GenConfig {
    GenConfig {
        seed: 7,
        scale: 1_000,
        dud_fraction: 0.1,
        countries: CountrySelection::All,
        ..GenConfig::default()
    }
}

#[test]
fn fresh_census_stays_within_the_per_target_allocation_ceiling() {
    let before = ALLOCATIONS.with(Cell::get);
    let mut world = inetgen::generate(&census_config());
    let scan = ScanConfig::new(world.targets.clone());
    let (probes, responses, _) =
        scanner::run_scan_raw(&mut world.sim, world.fixtures.scanner, scan);
    let outcome = scanner::correlate_owned(probes, responses, ScanConfig::DEFAULT_TIMEOUT);
    let census = Census::from_transactions(
        &outcome.transactions,
        &world.geo,
        &ClassifierConfig::default(),
    );
    drop(outcome);
    let rendered = [
        report::table1(&census).render(),
        report::figure3(&census).0.render(),
        report::figure4(&census, 50).render(),
        report::figure5(&census, 12).render(),
        report::table4(&census, &world.geo, 10).render(),
        report::figure8(&census).0.render(),
        census.to_csv(),
    ];
    drop(world);
    let spent = ALLOCATIONS.with(Cell::get) - before;

    let targets = census.rows.len();
    assert!(targets > 2_000, "a scale-1000 census: {targets} targets");
    assert!(rendered.iter().all(|text| !text.is_empty()));
    let per_target = spent as f64 / targets as f64;
    assert!(
        per_target <= CEILING_PER_TARGET,
        "{spent} allocations for {targets} targets: {per_target:.1} per target, \
         ceiling {CEILING_PER_TARGET}"
    );
}

#[test]
fn resetting_a_scanned_world_allocates_no_host_storage() {
    let mut world = inetgen::generate(&census_config());
    let scan = |world: &mut inetgen::Internet| {
        let config = ScanConfig::new(world.targets.clone());
        scanner::run_scan_raw(&mut world.sim, world.fixtures.scanner, config).1
    };
    let first = scan(&mut world);
    let before = ALLOCATIONS.with(Cell::get);
    world.reset();
    let spent = ALLOCATIONS.with(Cell::get) - before;
    let hosts = world.sim.topology().host_count();
    assert!(hosts > 2_000, "a scale-1000 world: {hosts} hosts");
    // What a reset builds afresh is the hosts' own state that does not
    // scale with the world: the study stack's names and delegations, the
    // shared root hints and one profile per device vendor.
    assert!(
        spent <= 32,
        "resetting {hosts} hosts took {spent} allocations"
    );
    assert_eq!(scan(&mut world), first, "the reset world answers as it did");
}

/// Asks every forwarder the same prebuilt queries when its timer fires,
/// and counts the answers.
struct Asker {
    forwarders: Vec<Ipv4Addr>,
    queries: Vec<Payload>,
    answers: usize,
}

impl Host for Asker {
    fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, _dgram: Datagram) {
        self.answers += 1;
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) -> TimerOutcome {
        for forwarder in &self.forwarders {
            for query in &self.queries {
                ctx.send_udp(UdpSend::new(40_000, *forwarder, 53, query.clone()));
            }
        }
        TimerOutcome::Acted
    }
}

/// Answers every query with the prebuilt response carrying its txid.
struct Upstream {
    responses: Vec<Payload>,
}

impl Host for Upstream {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
        let txid = dnswire::peek_id(&dgram.payload);
        let response = self.responses.iter().find(|r| dnswire::peek_id(r) == txid);
        ctx.send_udp(UdpSend::reply_to(&dgram, response.unwrap().clone()));
    }
}

const FORWARDERS: usize = 64;

/// What 64 fresh `RecursiveForwarder`s allocate when each is asked the
/// study's question under each of `txids`, all before upstream answers,
/// and relays and caches upstream's answer to each.
///
/// Installing boxes the hosts — the world's cost, counted by the census
/// pin above. What is measured is the run: per query and forwarder, one
/// query relayed upstream, one pending entry made, matched and dropped,
/// one timeout armed and cancelled, one answer cached and relayed. The
/// first of two passes also pays for the routes and the queue's arena,
/// which `reset` keeps; the second, over new forwarders, pays for them
/// alone, and is the one counted.
fn forwarders_asked(txids: &[u16]) -> u64 {
    let upstream_ip = Ipv4Addr::new(198, 51, 100, 1);
    let forwarders: Vec<Ipv4Addr> = (0..FORWARDERS)
        .map(|i| Ipv4Addr::new(203, 0, 113, 1 + i as u8))
        .collect();
    let mut ips = vec![Ipv4Addr::new(192, 0, 2, 1), upstream_ip];
    ips.extend(&forwarders);
    let (topo, nodes) = netsim::testkit::playground(&ips);
    let (asker, upstream, forwarder_nodes) = (nodes[0], nodes[1], &nodes[2..]);

    let qname = DnsName::parse("odns-study.example.").unwrap();
    let (queries, responses): (Vec<Payload>, Vec<Payload>) = txids
        .iter()
        .map(|&txid| {
            let query = MessageBuilder::query(txid, qname.clone(), RrType::A)
                .recursion_desired(true)
                .build();
            let response = MessageBuilder::response_to(&query)
                .recursion_available(true)
                .answer_a(qname.clone(), 300, Ipv4Addr::new(192, 0, 2, 200))
                .build();
            (query.encode().into(), response.encode().into())
        })
        .unzip();

    let pass = |sim: &mut Simulator| {
        let ask = Asker {
            forwarders: forwarders.clone(),
            queries: queries.clone(),
            answers: 0,
        };
        sim.install(asker, ask);
        let responses = responses.clone();
        sim.install(upstream, Upstream { responses });
        for node in forwarder_nodes {
            sim.install(*node, RecursiveForwarder::new(upstream_ip));
        }
        let before = ALLOCATIONS.with(Cell::get);
        sim.schedule_timer(asker, SimDuration::ZERO, 0);
        assert!(sim.run());
        let spent = ALLOCATIONS.with(Cell::get) - before;
        let relayed_every_answer = |node: &NodeId| {
            let f: &RecursiveForwarder = sim.host_as(*node).unwrap();
            (f.stats.relayed, f.stats.timeouts) == (txids.len() as u64, 0)
        };
        assert!(forwarder_nodes.iter().all(relayed_every_answer));
        let answers = sim.host_as::<Asker>(asker).unwrap().answers;
        assert_eq!(answers, FORWARDERS * txids.len());
        spent
    };

    let mut sim = Simulator::new(topo);
    pass(&mut sim);
    sim.reset();
    pass(&mut sim)
}

#[test]
fn forwarders_first_and_only_query_allocates_its_name_and_nothing_else() {
    assert_eq!(
        forwarders_asked(&[0x2861]),
        FORWARDERS as u64,
        "{FORWARDERS} forwarders, each asked once: one allocation apiece (the question's name)"
    );
}

/// The second query is the first one's bytes under another txid: its
/// question is the serve path's memo, so its name costs nothing. What it
/// does cost is the pending table, which a second query in flight spills
/// to the heap (3 per forwarder while the name was read again).
#[test]
fn forwarder_asked_twice_reads_the_second_name_off_its_memo() {
    assert_eq!(
        forwarders_asked(&[0x2861, 0x2862]),
        2 * FORWARDERS as u64,
        "{FORWARDERS} forwarders, each asked twice: the name and the pending table apiece"
    );
}
