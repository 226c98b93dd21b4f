//! Allocation budget of the cold path: what one study response may cost.
//!
//! A census probes every host once, so each forwarder, resolver and the
//! classifier runs a full `Message::decode`/`encode` per probe, and the
//! allocator traffic of those two calls is paid millions of times. The
//! label-vector codec spent 14 allocations decoding and 12 encoding the
//! 68-byte 2-A response; this file pins what the flat-name codec spends, so
//! reintroducing per-label or per-suffix allocation fails tier-1 rather
//! than only drifting a benchmark. The two views that replaced the decode
//! on the census's own query and answer shape may spend nothing at all.
//!
//! The library forbids `unsafe`; this test crate carries the one
//! `unsafe impl` a counting allocator needs. The count is per thread, so
//! the harness's other threads cannot disturb it.

use dnswire::{DnsName, Message, MessageBuilder, RrType};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hash::{Hash, Hasher};
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

/// Allocations (and reallocations) `f` performs on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

fn study_response() -> Message {
    let qname = DnsName::parse("odns-study.example.").unwrap();
    let query = MessageBuilder::query(0x2861, qname.clone(), RrType::A)
        .recursion_desired(true)
        .build();
    MessageBuilder::response_to(&query)
        .recursion_available(true)
        .answer_a(qname.clone(), 300, Ipv4Addr::new(203, 0, 113, 50))
        .answer_a(qname, 300, Ipv4Addr::new(192, 0, 2, 200))
        .build()
}

#[test]
fn study_response_decode_stays_within_four_allocations() {
    let bytes = study_response().encode();
    let (n, msg) = allocations(|| Message::decode(&bytes).unwrap());
    // The question vector, the answer vector, and one name buffer that the
    // question and both answer owners share.
    assert!(n <= 4, "decode took {n} allocations");
    assert_eq!(msg.answers.len(), 2);
    assert_eq!(msg.answers[1].name, msg.questions[0].qname);
}

#[test]
fn study_response_encode_stays_within_two_allocations() {
    let msg = study_response();
    let (n, bytes) = allocations(|| msg.encode());
    // The output buffer, sized once; the offset table lives inline.
    assert!(n <= 2, "encode took {n} allocations");
    assert_eq!(bytes.len(), 68);
}

#[test]
fn both_views_allocate_nothing() {
    let response = study_response().encode();
    let query = MessageBuilder::query(
        0x2861,
        DnsName::parse("odns-study.example.").unwrap(),
        RrType::A,
    )
    .recursion_desired(true)
    .build()
    .encode();
    let (n, read) = allocations(|| {
        let q = dnswire::view_query(&query).expect("the census probe");
        let a = dnswire::view_answer_a(&response).expect("its answer");
        let last = a.addrs().last();
        (q.id, q.rd, q.qname_wire.len(), q.qtype, a.rcode, last)
    });
    assert_eq!(n, 0, "the views took {n} allocations");
    let expected = (
        0x2861,
        true,
        20,
        RrType::A,
        dnswire::Rcode::NoError,
        Some(Ipv4Addr::new(192, 0, 2, 200)),
    );
    assert_eq!(read, expected);
    // Keeping the name is the one allocation a host pays, and only then.
    let (n, name) = allocations(|| dnswire::view_query(&query).unwrap().qname());
    assert_eq!((n, name.wire_len()), (1, 20));
}

#[test]
fn name_clone_eq_hash_and_cmp_do_not_allocate() {
    let a = DnsName::parse("ns1.ODNS-Study.example.").unwrap();
    let b = DnsName::parse("ns2.odns-study.EXAMPLE.").unwrap();
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    let (n, _) = allocations(|| {
        let c = a.clone();
        let same = c == a;
        let differ = a == b;
        a.hash(&mut hasher);
        let order = a.cmp(&b);
        let sub = a.is_subdomain_of(&b);
        (
            same,
            differ,
            hasher.finish(),
            order,
            sub,
            c.labels().count(),
        )
    });
    assert_eq!(n, 0, "clone/eq/hash/cmp/is_subdomain_of/labels allocated");
}
