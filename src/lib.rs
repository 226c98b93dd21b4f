//! # transparent-forwarders
//!
//! A full reproduction of *Transparent Forwarders: An Unnoticed Component
//! of the Open DNS Infrastructure* (Nawrocki, Koch, Schmidt, Wählisch —
//! CoNEXT '21) as a Rust workspace:
//!
//! * [`dnswire`] — DNS wire format from scratch;
//! * [`netsim`] — deterministic discrete-event IPv4 simulator (routing,
//!   TTL/ICMP, spoofing + SAV, anycast, pcap capture, fault injection);
//! * [`odns`] — the ODNS component zoo: authoritative/root/TLD servers,
//!   recursive resolvers, recursive and transparent forwarders, public
//!   anycast resolver projects, CPE device profiles;
//! * [`scanner`] — the transactional scanner, campaign emulators
//!   (Shadowserver/Censys/Shodan), honeypot sensors, fingerprinting;
//! * [`dnsroute`] — DNSRoute++ with sanitization and AS-relationship
//!   inference;
//! * [`inetgen`] — a synthetic Internet calibrated to the paper's
//!   published aggregates;
//! * [`analysis`] — the post-processing pipeline regenerating every table
//!   and figure.
//!
//! ## Quickstart
//!
//! ```
//! use transparent_forwarders::{quick_census, quick_census_sharded};
//!
//! // A small but complete Internet-wide census (seeded, deterministic).
//! let summary = quick_census(2_000);
//! assert!(summary.transparent > 0);
//! assert!(summary.transparent_share > 0.10);
//!
//! // The same census, partitioned into 4 prefix shards driven on a
//! // worker-thread pool. Classification counts are identical for any
//! // shard count on the same seed.
//! let sharded = quick_census_sharded(2_000, 4);
//! assert_eq!(sharded, summary);
//! ```
//!
//! Sharding is how the reproduction scales: `quick_census(scale)` is
//! `quick_census_sharded(scale, 1)` by construction, and larger censuses
//! pick a shard count near the machine's core count (see the `scaling`
//! bench). The same worker pool drives the §5 DNSRoute++
//! sweep — [`analysis::run_dnsroute_sharded`] scans *and* traces every
//! shard world in parallel, each shard owning its own source-port space,
//! so full-coverage forwarder tracing has no single-world wave limit.
//! See `examples/` for the full experiment walk-throughs; `cargo run
//! --release -p bench --bin fidelitygate` regenerates every table and
//! figure (`bench::PAPER`) and checks it against the paper.

pub use analysis;
pub use dnsroute;
pub use dnswire;
pub use inetgen;
pub use netsim;
pub use odns;
pub use scanner;

use scanner::{ClassifierConfig, OdnsClass};

/// Headline numbers from a census run (a tiny Table 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CensusSummary {
    /// Classified ODNS components.
    pub odns_total: usize,
    /// Transparent forwarders found.
    pub transparent: usize,
    /// Recursive forwarders found.
    pub recursive_forwarders: usize,
    /// Recursive resolvers found.
    pub recursive_resolvers: usize,
    /// Transparent share of the ODNS.
    pub transparent_share: f64,
}

/// Generate a world at `scale` (1 = the paper's full 2.1 M-host
/// population; larger = smaller world), run the transactional census, and
/// summarize. Deterministic for a fixed scale.
pub fn quick_census(scale: u32) -> CensusSummary {
    quick_census_sharded(scale, 1)
}

/// The sharded census: partition the world into `shards` disjoint prefix
/// shards; generate, scan, correlate and classify every shard on a
/// worker-thread pool; concatenate the classified rows in shard order.
/// Produces identical classification counts to [`quick_census`] at any
/// shard count for the same scale — sharding changes wall-clock time,
/// never results.
pub fn quick_census_sharded(scale: u32, shards: u32) -> CensusSummary {
    let config = inetgen::GenConfig {
        scale,
        ..inetgen::GenConfig::default()
    };
    summarize(&analysis::run_census_sharded(
        &config,
        shards,
        &ClassifierConfig::default(),
    ))
}

fn summarize(census: &analysis::Census) -> CensusSummary {
    CensusSummary {
        odns_total: census.odns_total(),
        transparent: census.count(OdnsClass::TransparentForwarder),
        recursive_forwarders: census.count(OdnsClass::RecursiveForwarder),
        recursive_resolvers: census.count(OdnsClass::RecursiveResolver),
        transparent_share: census.share(OdnsClass::TransparentForwarder),
    }
}
