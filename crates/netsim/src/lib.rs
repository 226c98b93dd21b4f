//! # netsim — a deterministic discrete-event IPv4 Internet simulator
//!
//! This crate is the substrate substituting for the public IPv4 Internet in
//! the reproduction of *Transparent Forwarders: An Unnoticed Component of
//! the Open DNS Infrastructure* (CoNEXT '21). The paper's measurements need:
//!
//! * an AS-level topology with router-level paths (DNSRoute++ walks hops);
//! * per-router TTL decrements and ICMP Time Exceeded generation;
//! * source-address spoofing with per-AS outbound SAV policy (transparent
//!   forwarders only exist where SAV is absent);
//! * anycast services with PoP-proximity selection (public resolvers);
//! * pcap capture of real wire bytes (the zmap + dumpcap pipeline);
//! * fault injection (loss, duplication, jitter) for robustness tests: a
//!   simulator is quiet until [`Simulator::set_faults`] installs a plan.
//!
//! Design follows the event-driven, allocation-conscious style of smoltcp:
//! hosts implement [`Host`] and interact only through [`Ctx`]; the
//! simulator is single-threaded, draws nothing at random, and is fully
//! deterministic from its topology, hosts and fault plan.
//!
//! ## Quick tour
//!
//! ```
//! use netsim::{
//!     AsKind, AsSpec, CountryCode, HostSpec, Relationship, Simulator, TopologyBuilder,
//!     UdpSend, SimDuration,
//! };
//! use std::net::Ipv4Addr;
//!
//! let mut b = TopologyBuilder::new();
//! let a0 = b.add_as(AsSpec {
//!     asn: 65001,
//!     country: CountryCode::new("DEU"),
//!     kind: AsKind::Transit,
//!     sav_outbound: true,
//!     transit_routers: vec![Ipv4Addr::new(10, 0, 0, 1)],
//! });
//! let scanner = b.add_host(a0, HostSpec::simple(Ipv4Addr::new(192, 0, 2, 1)));
//! let sink = b.add_host(a0, HostSpec::simple(Ipv4Addr::new(192, 0, 2, 2)));
//! let mut sim = Simulator::new(b.build().unwrap());
//! netsim::testkit::install_script(&mut sim, scanner, vec![(
//!     SimDuration::ZERO,
//!     UdpSend::new(40000, Ipv4Addr::new(192, 0, 2, 2), 53, b"hello".to_vec()),
//! )]);
//! sim.run();
//! assert_eq!(sim.stats().udp_delivered, 1);
//! let _ = sink;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fault;
mod host;
mod intmap;
mod packet;
mod retry;
mod routing;
mod sim;
mod stats;
mod time;
mod topology;

pub mod pcap;
pub mod shard;
// detlint::allow(needless-pub): test support for the other crates' unit and integration tests, which `#[cfg(test)]` cannot reach
pub mod testkit;
pub mod wheel;
pub mod wire;

pub use fault::{mix64, FaultConfig, FaultPlan, FlowKey, FlowVerdict};
pub use host::{Ctx, Host, TimerOutcome, UdpSend};
pub use intmap::{IntHasher, IntMap};
pub use packet::{Datagram, IcmpKind, IcmpMessage, Payload, QuotedDatagram, DEFAULT_TTL};
pub use retry::RetryPolicy;
pub use routing::{Hop, Path, RouteError, RouteResolver};
pub use sim::{HostEntry, Simulator};
pub use stats::{DropReason, SimStats};
pub use time::{SimDuration, SimTime};
pub use topology::{
    AnycastGroup, AsId, AsKind, AsSpec, CountryCode, HostSpec, IpOwner, NodeId, Relationship,
    Topology, TopologyBuilder, TopologyError,
};
pub use wheel::TimerId;
