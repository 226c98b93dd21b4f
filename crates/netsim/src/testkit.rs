//! Test support: tiny topologies and scripted traffic drivers.
//!
//! Unit tests all over the workspace need to poke a single [`Host`]
//! implementation with hand-built datagrams and observe what comes back.
//! This module provides a one-AS "playground" topology and a
//! [`ScriptedClient`] that fires a prepared send sequence and records every
//! datagram and ICMP message it receives.

use crate::host::{Ctx, Host, TimerOutcome, UdpSend};
use crate::packet::{Datagram, IcmpMessage};
use crate::sim::Simulator;
use crate::time::{SimDuration, SimTime};
use crate::topology::{AsKind, AsSpec, CountryCode, HostSpec, NodeId, Topology, TopologyBuilder};
use std::net::Ipv4Addr;

/// Build a single-AS topology (no SAV, one transit router `10.255.0.1`)
/// with one host per address in `ips`. Returns the topology and node ids in
/// input order.
pub fn playground(ips: &[Ipv4Addr]) -> (Topology, Vec<NodeId>) {
    playground_with_sav(ips, false)
}

/// [`playground`] with an explicit outbound-SAV policy for the single AS.
pub fn playground_with_sav(ips: &[Ipv4Addr], sav: bool) -> (Topology, Vec<NodeId>) {
    let mut b = TopologyBuilder::new();
    let a = b.add_as(AsSpec {
        asn: 64512,
        country: CountryCode::new("ZZZ"),
        kind: AsKind::Unclassified,
        sav_outbound: sav,
        transit_routers: vec![Ipv4Addr::new(10, 255, 0, 1)],
    });
    let nodes = ips
        .iter()
        .map(|ip| b.add_host(a, HostSpec::simple(*ip)))
        .collect();
    (b.build().expect("playground topology is valid"), nodes)
}

/// A host that fires a prepared list of sends at given offsets and records
/// everything it hears back.
#[derive(Debug, Default)]
pub struct ScriptedClient {
    script: Vec<UdpSend>,
    /// Datagrams received, with arrival times.
    pub datagrams: Vec<(SimTime, Datagram)>,
    /// ICMP messages received, with arrival times.
    pub icmp: Vec<(SimTime, IcmpMessage)>,
}

impl ScriptedClient {
    /// Create an empty client (useful as a pure listener).
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a send; returns the timer token to schedule it with.
    pub fn push(&mut self, send: UdpSend) -> u64 {
        self.script.push(send);
        (self.script.len() - 1) as u64
    }
}

impl Host for ScriptedClient {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
        self.datagrams.push((ctx.now(), dgram));
    }

    fn on_icmp(&mut self, ctx: &mut Ctx<'_>, icmp: IcmpMessage) {
        self.icmp.push((ctx.now(), icmp));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) -> TimerOutcome {
        let Some(send) = self.script.get(token as usize) else {
            return TimerOutcome::Stale;
        };
        ctx.send_udp(send.clone());
        TimerOutcome::Acted
    }
}

/// Install a scripted client at `node` firing `sends` at the given offsets,
/// scheduling all necessary timers.
pub fn install_script(sim: &mut Simulator, node: NodeId, sends: Vec<(SimDuration, UdpSend)>) {
    let mut client = ScriptedClient::new();
    let mut timers = Vec::new();
    for (delay, send) in sends {
        let token = client.push(send);
        timers.push((delay, token));
    }
    sim.install(node, client);
    for (delay, token) in timers {
        sim.schedule_timer(node, delay, token);
    }
}

/// One-call harness: one subject host and one scripted driver in a shared
/// AS. Runs the script to completion and returns the driver's recordings.
pub struct Exchange {
    sim: Simulator,
    driver: NodeId,
    subject: NodeId,
}

impl Exchange {
    /// Build with the subject at `subject_ip` and the driver at
    /// `driver_ip`.
    pub fn new<H: Host>(subject_ip: Ipv4Addr, driver_ip: Ipv4Addr, subject: H) -> Self {
        let (topo, nodes) = playground(&[subject_ip, driver_ip]);
        let mut sim = Simulator::new(topo);
        sim.install(nodes[0], subject);
        sim.install(nodes[1], ScriptedClient::new());
        Exchange {
            sim,
            driver: nodes[1],
            subject: nodes[0],
        }
    }

    /// Queue a send from the driver at `delay`.
    pub fn send_at(&mut self, delay: SimDuration, send: UdpSend) {
        let client = self
            .sim
            .host_as_mut::<ScriptedClient>(self.driver)
            .expect("driver is a ScriptedClient");
        let token = client.push(send);
        self.sim.schedule_timer(self.driver, delay, token);
    }

    /// Run to quiescence.
    pub fn run(&mut self) {
        if self.sim.run() {
            let stats = self.sim.stats();
            assert!(
                stats.conserved(),
                "packets leaked or double-counted: {stats}"
            );
        }
    }

    /// Everything the driver received.
    pub fn received(&self) -> &[(SimTime, Datagram)] {
        &self
            .sim
            .host_as::<ScriptedClient>(self.driver)
            .expect("driver")
            .datagrams
    }

    /// ICMP the driver received.
    pub fn icmp(&self) -> &[(SimTime, IcmpMessage)] {
        &self
            .sim
            .host_as::<ScriptedClient>(self.driver)
            .expect("driver")
            .icmp
    }

    /// Borrow the subject host back (for stats assertions).
    pub fn subject<H: Host>(&self) -> &H {
        self.sim.host_as(self.subject).expect("subject type")
    }

    /// The underlying simulator (e.g. for stats).
    pub fn sim(&self) -> &Simulator {
        &self.sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Upper;
    impl Host for Upper {
        fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
            // Mutation requires copying out: payloads in flight are shared.
            let mut payload = dgram.payload.to_vec();
            payload.make_ascii_uppercase();
            ctx.send_udp(UdpSend::reply_to(&dgram, payload));
        }
    }

    #[test]
    fn exchange_round_trip() {
        let subject_ip = Ipv4Addr::new(10, 0, 0, 1);
        let driver_ip = Ipv4Addr::new(10, 0, 0, 2);
        let mut ex = Exchange::new(subject_ip, driver_ip, Upper);
        ex.send_at(
            SimDuration::ZERO,
            UdpSend::new(4000, subject_ip, 7, b"hello".to_vec()),
        );
        ex.send_at(
            SimDuration::from_millis(10),
            UdpSend::new(4001, subject_ip, 7, b"bye".to_vec()),
        );
        ex.run();
        let got = ex.received();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].1.payload, b"HELLO");
        assert_eq!(got[1].1.payload, b"BYE");
        assert!(got[0].0 < got[1].0);
    }

    #[test]
    fn playground_hosts_are_reachable() {
        let ips = [
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(10, 0, 0, 3),
        ];
        let (topo, nodes) = playground(&ips);
        assert_eq!(topo.host_count(), 3);
        assert_eq!(topo.host_spec(nodes[2]).ip, ips[2]);
    }
}
