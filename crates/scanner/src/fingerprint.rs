//! Banner-grabbing scanner: the Shodan/Censys-style device fingerprinting
//! of Appendix E.
//!
//! For each target it probes a list of UDP ports; open ports answer with a
//! vendor banner (see `odns::device`), closed ports return ICMP port
//! unreachable. The analysis crate turns `(open ports, banner)` evidence
//! into vendor attributions — reproducing the "23 % of transparent
//! forwarders are MikroTik" finding.

use crate::pacer::{Pacer, PACE_TOKEN};
use netsim::{
    Ctx, Datagram, Host, IcmpMessage, NodeId, RetryPolicy, SimDuration, Simulator, UdpSend,
};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// The UDP ports tried on each host: the device-profile ports.
const PORTS: [u16; 3] = [
    odns::device::MIKROTIK_MNDP_PORT,
    odns::device::MIKROTIK_BTEST_PORT,
    odns::device::CPE_MGMT_PORT,
];

/// Gap between consecutive probes.
const GAP: SimDuration = SimDuration::from_micros(50);

/// Probe `i` leaves from port `BASE_PORT + (i & 0x3FFF)`.
const BASE_PORT: u16 = 50_000;

/// Evidence gathered about one host.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HostEvidence {
    /// `(port, banner)` pairs from open ports.
    pub banners: Vec<(u16, String)>,
    /// Ports that answered with ICMP port unreachable.
    pub closed: Vec<u16>,
}

/// The fingerprint scanner host: one single-shot probe per `(target,
/// port)` pair, paced by a `pacer::Pacer`.
#[derive(Debug)]
pub struct FingerprintScanner {
    targets: Vec<Ipv4Addr>,
    pacer: Pacer,
    /// The one-byte wake-up payload every probe sends, shared like the
    /// census probe template: each send is a refcount bump, not a fresh
    /// allocation.
    probe_payload: netsim::Payload,
    /// Evidence per probed host — address-sorted (`BTreeMap`) so any
    /// report surface iterating it renders byte-identically every run.
    pub evidence: BTreeMap<Ipv4Addr, HostEvidence>,
}

impl FingerprintScanner {
    /// A scanner probing every port of [`odns::device`]'s profiles on each
    /// of `targets`.
    pub fn new(targets: Vec<Ipv4Addr>) -> Self {
        let pacer = Pacer::new(
            targets.len() * PORTS.len(),
            GAP,
            PACE_TOKEN,
            RetryPolicy::none(),
        );
        FingerprintScanner {
            targets,
            pacer,
            probe_payload: vec![0x00].into(),
            evidence: BTreeMap::new(),
        }
    }
}

impl Host for FingerprintScanner {
    fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, dgram: Datagram) {
        // A UDP reply from (src, src_port) is a banner from that port.
        let banner = String::from_utf8_lossy(&dgram.payload).into_owned();
        self.evidence
            .entry(dgram.src)
            .or_default()
            .banners
            .push((dgram.src_port, banner));
    }

    fn on_icmp(&mut self, _ctx: &mut Ctx<'_>, icmp: IcmpMessage) {
        if icmp.kind == netsim::IcmpKind::PortUnreachable {
            if let Some(q) = icmp.quote {
                self.evidence
                    .entry(q.dst)
                    .or_default()
                    .closed
                    .push(q.dst_port);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let Some(due) = self.pacer.due(token) else {
            return;
        };
        let i = due.index;
        let target = self.targets[i / PORTS.len()];
        let port = PORTS[i % PORTS.len()];
        let src_port = BASE_PORT.wrapping_add((i & 0x3FFF) as u16);
        ctx.send_udp(UdpSend::new(
            src_port,
            target,
            port,
            self.probe_payload.clone(),
        ));
        self.pacer.sent(ctx, due);
    }
}

/// Run a fingerprint pass over `targets` and return the evidence map.
pub fn run_fingerprint_scan(
    sim: &mut Simulator,
    node: NodeId,
    targets: Vec<Ipv4Addr>,
) -> BTreeMap<Ipv4Addr, HostEvidence> {
    sim.install(node, FingerprintScanner::new(targets));
    sim.schedule_timer(node, SimDuration::ZERO, PACE_TOKEN);
    sim.run();
    sim.host_as::<FingerprintScanner>(node)
        .expect("scanner installed")
        .evidence
        .clone()
}

/// Attribute a vendor from gathered evidence: a banner containing the
/// vendor name wins; otherwise `None` (the paper leaves such hosts
/// unattributed too).
pub fn attribute_vendor(evidence: &HostEvidence) -> Option<odns::Vendor> {
    for (_, banner) in &evidence.banners {
        for vendor in odns::Vendor::all() {
            if banner.contains(vendor.name()) {
                return Some(vendor);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::testkit::playground;
    use netsim::SimConfig;
    use odns::{DeviceProfile, TransparentForwarder};

    const SCANNER: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);
    const MIKROTIK_DEV: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 1);
    const QUIET_DEV: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 2);
    const RESOLVER: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 1);

    #[test]
    fn mikrotik_identified_quiet_cpe_not() {
        let (topo, nodes) = playground(&[SCANNER, MIKROTIK_DEV, QUIET_DEV, RESOLVER]);
        let mut sim = Simulator::new(topo, SimConfig::default());
        sim.install(
            nodes[1],
            TransparentForwarder::new(RESOLVER).with_device(DeviceProfile::mikrotik()),
        );
        sim.install(
            nodes[2],
            TransparentForwarder::new(RESOLVER).with_device(DeviceProfile::generic()),
        );
        let evidence = run_fingerprint_scan(&mut sim, nodes[0], vec![MIKROTIK_DEV, QUIET_DEV]);

        let mk = &evidence[&MIKROTIK_DEV];
        assert_eq!(mk.banners.len(), 2, "MNDP + btest answer");
        assert_eq!(attribute_vendor(mk), Some(odns::Vendor::MikroTik));

        let quiet = &evidence[&QUIET_DEV];
        assert!(quiet.banners.is_empty());
        assert_eq!(quiet.closed.len(), 3, "all probed ports closed");
        assert_eq!(attribute_vendor(quiet), None);
    }

    #[test]
    fn attribution_requires_vendor_string() {
        let mut e = HostEvidence::default();
        e.banners.push((7547, "Zyxel CPE".to_string()));
        assert_eq!(attribute_vendor(&e), Some(odns::Vendor::Zyxel));
        let mut e2 = HostEvidence::default();
        e2.banners.push((7547, "some unknown device".to_string()));
        assert_eq!(attribute_vendor(&e2), None);
    }
}
