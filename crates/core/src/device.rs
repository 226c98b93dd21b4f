//! Device profiles: the fingerprinting surface of CPE hardware.
//!
//! Appendix E of the paper attributes ~23 % of transparent forwarders to
//! MikroTik devices via Shodan/Censys port scans and banners ("we find a
//! strong correlation for 10 MikroTik ports"). The simulation gives every
//! forwarder an optional [`DeviceProfile`]; a banner-grabbing scanner (in
//! the `scanner` crate) probes the profile's ports exactly like Shodan
//! does, and the analysis crate reproduces the vendor attribution.

use netsim::{Ctx, Datagram, UdpSend};

/// CPE vendor families used by the population model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Vendor {
    /// MikroTik RouterOS devices — cheap, popular in emerging markets, and
    /// the paper's dominant fingerprint (§6).
    MikroTik,
    /// Generic Linux-based home gateways.
    GenericCpe,
    /// D-Link style consumer routers.
    DLink,
    /// Zyxel style carrier-supplied gateways.
    Zyxel,
    /// Huawei carrier CPE.
    Huawei,
}

impl Vendor {
    /// Human-readable vendor name (appears in banners).
    pub fn name(self) -> &'static str {
        match self {
            Vendor::MikroTik => "MikroTik",
            Vendor::GenericCpe => "GenericCPE",
            Vendor::DLink => "D-Link",
            Vendor::Zyxel => "Zyxel",
            Vendor::Huawei => "Huawei",
        }
    }

    /// All vendors, for iteration in generators and reports.
    pub fn all() -> [Vendor; 5] {
        [
            Vendor::MikroTik,
            Vendor::GenericCpe,
            Vendor::DLink,
            Vendor::Zyxel,
            Vendor::Huawei,
        ]
    }
}

/// The UDP port our banner probes target on MikroTik devices: 5678 is the
/// MikroTik Neighbor Discovery Protocol port, one of the vendor's
/// characteristic open ports.
pub const MIKROTIK_MNDP_PORT: u16 = 5678;
/// MikroTik bandwidth-test server port (also characteristic).
pub const MIKROTIK_BTEST_PORT: u16 = 2000;
/// Generic CPE management port used by several vendors.
pub const CPE_MGMT_PORT: u16 = 7547;

/// What a device exposes to port scans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceProfile {
    /// Vendor family.
    pub vendor: Vendor,
    /// UDP ports that answer probes with a banner.
    pub open_ports: Vec<u16>,
    /// Banner string returned from open ports.
    pub banner: String,
}

impl DeviceProfile {
    /// The MikroTik profile (MNDP + btest open, RouterOS banner).
    pub fn mikrotik() -> Self {
        DeviceProfile {
            vendor: Vendor::MikroTik,
            open_ports: vec![MIKROTIK_MNDP_PORT, MIKROTIK_BTEST_PORT],
            banner: "MikroTik RouterOS 6.45.9".to_string(),
        }
    }

    /// A quiet generic CPE: no banner ports at all.
    pub fn generic() -> Self {
        DeviceProfile {
            vendor: Vendor::GenericCpe,
            open_ports: vec![],
            banner: String::new(),
        }
    }

    /// A vendor profile exposing the shared management port.
    pub fn with_mgmt(vendor: Vendor) -> Self {
        DeviceProfile {
            vendor,
            open_ports: vec![CPE_MGMT_PORT],
            banner: format!("{} CPE", vendor.name()),
        }
    }

    /// Does this profile answer on `port`?
    pub fn answers_on(&self, port: u16) -> bool {
        self.open_ports.contains(&port)
    }
}

/// Shared handler for non-DNS probes hitting a forwarder/CPE: answer with
/// the banner when the port is open, ICMP port-unreachable otherwise
/// (closed ports are informative to scanners too).
pub fn handle_probe(ctx: &mut Ctx<'_>, dgram: &Datagram, profile: Option<&DeviceProfile>) {
    match profile {
        Some(p) if p.answers_on(dgram.dst_port) => {
            ctx.send_udp(UdpSend::reply_to(dgram, p.banner.as_bytes()));
        }
        _ => ctx.send_port_unreachable(dgram),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::testkit::Exchange;
    use netsim::{Host, IcmpKind, SimDuration};
    use std::net::Ipv4Addr;

    const DEV_IP: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 99);
    const SCANNER_IP: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

    struct Probeable(Option<DeviceProfile>);
    impl Host for Probeable {
        fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
            handle_probe(ctx, &dgram, self.0.as_ref());
        }
    }

    #[test]
    fn mikrotik_banner_on_open_port() {
        let mut ex = Exchange::new(
            DEV_IP,
            SCANNER_IP,
            Probeable(Some(DeviceProfile::mikrotik())),
        );
        ex.send_at(
            SimDuration::ZERO,
            UdpSend::new(40000, DEV_IP, MIKROTIK_MNDP_PORT, vec![0]),
        );
        ex.run();
        assert_eq!(ex.received().len(), 1);
        let banner = String::from_utf8_lossy(&ex.received()[0].1.payload).to_string();
        assert!(banner.contains("MikroTik"), "banner was {banner:?}");
    }

    #[test]
    fn closed_port_unreachable() {
        let mut ex = Exchange::new(
            DEV_IP,
            SCANNER_IP,
            Probeable(Some(DeviceProfile::mikrotik())),
        );
        ex.send_at(
            SimDuration::ZERO,
            UdpSend::new(40000, DEV_IP, 9999, vec![0]),
        );
        ex.run();
        assert!(ex.received().is_empty());
        assert_eq!(ex.icmp().len(), 1);
        assert_eq!(ex.icmp()[0].1.kind, IcmpKind::PortUnreachable);
    }

    #[test]
    fn no_profile_is_all_closed() {
        let mut ex = Exchange::new(DEV_IP, SCANNER_IP, Probeable(None));
        ex.send_at(
            SimDuration::ZERO,
            UdpSend::new(40000, DEV_IP, MIKROTIK_MNDP_PORT, vec![0]),
        );
        ex.run();
        assert!(ex.received().is_empty());
        assert_eq!(ex.icmp().len(), 1);
    }

    #[test]
    fn profiles_have_distinct_ports() {
        assert!(DeviceProfile::mikrotik().answers_on(MIKROTIK_BTEST_PORT));
        assert!(!DeviceProfile::mikrotik().answers_on(CPE_MGMT_PORT));
        assert!(DeviceProfile::with_mgmt(Vendor::Zyxel).answers_on(CPE_MGMT_PORT));
        assert!(!DeviceProfile::generic().answers_on(CPE_MGMT_PORT));
    }

    #[test]
    fn vendor_names() {
        for v in Vendor::all() {
            assert!(!v.name().is_empty());
        }
        assert_eq!(Vendor::MikroTik.name(), "MikroTik");
    }
}
