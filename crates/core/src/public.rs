//! Public resolver projects: Google, Cloudflare, Quad9, OpenDNS.
//!
//! Figure 5 attributes the resolvers used by transparent forwarders to
//! these four projects (plus "other"); Figure 6 compares path lengths to
//! their anycast deployments. This module carries the well-known service
//! addresses and project ASNs; `inetgen` deploys each project into its
//! generated topology.

use std::fmt;
use std::net::Ipv4Addr;

/// The four large public resolver projects of Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ResolverProject {
    /// Google Public DNS (8.8.8.8, AS 15169).
    Google,
    /// Cloudflare (1.1.1.1, AS 13335).
    Cloudflare,
    /// Quad9 (9.9.9.9, AS 42).
    Quad9,
    /// Cisco OpenDNS (208.67.222.222, AS 36692).
    OpenDns,
}

impl ResolverProject {
    /// All four projects, in the paper's display order.
    pub fn all() -> [ResolverProject; 4] {
        [
            ResolverProject::Google,
            ResolverProject::Cloudflare,
            ResolverProject::Quad9,
            ResolverProject::OpenDns,
        ]
    }

    /// The well-known anycast service address.
    #[inline]
    pub fn service_ip(self) -> Ipv4Addr {
        match self {
            ResolverProject::Google => Ipv4Addr::new(8, 8, 8, 8),
            ResolverProject::Cloudflare => Ipv4Addr::new(1, 1, 1, 1),
            ResolverProject::Quad9 => Ipv4Addr::new(9, 9, 9, 9),
            ResolverProject::OpenDns => Ipv4Addr::new(208, 67, 222, 222),
        }
    }

    /// The project's ASN (used for indirect-consolidation attribution,
    /// Table 4: "the ASN of A_resolver belongs to one of the four common
    /// resolver projects").
    pub fn asn(self) -> u32 {
        match self {
            ResolverProject::Google => 15169,
            ResolverProject::Cloudflare => 13335,
            ResolverProject::Quad9 => 42,
            ResolverProject::OpenDns => 36692,
        }
    }

    /// Project owning a service address, if any.
    #[inline]
    pub fn from_service_ip(ip: Ipv4Addr) -> Option<ResolverProject> {
        ResolverProject::all()
            .into_iter()
            .find(|p| p.service_ip() == ip)
    }

    /// Project owning an ASN, if any.
    pub fn from_asn(asn: u32) -> Option<ResolverProject> {
        ResolverProject::all().into_iter().find(|p| p.asn() == asn)
    }

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            ResolverProject::Google => "Google",
            ResolverProject::Cloudflare => "Cloudflare",
            ResolverProject::Quad9 => "Quad9",
            ResolverProject::OpenDns => "OpenDNS",
        }
    }
}

impl fmt::Display for ResolverProject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_ips_are_well_known() {
        assert_eq!(
            ResolverProject::Google.service_ip(),
            Ipv4Addr::new(8, 8, 8, 8)
        );
        assert_eq!(
            ResolverProject::Cloudflare.service_ip(),
            Ipv4Addr::new(1, 1, 1, 1)
        );
        assert_eq!(
            ResolverProject::Quad9.service_ip(),
            Ipv4Addr::new(9, 9, 9, 9)
        );
        assert_eq!(
            ResolverProject::OpenDns.service_ip(),
            Ipv4Addr::new(208, 67, 222, 222)
        );
    }

    #[test]
    fn ip_and_asn_lookup_roundtrip() {
        for p in ResolverProject::all() {
            assert_eq!(ResolverProject::from_service_ip(p.service_ip()), Some(p));
            assert_eq!(ResolverProject::from_asn(p.asn()), Some(p));
        }
        assert_eq!(
            ResolverProject::from_service_ip(Ipv4Addr::new(192, 0, 2, 1)),
            None
        );
        assert_eq!(ResolverProject::from_asn(65000), None);
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(ResolverProject::OpenDns.to_string(), "OpenDNS");
        assert_eq!(ResolverProject::Google.to_string(), "Google");
    }
}
