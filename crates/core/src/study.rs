//! Constants and name conventions of the measurement study.
//!
//! The study controls one DNS zone and steers all probes at a single
//! *static* query name inside it (the response-based method, §2). The
//! competing *query-based* method encodes the probed target's address into
//! the query name; both are implemented so Table 2 can be reproduced.

use crate::auth::StudyAuthServer;
use crate::zone::{DelegatingServer, Delegation};
use dnswire::{DnsName, MessageBuilder, RrType};
use netsim::{HostEntry, NodeId, Simulator};
use std::net::Ipv4Addr;
use std::sync::OnceLock;

/// The DNS zone the study controls (placeholder TLD per RFC 2606).
const STUDY_ZONE: &str = "odns-study.example.";

/// The static name every response-based probe queries. Static names let
/// resolver caches absorb repeat queries, keeping authoritative load low
/// (Table 2, "Utilization of caches: High / Load auth. name server: Low").
pub(crate) const STUDY_QNAME: &str = "odns-study.example.";

/// Subdomain under which the query-based method encodes targets:
/// `203-0-113-1.scan.odns-study.example.`.
const SCAN_LABEL: &str = "scan";

/// The static control record's address. The dynamic record reflects the
/// immediate client; this one never changes. Requiring *both* records
/// intact makes classification robust against middlebox manipulation
/// (§4.2: Shadowserver requires only one correct record and therefore
/// counts manipulated responders too).
pub const CONTROL_A: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 200);

/// TTL of the study's answer records (Figure 7 uses 300 s).
pub const ANSWER_TTL: u32 = 300;

/// The study zone as a parsed name.
pub fn study_zone() -> DnsName {
    DnsName::parse(STUDY_ZONE).expect("constant zone parses")
}

/// The static query name as a parsed name.
pub fn study_qname() -> DnsName {
    DnsName::parse(STUDY_QNAME).expect("constant qname parses")
}

/// The study probe's wire bytes under transaction ID 0: the RD=1 A query
/// for [`study_qname`]. Every response-based prober sends this one query
/// under its own ID ([`netsim::Payload::with_dns_id`]), so it is encoded
/// once per process.
pub fn probe_template() -> &'static [u8] {
    static TEMPLATE: OnceLock<Vec<u8>> = OnceLock::new();
    TEMPLATE.get_or_init(|| {
        MessageBuilder::query(0, study_qname(), RrType::A)
            .recursion_desired(true)
            .build()
            .encode()
    })
}

/// Build a query-based (destination-encoded) name for `target`:
/// `a-b-c-d.scan.odns-study.example.`.
pub fn encode_target_name(target: Ipv4Addr) -> DnsName {
    let o = target.octets();
    let s = format!(
        "{}-{}-{}-{}.{}.{}",
        o[0], o[1], o[2], o[3], SCAN_LABEL, STUDY_ZONE
    );
    DnsName::parse(&s).expect("encoded name parses")
}

/// Recover the target address from a destination-encoded name, if `name`
/// follows the `a-b-c-d.scan.<zone>` convention.
pub fn decode_target_name(name: &DnsName) -> Option<Ipv4Addr> {
    let zone = study_zone();
    if !name.is_subdomain_of(&zone) {
        return None;
    }
    if name.label_count() != zone.label_count() + 2 {
        return None;
    }
    let mut labels = name.labels();
    let first = std::str::from_utf8(labels.next()?).ok()?;
    if !labels.next()?.eq_ignore_ascii_case(SCAN_LABEL.as_bytes()) {
        return None;
    }
    let parts: Vec<&str> = first.split('-').collect();
    if parts.len() != 4 {
        return None;
    }
    let mut octets = [0u8; 4];
    for (i, p) in parts.iter().enumerate() {
        octets[i] = p.parse().ok()?;
    }
    Some(Ipv4Addr::from(octets))
}

/// Node/address layout of one study-server stack (root → TLD → study
/// authoritative). A sharded census deploys one full stack per shard so
/// every shard's recursive resolution is self-contained.
#[derive(Debug, Clone, Copy)]
pub struct StudyNodes {
    /// Root name-server node.
    pub root: NodeId,
    /// TLD (`example.`) server node.
    pub tld: NodeId,
    /// TLD server address (delegation glue installed at the root).
    pub tld_ip: Ipv4Addr,
    /// Study authoritative node.
    pub auth: NodeId,
    /// Study authoritative address (delegation glue installed at the TLD).
    pub auth_ip: Ipv4Addr,
}

/// Install the study's full delegation chain at `nodes`: a root server
/// delegating `example.` to the TLD, the TLD delegating the study zone to
/// the authoritative, and the authoritative server itself. Recursive
/// resolution of the study name is genuinely iterative through this chain,
/// in every simulator it is installed in.
pub fn install_study_stack<H: HostEntry>(sim: &mut Simulator<H>, nodes: StudyNodes) {
    let mut root = DelegatingServer::root();
    root.delegate(Delegation {
        zone: DnsName::parse("example.").expect("static zone parses"),
        ns_name: DnsName::parse("a.nic.example.").expect("static name parses"),
        ns_ip: nodes.tld_ip,
    });
    sim.install(nodes.root, root);
    let mut tld = DelegatingServer::new(DnsName::parse("example.").expect("static zone parses"));
    tld.delegate(Delegation {
        zone: study_zone(),
        ns_name: DnsName::parse("ns1.odns-study.example.").expect("static name parses"),
        ns_ip: nodes.auth_ip,
    });
    sim.install(nodes.tld, tld);
    sim.install(nodes.auth, StudyAuthServer::new());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_parse() {
        assert_eq!(study_zone().label_count(), 2);
        assert_eq!(study_qname(), study_zone());
    }

    #[test]
    fn encode_decode_target_roundtrip() {
        let t = Ipv4Addr::new(203, 0, 113, 1);
        let name = encode_target_name(t);
        assert_eq!(name.to_string(), "203-0-113-1.scan.odns-study.example.");
        assert_eq!(decode_target_name(&name), Some(t));
    }

    #[test]
    fn decode_rejects_foreign_names() {
        assert_eq!(
            decode_target_name(&DnsName::parse("google.com.").unwrap()),
            None
        );
        assert_eq!(decode_target_name(&study_qname()), None);
        assert_eq!(
            decode_target_name(&DnsName::parse("1-2-3.scan.odns-study.example.").unwrap()),
            None,
            "three octets is not an IP"
        );
        assert_eq!(
            decode_target_name(&DnsName::parse("1-2-3-4.other.odns-study.example.").unwrap()),
            None,
            "wrong subdomain label"
        );
        assert_eq!(
            decode_target_name(&DnsName::parse("1-2-3-999.scan.odns-study.example.").unwrap()),
            None,
            "octet out of range"
        );
    }

    #[test]
    fn decode_is_case_insensitive_on_label() {
        let name = DnsName::parse("9-8-7-6.SCAN.odns-study.example.").unwrap();
        assert_eq!(decode_target_name(&name), Some(Ipv4Addr::new(9, 8, 7, 6)));
    }
}
