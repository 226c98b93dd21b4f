//! Trace sanitization and the forwarder-path data set.
//!
//! The paper obtains "over 70k paths to 1.1k ASNs *after sanitization*",
//! which "removes incomplete paths due to host churn or traceroute
//! anomalies" (§5). This module applies the same filters and shapes the
//! surviving traces into per-forwarder path records for Figure 6.

use crate::trace::TraceResult;
use std::net::Ipv4Addr;

/// A sanitized forwarder → resolver path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForwarderPath {
    /// The transparent forwarder.
    pub forwarder: Ipv4Addr,
    /// The resolver that finally answered (service address for anycast).
    pub resolver: Ipv4Addr,
    /// IP hop count forwarder → resolver (Figure 6's x-axis).
    pub hop_count: u8,
    /// Router addresses strictly between forwarder and resolver.
    pub via: Vec<Ipv4Addr>,
    /// Router addresses scanner → forwarder (exclusive).
    pub approach: Vec<Ipv4Addr>,
}

/// Why a trace was discarded during sanitization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceReject {
    /// The target never identified itself with Time Exceeded — not a
    /// transparent forwarder (or it churned away).
    NoForwarderSignature,
    /// No DNS answer arrived within the sweep.
    NoResolverAnswer,
    /// Anonymous hops inside the forwarder→resolver segment.
    IncompleteBeyond,
    /// Nonsensical hop arithmetic (answer TTL not beyond the forwarder).
    Anomalous,
}

/// Sanitization statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SanitizeStats {
    /// Traces accepted.
    pub kept: usize,
    /// Rejections by cause.
    pub rejected_no_signature: usize,
    /// Missing DNS endpoint.
    pub rejected_no_answer: usize,
    /// Anonymous hops beyond the forwarder.
    pub rejected_incomplete: usize,
    /// Inconsistent TTL arithmetic.
    pub rejected_anomalous: usize,
}

impl SanitizeStats {
    /// Total inspected.
    pub fn total(&self) -> usize {
        self.kept
            + self.rejected_no_signature
            + self.rejected_no_answer
            + self.rejected_incomplete
            + self.rejected_anomalous
    }
}

/// Classify a single trace.
// detlint::allow(needless-pub): crates/dnsroute/tests/traces.rs holds Figure 6's hop count and the rejections to it
pub fn check_trace(t: &TraceResult) -> Result<ForwarderPath, TraceReject> {
    let Some(fwd_ttl) = t.target_seen_at else {
        return Err(TraceReject::NoForwarderSignature);
    };
    let Some(dns) = &t.dns else {
        return Err(TraceReject::NoResolverAnswer);
    };
    if dns.ttl <= fwd_ttl {
        return Err(TraceReject::Anomalous);
    }
    let beyond = t.hops_beyond_target();
    if beyond.iter().any(|h| h.is_none()) {
        return Err(TraceReject::IncompleteBeyond);
    }
    let approach: Vec<Ipv4Addr> = t.hops_before_target().into_iter().flatten().collect();
    Ok(ForwarderPath {
        forwarder: t.target,
        resolver: dns.src,
        hop_count: dns.ttl - fwd_ttl,
        via: beyond.into_iter().flatten().collect(),
        approach,
    })
}

/// Sanitize a whole sweep, returning the surviving paths and statistics.
pub fn sanitize(traces: &[TraceResult]) -> (Vec<ForwarderPath>, SanitizeStats) {
    let mut stats = SanitizeStats::default();
    let mut paths = Vec::new();
    for t in traces {
        match check_trace(t) {
            Ok(p) => {
                stats.kept += 1;
                paths.push(p);
            }
            Err(TraceReject::NoForwarderSignature) => stats.rejected_no_signature += 1,
            Err(TraceReject::NoResolverAnswer) => stats.rejected_no_answer += 1,
            Err(TraceReject::IncompleteBeyond) => stats.rejected_incomplete += 1,
            Err(TraceReject::Anomalous) => stats.rejected_anomalous += 1,
        }
    }
    (paths, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::DnsEndpoint;
    use netsim::SimTime;

    fn ip(d: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, d)
    }

    fn good_trace() -> TraceResult {
        TraceResult {
            target: ip(99),
            hops: vec![Some(ip(1)), Some(ip(99)), Some(ip(2)), Some(ip(3))],
            target_seen_at: Some(2),
            dns: Some(DnsEndpoint {
                ttl: 5,
                src: Ipv4Addr::new(8, 8, 8, 8),
                at: SimTime(0),
            }),
        }
    }

    #[test]
    fn clean_trace_accepted() {
        let p = check_trace(&good_trace()).unwrap();
        assert_eq!(p.forwarder, ip(99));
        assert_eq!(p.resolver, Ipv4Addr::new(8, 8, 8, 8));
        assert_eq!(p.hop_count, 3);
        assert_eq!(p.via, vec![ip(2), ip(3)]);
        assert_eq!(p.approach, vec![ip(1)]);
    }

    #[test]
    fn missing_signature_rejected() {
        let mut t = good_trace();
        t.target_seen_at = None;
        assert_eq!(check_trace(&t), Err(TraceReject::NoForwarderSignature));
    }

    #[test]
    fn missing_answer_rejected() {
        let mut t = good_trace();
        t.dns = None;
        assert_eq!(check_trace(&t), Err(TraceReject::NoResolverAnswer));
    }

    #[test]
    fn anonymous_hop_beyond_rejected() {
        let mut t = good_trace();
        t.hops[2] = None; // anonymous hop between forwarder and resolver
        assert_eq!(check_trace(&t), Err(TraceReject::IncompleteBeyond));
    }

    #[test]
    fn anomalous_ttl_rejected() {
        let mut t = good_trace();
        t.dns = Some(DnsEndpoint {
            ttl: 2,
            src: Ipv4Addr::new(8, 8, 8, 8),
            at: SimTime(0),
        });
        assert_eq!(check_trace(&t), Err(TraceReject::Anomalous));
    }

    #[test]
    fn sanitize_tallies_causes() {
        let mut bad1 = good_trace();
        bad1.target_seen_at = None;
        let mut bad2 = good_trace();
        bad2.dns = None;
        let (paths, stats) = sanitize(&[good_trace(), bad1, bad2]);
        assert_eq!(paths.len(), 1);
        assert_eq!(stats.kept, 1);
        assert_eq!(stats.rejected_no_signature, 1);
        assert_eq!(stats.rejected_no_answer, 1);
        assert_eq!(stats.total(), 3);
    }

    #[test]
    fn anonymous_approach_hops_tolerated() {
        // Churn before the forwarder does not invalidate the
        // forwarder→resolver measurement.
        let mut t = good_trace();
        t.hops[0] = None;
        let p = check_trace(&t).unwrap();
        assert!(p.approach.is_empty());
        assert_eq!(p.hop_count, 3);
    }
}
