//! Figure 6: path lengths from transparent forwarders to their resolvers,
//! grouped by resolver project, plus the §5 AS-relationship evaluation.

use crate::cdf::Cdf;
use dnsroute::{ForwarderPath, InferenceReport};
use inetgen::GeoDb;
use odns::ResolverProject;
use std::collections::{BTreeMap, BTreeSet};

/// Per-project path-length series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProjectPaths {
    /// The project.
    pub project: ResolverProject,
    /// Forwarder → resolver hop counts, sorted ascending: the series is a
    /// canonical distribution, independent of path enumeration order (a
    /// sharded sweep concatenates per-shard traces, so raw order would
    /// vary with the shard count while the distribution never does).
    pub hop_counts: Vec<u8>,
    /// Distinct forwarder ASNs covered.
    pub asn_count: usize,
}

impl ProjectPaths {
    /// Hop CDF.
    pub fn cdf(&self) -> Cdf {
        Cdf::from_samples(self.hop_counts.iter().map(|h| f64::from(*h)))
    }

    /// Mean hops (the paper: Cloudflare 6.3, Google 7.9, OpenDNS 9.3).
    pub fn mean_hops(&self) -> f64 {
        self.cdf().mean()
    }
}

/// Group sanitized paths by resolver project (paths to non-project
/// resolvers are returned under `None`).
pub fn figure6_by_project(
    paths: &[ForwarderPath],
    geo: &GeoDb,
) -> (Vec<ProjectPaths>, Vec<ForwarderPath>) {
    let mut grouped: BTreeMap<ResolverProject, (Vec<u8>, BTreeSet<u32>)> = BTreeMap::new();
    let mut other = Vec::new();
    for p in paths {
        match ResolverProject::from_service_ip(p.resolver) {
            Some(project) => {
                let entry = grouped.entry(project).or_default();
                entry.0.push(p.hop_count);
                if let Some(asn) = geo.asn_of(p.forwarder) {
                    entry.1.insert(asn);
                }
            }
            None => other.push(p.clone()),
        }
    }
    let mut out: Vec<ProjectPaths> = grouped
        .into_iter()
        .map(|(project, (mut hop_counts, asns))| {
            hop_counts.sort_unstable();
            ProjectPaths {
                project,
                hop_counts,
                asn_count: asns.len(),
            }
        })
        .collect();
    out.sort_by_key(|p| p.project);
    (out, other)
}

/// Run the §5 relationship inference over sanitized paths using the
/// Routeviews-style mapping, and split the result against a CAIDA-like
/// baseline: `known` pairs vs newly discovered ones.
pub fn as_relationship_report(
    paths: &[ForwarderPath],
    geo: &GeoDb,
    caida_known: &BTreeSet<(u32, u32)>,
) -> (InferenceReport, usize, usize) {
    let report = dnsroute::infer_relationships(paths, |ip| geo.asn_of(ip));
    let (known, new) = report.against_baseline(caida_known);
    (report, known.len(), new.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn path(resolver: Ipv4Addr, hops: u8, fwd_last_octet: u8) -> ForwarderPath {
        ForwarderPath {
            forwarder: Ipv4Addr::new(11, 0, 0, fwd_last_octet),
            resolver,
            hop_count: hops,
            via: vec![],
            approach: vec![],
        }
    }

    #[test]
    fn grouping_by_project() {
        let mut geo = GeoDb::default();
        geo.add_prefix24(Ipv4Addr::new(11, 0, 0, 0), 65001);
        let google = ResolverProject::Google.service_ip();
        let cf = ResolverProject::Cloudflare.service_ip();
        let local = Ipv4Addr::new(11, 9, 9, 9);
        let paths = vec![
            path(google, 8, 1),
            path(google, 6, 2),
            path(cf, 4, 3),
            path(local, 3, 4),
        ];
        let (projects, other) = figure6_by_project(&paths, &geo);
        assert_eq!(other.len(), 1);
        let google_paths = projects
            .iter()
            .find(|p| p.project == ResolverProject::Google)
            .unwrap();
        assert_eq!(google_paths.hop_counts.len(), 2);
        assert_eq!(google_paths.mean_hops(), 7.0);
        assert_eq!(google_paths.asn_count, 1);
        let cf_paths = projects
            .iter()
            .find(|p| p.project == ResolverProject::Cloudflare)
            .unwrap();
        assert_eq!(cf_paths.mean_hops(), 4.0);
    }

    #[test]
    fn relationship_report_with_baseline() {
        let mut geo = GeoDb::default();
        geo.add_prefix24(Ipv4Addr::new(11, 0, 0, 0), 65005); // forwarder AS
        geo.add_prefix24(Ipv4Addr::new(10, 0, 1, 0), 64611); // provider routers
        let p = ForwarderPath {
            forwarder: Ipv4Addr::new(11, 0, 0, 1),
            resolver: ResolverProject::Google.service_ip(),
            hop_count: 5,
            via: vec![Ipv4Addr::new(10, 0, 1, 2)],
            approach: vec![Ipv4Addr::new(10, 0, 1, 1)],
        };
        let mut known = BTreeSet::new();
        let (report, known_hits, new_pairs) =
            as_relationship_report(std::slice::from_ref(&p), &geo, &known);
        assert_eq!(report.matching_paths, 1);
        assert_eq!(
            (known_hits, new_pairs),
            (0, 1),
            "unknown to CAIDA: newly discovered"
        );
        known.insert((64611, 65005));
        let (_, known_hits, new_pairs) = as_relationship_report(&[p], &geo, &known);
        assert_eq!((known_hits, new_pairs), (1, 0));
    }
}
