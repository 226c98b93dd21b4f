//! Figure 8: transparent forwarders per covering /24 prefix.
//!
//! "We map each transparent forwarder to a (non-overlapping) covering /24
//! IP prefix and count the number of forwarders per prefix" — sparse
//! prefixes indicate individual CPE customers, fully-populated prefixes a
//! single middlebox serving the whole network.

use crate::cdf::Cdf;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// The density distribution.
#[derive(Debug, Clone, Default)]
pub struct PrefixDensity {
    /// Forwarder count per /24, prefix-sorted (keyed by the prefix base
    /// address) so iterating it feeds report surfaces in a fixed order.
    pub per_prefix: BTreeMap<u32, usize>,
}

/// The sparse/full thresholds used in Appendix E.
pub const SPARSE_MAX: usize = 25;
/// A /24 is "completely populated" at this count.
pub const FULL_MIN: usize = 254;

impl PrefixDensity {
    /// Build from transparent-forwarder addresses.
    pub fn from_ips<I: IntoIterator<Item = Ipv4Addr>>(ips: I) -> Self {
        // Sorted, a prefix's forwarders form one run, and a map built from
        // sorted keys is built in one pass.
        let mut prefixes: Vec<u32> = (ips.into_iter())
            .map(|ip| u32::from(ip) & 0xFFFF_FF00)
            .collect();
        prefixes.sort_unstable();
        let per_prefix = (prefixes.chunk_by(|a, b| a == b))
            .map(|run| (run[0], run.len()))
            .collect();
        PrefixDensity { per_prefix }
    }

    /// Number of distinct /24 prefixes.
    pub fn prefix_count(&self) -> usize {
        self.per_prefix.len()
    }

    /// Total forwarders.
    pub fn total(&self) -> usize {
        self.per_prefix.values().sum()
    }

    /// Share of forwarders (by address, not by prefix) in prefixes with at
    /// most `max` forwarders.
    pub fn share_in_density_at_most(&self, max: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let in_range: usize = self.per_prefix.values().filter(|c| **c <= max).sum();
        in_range as f64 / total as f64
    }

    /// Share of forwarders in prefixes with at least `min` forwarders.
    pub fn share_in_density_at_least(&self, min: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let in_range: usize = self.per_prefix.values().filter(|c| **c >= min).sum();
        in_range as f64 / total as f64
    }

    /// Number of completely populated prefixes (the paper finds 806).
    pub fn full_prefixes(&self) -> usize {
        self.per_prefix.values().filter(|c| **c >= FULL_MIN).count()
    }

    /// Figure 8's CDF: x = prefix density, weighted per forwarder (1 on
    /// the y-axis ≙ all transparent forwarders).
    pub fn cdf(&self) -> Cdf {
        let samples = self
            .per_prefix
            .values()
            .flat_map(|&c| std::iter::repeat_n(c as f64, c))
            .collect::<Vec<_>>();
        Cdf::from_samples(samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ips_with_density(prefix_octet: u8, count: usize) -> Vec<Ipv4Addr> {
        (0..count)
            .map(|i| Ipv4Addr::new(11, 1, prefix_octet, (i + 1) as u8))
            .collect()
    }

    #[test]
    fn density_counting() {
        let mut ips = ips_with_density(1, 5);
        ips.extend(ips_with_density(2, 254));
        let d = PrefixDensity::from_ips(ips);
        assert_eq!(d.prefix_count(), 2);
        assert_eq!(d.total(), 259);
        assert_eq!(d.full_prefixes(), 1);
        let sparse_share = d.share_in_density_at_most(SPARSE_MAX);
        assert!((sparse_share - 5.0 / 259.0).abs() < 1e-9);
        let full_share = d.share_in_density_at_least(FULL_MIN);
        assert!((full_share - 254.0 / 259.0).abs() < 1e-9);
    }

    #[test]
    fn cdf_weighted_per_forwarder() {
        // 10 forwarders at density 10, 1 at density 1 → F(1) = 1/11.
        let mut ips = ips_with_density(1, 10);
        ips.push(Ipv4Addr::new(11, 1, 9, 1));
        let cdf = PrefixDensity::from_ips(ips).cdf();
        assert_eq!(cdf.len(), 11);
        assert!((cdf.at(1.0) - 1.0 / 11.0).abs() < 1e-9);
        assert!((cdf.at(10.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_is_safe() {
        let d = PrefixDensity::from_ips(std::iter::empty());
        assert_eq!(d.total(), 0);
        assert_eq!(d.share_in_density_at_most(25), 0.0);
        assert_eq!(d.full_prefixes(), 0);
    }

    #[test]
    fn different_prefixes_do_not_merge() {
        let ips = vec![Ipv4Addr::new(11, 1, 1, 1), Ipv4Addr::new(11, 1, 2, 1)];
        let d = PrefixDensity::from_ips(ips);
        assert_eq!(d.prefix_count(), 2);
        assert_eq!(d.share_in_density_at_most(1), 1.0);
    }
}
