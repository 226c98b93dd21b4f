//! Consistency checks between a generated population and its calibration
//! targets — the generator's own quality control.

use crate::build::{GroundTruth, PlantedClass};
use crate::config::GenConfig;
use crate::countries::by_code;

/// One validation finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Deviation {
    /// What was checked.
    pub what: String,
    /// Target value (scaled).
    pub expected: f64,
    /// Observed value.
    pub observed: f64,
}

/// Compare planted counts against scaled calibration targets. Tolerance is
/// relative (e.g. `0.25` = ±25 %), floored at `min_abs` for small counts
/// where probabilistic rounding dominates.
pub fn check_marginals(
    truth: &GroundTruth,
    config: &GenConfig,
    tolerance: f64,
    min_abs: f64,
) -> Vec<Deviation> {
    let mut deviations = Vec::new();
    let scale = f64::from(config.scale);
    let mut check = |what: String, expected_full: f64, observed: f64| {
        let expected = expected_full / scale;
        let allowed = (expected * tolerance).max(min_abs);
        if (observed - expected).abs() > allowed {
            deviations.push(Deviation {
                what,
                expected,
                observed,
            });
        }
    };

    let by_country_t = truth.count_by_country(PlantedClass::TransparentForwarder);
    let by_country_r = truth.count_by_country(PlantedClass::RecursiveForwarder);
    for code in &truth.countries {
        let profile = by_code(code).expect("planted country is in the table");
        check(
            format!("{code} transparent"),
            f64::from(profile.transparent),
            *by_country_t.get(code).unwrap_or(&0) as f64,
        );
        check(
            format!("{code} recursive forwarders"),
            f64::from(profile.recursive_forwarders()),
            *by_country_r.get(code).unwrap_or(&0) as f64,
        );
    }

    let total_transparent: f64 = truth.count(PlantedClass::TransparentForwarder) as f64;
    let expected_transparent: f64 = truth
        .countries
        .iter()
        .map(|c| f64::from(by_code(c).expect("in table").transparent))
        .sum();
    check(
        "global transparent".to_string(),
        expected_transparent,
        total_transparent,
    );

    deviations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::generate;

    #[test]
    fn generated_population_matches_targets() {
        let config = GenConfig::test_small();
        let internet = generate(&config);
        let deviations = check_marginals(&internet.truth, &config, 0.35, 8.0);
        assert!(
            deviations.is_empty(),
            "population off target: {:#?}",
            deviations.iter().take(10).collect::<Vec<_>>()
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let config = GenConfig::test_small();
        let a = generate(&config);
        let b = generate(&config);
        assert_eq!(a.truth.hosts.len(), b.truth.hosts.len());
        assert_eq!(a.targets, b.targets);
        for (x, y) in a.truth.hosts.iter().zip(&b.truth.hosts) {
            assert_eq!(x.ip, y.ip);
            assert_eq!(x.class, y.class);
            assert_eq!(x.resolver_target, y.resolver_target);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&GenConfig::test_small());
        let b = generate(&GenConfig {
            seed: 7,
            ..GenConfig::test_small()
        });
        assert_ne!(a.targets, b.targets);
    }

    #[test]
    fn class_shares_roughly_match_table1() {
        let internet = generate(&GenConfig::test_small());
        let t = internet.truth.count(PlantedClass::TransparentForwarder) as f64;
        let r = internet.truth.count(PlantedClass::RecursiveForwarder) as f64;
        let v = internet.truth.count(PlantedClass::RecursiveResolver) as f64;
        let total = t + r + v;
        assert!(total > 500.0, "population too small: {total}");
        let t_share = t / total;
        let r_share = r / total;
        assert!(
            (0.20..0.33).contains(&t_share),
            "transparent share {t_share}"
        );
        assert!((0.62..0.80).contains(&r_share), "recursive share {r_share}");
    }

    #[test]
    fn geo_covers_all_planted_hosts() {
        let internet = generate(&GenConfig::test_small());
        let mut mapped = 0usize;
        for h in &internet.truth.hosts {
            if let Some(asn) = internet.geo.asn_of(h.ip) {
                assert_eq!(asn, h.asn, "geo must agree with ground truth for {}", h.ip);
                assert_eq!(internet.geo.country_of_asn(asn), Some(h.country));
                mapped += 1;
            }
        }
        let coverage = mapped as f64 / internet.truth.hosts.len() as f64;
        assert!(coverage > 0.99, "coverage {coverage} (paper: 99.9 %)");
        assert!(coverage < 1.0, "the 0.1 % Routeviews gap must exist");
    }

    /// A dud is silent by layout: no node owns it and no prefix maps it.
    #[test]
    fn targets_include_duds() {
        let config = GenConfig::test_small();
        let internet = generate(&config);
        let planted: std::collections::HashSet<_> =
            internet.truth.hosts.iter().map(|h| h.ip).collect();
        let duds: Vec<_> = internet
            .targets
            .iter()
            .filter(|t| !planted.contains(t))
            .collect();
        assert!(!duds.is_empty(), "dud targets must be mixed in");
        for dud in &duds {
            assert!(
                internet.sim.topology().owner_of_ip(**dud).is_none(),
                "{dud} has an owner"
            );
            assert_eq!(internet.geo.asn_of(**dud), None, "{dud} maps to an AS");
        }
        let hosts = &internet.truth.hosts;
        let planted_in = |c| hosts.iter().filter(|h| h.country == c).count() as f64;
        let expected: usize = internet
            .truth
            .countries
            .iter()
            .map(|c| (planted_in(*c) * config.dud_fraction).round() as usize)
            .sum();
        assert_eq!(duds.len(), expected, "round(P · dud_fraction) per country");
    }
}
