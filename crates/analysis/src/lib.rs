//! # analysis — post-processing and figure/table regeneration
//!
//! The paper's `dns-measurement-analysis` artifact, in Rust: ingest scan
//! transactions (from the scanner's records or straight from a pcap
//! capture), sanitize and classify them, enrich with Routeviews/MaxMind
//! style mappings, and regenerate every table and figure of the
//! evaluation:
//!
//! | Artifact | Module |
//! |---|---|
//! | Table 1 (composition) | [`report::table1`] |
//! | Table 3 (sensor detection) | [`run_campaign_sharded`] |
//! | Table 4 ("other" share) | [`table4_other_share`], [`report::table4`] |
//! | Table 5 (country ranks) | [`table5_ranking`], [`report::table5`] |
//! | Figure 3 (country CDF) | [`aggregate`], [`report::figure3`] |
//! | Figure 4 (top-50 stacked) | [`aggregate`], [`report::figure4`] |
//! | Figure 5 (project shares) | [`figure5_by_country`], [`report::figure5`] |
//! | Figure 6 (path lengths) | [`paths`], [`run_dnsroute_sharded`] |
//! | Figure 8 (/24 density) | [`density`], [`report::figure8`] |
//! | Appendix E (devices/ASes) | [`devices`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
mod attack_sweep;
mod campaign_sweep;
pub mod cdf;
pub mod census;
pub mod chart;
mod consolidation;
pub mod density;
pub mod devices;
mod dnsroute_sweep;
pub mod paths;
mod pcap_ingest;
mod ranking;
pub mod report;
mod resilience;
pub mod table;

pub use aggregate::{by_country, figure3_cumulative, rank_by_transparent, CountryStats};
pub use attack_sweep::{run_attacks_sharded, AmpCell, AttackMatrix, SensorEfficacy};
pub use campaign_sweep::{
    install_sensors, run_campaign_sharded, CampaignSweep, DetectionMatrix, SensorTotals,
    ShardCaptures, CAMPAIGN_EPOCH, SENSOR_SHARD,
};
pub use cdf::Cdf;
pub use census::{
    campaign_country_counts, diff, run_census, run_census_cached, run_census_sharded,
    run_shadowserver_census, Census, CensusDelta, CensusRow,
};
pub use consolidation::{
    figure5_by_country, table4_other_share, CountryConsolidation, OtherShareRow, ResolverSource,
};
pub use density::PrefixDensity;
pub use devices::{top_as_summary, vendor_summary, TopAsSummary, VendorSummary};
pub use dnsroute_sweep::{run_dnsroute_sharded, ShardedSweep};
pub use paths::{as_relationship_report, figure6_by_project, ProjectPaths};
pub use pcap_ingest::{
    campaign_report_from_pcap, census_from_captures, outcome_from_pcap, streams_from_pcap,
};
pub use ranking::{table5_ranking, RankingRow};
pub use resilience::{
    run_resilience_sweep, sweep_fault_plan, sweep_retry_policy, ResilienceCell, ResilienceMatrix,
};
pub use table::{pct, TextTable};
