//! # scanner — measurement tooling for the transparent-forwarders study
//!
//! Four instruments, mirroring the paper's artifact layout:
//!
//! * [`TransactionalScanner`] (`dns-scan-server` in the artifacts) — the
//!   paper's method: unique `(port, TXID)` per probe, full transaction
//!   recording, offline correlation with a 20 s timeout, classification
//!   into the three ODNS component classes (§4.1);
//! * [`CampaignScanner`] — emulations of Shadowserver, Censys, and Shodan
//!   with their observable response-processing behaviours (§3);
//! * [`HoneypotSensor`] (`dns-honeypot-sensors`) — the three sensors of
//!   the controlled experiment (§3.1);
//! * [`FingerprintScanner`] — Shodan-style banner grabbing for the device
//!   attribution of Appendix E;
//! * [`ReflectionAttacker`] / [`VictimMeter`] — the §6 misuse model:
//!   spoofed-source reflection campaigns with per-plan victim attribution,
//!   feeding the analysis crate's amplification matrix.
//!
//! The classification rules live in [`mod@classify`] and are shared with the
//! analysis crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attacks;
pub mod campaigns;
pub mod classify;
pub mod fingerprint;
mod pacer;
pub mod records;
pub mod sensors;
pub mod transactional;

pub use attacks::{
    run_reflections, AttackSpend, AttackVector, ReflectionAttacker, ReflectionPlan, VictimMeter,
    VictimTally,
};
pub use campaigns::{
    replay_campaign, run_campaign, run_campaign_delayed, Campaign, CampaignConfig, CampaignReport,
    CampaignScanner,
};
pub use classify::{classify, ClassifierConfig, Discard, OdnsClass, Verdict};
pub use fingerprint::{attribute_vendor, run_fingerprint_scan, FingerprintScanner, HostEvidence};
pub use records::{ProbeRecord, ResponseRecord, RetryStats, ScanOutcome, Transaction};
pub use sensors::{HoneypotSensor, SensorKind, SensorStats};
pub use transactional::{
    correlate_owned, run_scan, run_scan_raw, ProbeNaming, ScanConfig, TransactionalScanner,
    TupleScheme,
};
