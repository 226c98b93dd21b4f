//! The sharded sensor experiment: the §3.1 controlled experiment (three
//! honeypot sensors probed by the three campaign emulations) driven over
//! shard worlds on the shared [`inetgen::run_sharded`] runner.
//!
//! The sensors are fixtures, replicated into every shard world; the
//! campaign passes probe them from the designated
//! [`crate::campaign_sweep::SENSOR_SHARD`] only, so the merged Table 3
//! [`DetectionMatrix`] and the summed [`SensorTotals`] (including the
//! 5-minute /24 limiter's shed counts) are invariant in the shard count —
//! with `K = 1` bit-identical to the unsharded deploy-sensors → three
//! epoch-spaced campaign passes composition. Every campaign node is
//! tapped, so the matrix is also reproducible from the captures alone
//! ([`SensorSweep::capture_matrix`]).

use crate::campaign_sweep::{
    install_sensors, merge_reports, run_campaign_passes, sensor_targets, CampaignPasses,
    DetectionMatrix, SensorTotals,
};
use crate::pcap_ingest::IngestError;
use inetgen::build::scanner_addrs::SensorAddrs;
use inetgen::Worlds;
use scanner::{Campaign, CampaignReport};

/// One campaign pass's capture, labelled with its campaign.
pub type CampaignCapture = (Campaign, Vec<u8>);

/// Everything the sharded sensor experiment produces.
#[derive(Debug)]
pub struct SensorSweep {
    /// Table 3: campaign × sensor detection matrix.
    pub matrix: DetectionMatrix,
    /// Merged per-campaign reports over the sensor probes.
    pub reports: Vec<(Campaign, CampaignReport)>,
    /// Merged sensor counters (queries, limiter sheds, relays).
    pub sensors: SensorTotals,
    /// Per-shard campaign captures, ascending shard order.
    pub captures: Vec<(u32, Vec<CampaignCapture>)>,
    /// The four observable sensor addresses.
    pub sensor_addrs: SensorAddrs,
}

impl SensorSweep {
    /// Rebuild the detection matrix from the captures alone: replay every
    /// campaign's processing rules over its tap and merge. Equals
    /// [`SensorSweep::matrix`].
    pub fn capture_matrix(&self) -> Result<DetectionMatrix, IngestError> {
        let merged = crate::campaign_sweep::replay_reports(
            self.captures
                .iter()
                .flat_map(|(_, shard_campaigns)| shard_campaigns)
                .map(|(campaign, pcap)| (*campaign, pcap.as_slice())),
        )?;
        Ok(DetectionMatrix::from_reports(&merged, self.sensor_addrs))
    }
}

/// Run the §3.1 controlled experiment sharded `shards` ways: every shard
/// world deploys the study stack and the three sensors; the designated
/// shard's campaign emulations probe the four sensor addresses (tapped,
/// epoch-spaced); reports, counters, and captures merge in deterministic
/// shard order. `worlds` is a `&GenConfig` or a `&mut ShardWorldCache`
/// ([`inetgen::Worlds`]), bit-identical either way.
pub fn run_sensors_sharded<'a>(worlds: impl Into<Worlds<'a>>, shards: u32) -> SensorSweep {
    let run = inetgen::run_sharded(worlds, shards, |spec, world| {
        install_sensors(world);
        let targets = sensor_targets(spec, world.fixtures.sensor_addrs);
        run_campaign_passes(world, &targets)
    });
    merge_campaign_passes(run.outputs)
}

/// Fold per-shard campaign passes (every shard of a partition, ascending)
/// into merged reports, the Table 3 matrix, summed sensor counters and
/// per-shard captures — the one merge the sensor experiment and the
/// campaign sweep share.
pub(crate) fn merge_campaign_passes(passes: Vec<CampaignPasses>) -> SensorSweep {
    let mut shard_reports = Vec::new();
    let mut sensors = SensorTotals::default();
    let mut captures = Vec::with_capacity(passes.len());
    let mut addrs = None;
    for (shard, pass) in (0u32..).zip(passes) {
        let mut shard_captures = Vec::with_capacity(pass.campaigns.len());
        for (campaign, report, capture) in pass.campaigns {
            shard_reports.push((campaign, report));
            shard_captures.push((campaign, capture));
        }
        sensors.absorb(&pass.sensors);
        captures.push((shard, shard_captures));
        addrs.get_or_insert(pass.addrs);
    }
    let reports = merge_reports(shard_reports);
    let sensor_addrs = addrs.expect("at least one shard");
    SensorSweep {
        matrix: DetectionMatrix::from_reports(&reports, sensor_addrs),
        reports,
        sensors,
        captures,
        sensor_addrs,
    }
}
