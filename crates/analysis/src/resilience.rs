//! The resilience sweep: census recall under packet loss, with and
//! without scanner retransmission — the robustness companion to the
//! scaling benches.
//!
//! A single-packet census (the paper's method: one probe, one answer,
//! offline correlation) loses a target for every probe or answer the
//! network eats. The sweep quantifies that: for every `(loss rate, retry
//! budget)` grid point it injects a flow-keyed [`FaultPlan`] into each
//! shard world, runs the transactional scan with the matching
//! [`RetryPolicy`], and scores the merged census against the planted
//! ground truth.
//!
//! Cells store only integer counters and merge by summing, in
//! [`AttackMatrix`](crate::AttackMatrix) style — the matrix is `Eq` and
//! bit-identical however many shards ran. Recall, precision, and probe
//! overhead exist only in the renderer.
//!
//! Determinism: the fault plan is salted from the *generation* seed
//! before it reaches any simulator, and every shard world installs it as
//! given, so per-flow fault verdicts are invariant under the shard count.

use crate::census::Census;
use crate::table::TextTable;
use inetgen::{PlantedClass, ShardWorldCache};
use netsim::{FaultPlan, RetryPolicy, SimDuration};
use scanner::{ClassifierConfig, OdnsClass, ScanConfig};
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

/// One grid point of the sweep: what the scan spent and what it found at
/// a given loss rate and retry budget. Integer counters only — ratios
/// live in the renderer, keeping the cell `Eq` and the shard merge exact.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResilienceCell {
    /// Ground-truth transparent forwarders planted in the swept worlds.
    pub planted_transparent: u64,
    /// Census rows classified transparent whose target really is one.
    pub detected_true: u64,
    /// Census rows classified transparent whose target is *not* a planted
    /// transparent forwarder (must stay zero: loss may cost coverage but
    /// never fabricate a forwarder).
    pub false_positives: u64,
    /// First-attempt probes the scan sent.
    pub probes_sent: u64,
    /// Retransmissions the retry policy added on top.
    pub retransmits_sent: u64,
    /// Probes that got an answer within the correlation timeout.
    pub answered: u64,
}

impl ResilienceCell {
    /// Merge another shard's cell: counters sum.
    pub fn absorb(&mut self, other: &ResilienceCell) {
        self.planted_transparent += other.planted_transparent;
        self.detected_true += other.detected_true;
        self.false_positives += other.false_positives;
        self.probes_sent += other.probes_sent;
        self.retransmits_sent += other.retransmits_sent;
        self.answered += other.answered;
    }

    /// Detected transparent forwarders per planted one, in `[0, 1]`.
    /// Rendering only; never stored or compared.
    pub fn recall(&self) -> f64 {
        if self.planted_transparent == 0 {
            0.0
        } else {
            self.detected_true as f64 / self.planted_transparent as f64
        }
    }

    /// True detections per detection. Rendering only.
    fn precision(&self) -> f64 {
        let detections = self.detected_true + self.false_positives;
        if detections == 0 {
            1.0
        } else {
            self.detected_true as f64 / detections as f64
        }
    }

    /// Extra packets per first-attempt probe — what the retry budget cost
    /// on the wire. Rendering only.
    pub fn overhead(&self) -> f64 {
        if self.probes_sent == 0 {
            0.0
        } else {
            self.retransmits_sent as f64 / self.probes_sent as f64
        }
    }
}

/// The sweep result: per `(loss, retries)` cells keyed by loss rate in
/// permille (integer keys keep the map `Eq` and its order total) and
/// retransmission budget. Bit-identical for any shard count over the same
/// cache configuration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResilienceMatrix {
    /// `(loss_permille, retries) → cell`; `BTreeMap` so iteration, `Eq`,
    /// and the renderer are all deterministic.
    pub cells: BTreeMap<(u32, u8), ResilienceCell>,
}

impl ResilienceMatrix {
    /// The cell at one grid point, if it was swept.
    pub fn cell(&self, loss_permille: u32, retries: u8) -> Option<&ResilienceCell> {
        self.cells.get(&(loss_permille, retries))
    }

    /// Merge another matrix (e.g. from a second sweep): cells fold per
    /// grid key.
    pub fn absorb(&mut self, other: &ResilienceMatrix) {
        for (key, cell) in &other.cells {
            self.cells.entry(*key).or_default().absorb(cell);
        }
    }

    /// Render the recall/precision/overhead table.
    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new([
            "Loss",
            "Retries",
            "Planted",
            "Detected",
            "Recall",
            "Precision",
            "Overhead",
        ]);
        for ((loss, retries), cell) in &self.cells {
            t.row([
                format!("{:.1}%", *loss as f64 / 10.0),
                retries.to_string(),
                cell.planted_transparent.to_string(),
                cell.detected_true.to_string(),
                format!("{:.3}", cell.recall()),
                format!("{:.3}", cell.precision()),
                format!("{:.3}", cell.overhead()),
            ]);
        }
        t
    }
}

/// The retry policy a sweep grid point uses: `retries` retransmissions
/// with a 2 s initial RTO, exponential backoff, and a little deterministic
/// jitter to spread retransmission bursts.
pub fn sweep_retry_policy(retries: u8) -> RetryPolicy {
    RetryPolicy::retries(retries).with_jitter(SimDuration::from_millis(50))
}

/// The fault plan a sweep grid point injects: uniform loss at
/// `loss_permille / 1000` with proportionate duplication and corruption
/// (see [`FaultPlan::lossy`]), salted from `gen_seed` so verdicts are
/// partition-invariant.
pub fn sweep_fault_plan(loss_permille: u32, gen_seed: u64) -> FaultPlan {
    FaultPlan::lossy(f64::from(loss_permille) / 1000.0).salted(gen_seed)
}

/// Run the resilience sweep over warm shard worlds: every `(loss,
/// retries)` grid point scans the same `shards`-way partition under its
/// own fault plan and retry policy, and scores against ground truth.
///
/// Worlds generate once (first cache use) and reset-reuse for every grid
/// point after — the sweep pays `losses × retry_budgets` scans but one
/// generation. The result is invariant in `shards` and in cache warmth.
pub fn run_resilience_sweep(
    cache: &mut ShardWorldCache,
    shards: u32,
    losses_permille: &[u32],
    retry_budgets: &[u8],
) -> ResilienceMatrix {
    let gen_seed = cache.config().seed;
    let classifier = ClassifierConfig::default();
    let mut matrix = ResilienceMatrix::default();
    for &loss in losses_permille {
        for &retries in retry_budgets {
            let plan = sweep_fault_plan(loss, gen_seed);
            let retry = sweep_retry_policy(retries);
            let run = inetgen::run_sharded(&mut *cache, shards, |_, world| {
                world.sim.set_faults(plan.clone());
                let scan = ScanConfig::new(world.targets.clone()).with_retry(retry);
                let outcome = scanner::run_scan(&mut world.sim, world.fixtures.scanner, scan);
                let answered = outcome.answered_count() as u64;
                let probes_sent = outcome.transactions.len() as u64;
                let census =
                    Census::from_transactions(&outcome.transactions, &world.geo, &classifier);
                let planted: BTreeSet<Ipv4Addr> = world
                    .truth
                    .hosts
                    .iter()
                    .filter(|h| h.class == PlantedClass::TransparentForwarder)
                    .map(|h| h.ip)
                    .collect();
                let mut cell = ResilienceCell {
                    planted_transparent: planted.len() as u64,
                    probes_sent,
                    retransmits_sent: outcome.retry.retransmits_sent,
                    answered,
                    ..ResilienceCell::default()
                };
                for row in census.of_class(OdnsClass::TransparentForwarder) {
                    if planted.contains(&row.target) {
                        cell.detected_true += 1;
                    } else {
                        cell.false_positives += 1;
                    }
                }
                cell
            });
            let merged = matrix.cells.entry((loss, retries)).or_default();
            for cell in &run.outputs {
                merged.absorb(cell);
            }
        }
    }
    matrix
}

#[cfg(test)]
mod tests {
    use super::*;
    use inetgen::{CountrySelection, GenConfig};

    fn sweep_config(seed: u64) -> GenConfig {
        GenConfig {
            countries: CountrySelection::Codes(vec!["BRA", "TUR", "MUS"]),
            scale: 3_000,
            dud_fraction: 0.0,
            seed,
            ..GenConfig::default()
        }
    }

    #[test]
    fn cell_ratios_and_absorb() {
        let mut a = ResilienceCell {
            planted_transparent: 10,
            detected_true: 8,
            false_positives: 0,
            probes_sent: 100,
            retransmits_sent: 25,
            answered: 60,
        };
        let b = ResilienceCell {
            planted_transparent: 10,
            detected_true: 9,
            false_positives: 1,
            probes_sent: 100,
            retransmits_sent: 15,
            answered: 70,
        };
        a.absorb(&b);
        assert_eq!(a.planted_transparent, 20);
        assert_eq!(a.detected_true, 17);
        assert!((a.recall() - 0.85).abs() < 1e-12);
        assert!((a.precision() - 17.0 / 18.0).abs() < 1e-12);
        assert!((a.overhead() - 0.2).abs() < 1e-12);
        assert_eq!(ResilienceCell::default().recall(), 0.0);
        assert_eq!(ResilienceCell::default().precision(), 1.0);
    }

    #[test]
    fn retries_recover_recall_lost_to_faults() {
        let mut cache = ShardWorldCache::new(sweep_config(31));
        let matrix = run_resilience_sweep(&mut cache, 2, &[0, 100], &[0, 2]);

        let clean = matrix.cell(0, 0).unwrap();
        assert!(clean.planted_transparent > 0, "world plants forwarders");
        assert_eq!(
            clean.detected_true, clean.planted_transparent,
            "lossless recall is total"
        );
        assert_eq!(clean.retransmits_sent, 0, "no faults, no retransmits");

        let lossy = matrix.cell(100, 0).unwrap();
        let retried = matrix.cell(100, 2).unwrap();
        assert!(
            lossy.detected_true < lossy.planted_transparent,
            "10% loss costs recall without retries"
        );
        assert!(
            retried.detected_true > lossy.detected_true,
            "retries recover recall: {} vs {}",
            retried.detected_true,
            lossy.detected_true
        );
        assert!(retried.retransmits_sent > 0);
        // Loss never fabricates a forwarder, with or without retries.
        for cell in matrix.cells.values() {
            assert_eq!(cell.false_positives, 0, "precision holds under loss");
        }
    }

    #[test]
    fn matrix_is_shard_count_invariant_and_warm_stable() {
        let losses = [50u32];
        let budgets = [1u8];
        let mut solo = ShardWorldCache::new(sweep_config(33));
        let baseline = run_resilience_sweep(&mut solo, 1, &losses, &budgets);
        for k in [2u32, 8] {
            let mut cache = ShardWorldCache::new(sweep_config(33));
            let cold = run_resilience_sweep(&mut cache, k, &losses, &budgets);
            assert_eq!(baseline, cold, "matrix diverged at K={k}");
            let warm = run_resilience_sweep(&mut cache, k, &losses, &budgets);
            assert_eq!(cold, warm, "warm rerun diverged at K={k}");
        }
    }

    #[test]
    fn render_includes_every_grid_point() {
        let mut m = ResilienceMatrix::default();
        m.cells.insert(
            (50, 2),
            ResilienceCell {
                planted_transparent: 100,
                detected_true: 97,
                probes_sent: 1000,
                retransmits_sent: 120,
                answered: 800,
                ..ResilienceCell::default()
            },
        );
        let rendered = m.render().render();
        assert!(rendered.contains("5.0%"));
        assert!(rendered.contains("0.970"));
        assert!(rendered.contains("0.120"));
    }
}
