//! The paper's evaluation, regenerated and gated, plus the shard-count
//! scaling sweeps.
//!
//! [`PAPER`] is the paper as a table: one row per table, figure and
//! design ablation, each rendering the artifact and checking its headline
//! values against the paper's; the `fidelitygate` binary runs it.
//! Absolute numbers differ from the paper (the substrate is a simulator,
//! scaled down); the *shape* — who wins, by what factor, where crossovers
//! fall — is what the rows' bands hold.
//!
//! The rest answers one perf question — does it scale with the shard
//! count: the [`SCALING`] table, [`run_scaling`] (the one writer of
//! `BENCH_simcore.json` / `BENCH_simcore_quick.json`) and the reader
//! `scaling_gate` compares two such files with. How fast, and where the
//! time went, is the repo benchmark's (`benchmark/`).

pub mod paper;
pub use paper::PAPER;

use inetgen::{CountrySelection, GenConfig, ShardWorldCache};
use scanner::{ClassifierConfig, OdnsClass};
use std::time::Instant;

/// The six headline countries with no dud targets; `scale` trades
/// population for time.
pub fn headline_config(scale: u32) -> GenConfig {
    GenConfig {
        countries: CountrySelection::Codes(vec!["BRA", "IND", "USA", "TUR", "ARG", "IDN"]),
        scale,
        dud_fraction: 0.0,
        ..GenConfig::default()
    }
}

/// Print a banner: what is reproduced or measured, and the paper's
/// reference for it.
pub fn banner(what: &str, paper: &str) {
    println!("\n================================================================");
    println!("Reproducing {what}");
    println!("Paper reference: {paper}");
    println!("================================================================");
}

/// The artifact a scaling run writes, at the workspace root: a full run
/// owns `BENCH_simcore.json`, a quick run `BENCH_simcore_quick.json` (CI's
/// baseline). Both are committed; neither run reads or touches the other's.
fn artifact_path(quick: bool) -> &'static str {
    if quick {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_simcore_quick.json"
        )
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_simcore.json")
    }
}

/// What one sweep of a scaling experiment hands back to the harness.
struct Sweep {
    /// Work units the sweep processed — the throughput numerator.
    units: u64,
    /// Values of the row's [`ScalingRow::summary`] fields, in order.
    summary: Vec<u64>,
    /// Results that must be equal for every shard count and every warm
    /// rerun — the engine's determinism contract, checked by the harness.
    invariant: Vec<u64>,
}

/// One row of the scaling table: everything that distinguishes one
/// sharded experiment's K-sweep from another's.
pub struct ScalingRow {
    /// Section key in the artifact.
    pub key: &'static str,
    /// Banner: what is swept, and which part of the paper it scales.
    banner: [&'static str; 2],
    /// Label of the swept world's country selection.
    world: &'static str,
    /// The swept world at a given scale denominator.
    config: fn(u32) -> GenConfig,
    /// Scale of the full run ([`QUICK_SCALE`] in quick mode).
    full_scale: u32,
    /// Warm sweeps averaged per shard count in a full run (quick: one).
    full_reps: u32,
    /// Fewest units a full run's K=1 sweep must process to be the
    /// headline it claims to be.
    full_min_units: u64,
    /// Name of each sweep row's throughput field (`*_per_second`).
    throughput: &'static str,
    /// Names of the section's K=1 summary fields.
    summary: &'static [&'static str],
    /// One sweep over the cache's worlds, `shards` ways.
    run: fn(&mut ShardWorldCache, u32) -> Sweep,
}

/// One measured shard count of a scaling sweep.
struct SweepPoint {
    /// Shard count `K`.
    shards: u32,
    /// Worker threads the shards ran on: `min(K, available_parallelism)`,
    /// the pool `inetgen::run_sharded` sizes. One worker means the row is
    /// a sequential measurement, whatever its K.
    workers: u32,
    /// Units per second of warm sweep.
    throughput: f64,
    /// Mean wall time of one warm sweep.
    warm_sweep_seconds: f64,
    /// Wall time of the first sweep, which generates the worlds.
    generate_seconds: f64,
}

/// Quick mode's world scale: ~200× fewer hosts than the full census, a
/// few hundred forwarders for the six headline countries — milliseconds
/// per K, for CI.
const QUICK_SCALE: u32 = 2_000;

/// The scaling table: the million-target census (full country table, four
/// unresponsive duds per planted host — the real census's hit rate is far
/// below 20 %), the §5 DNSRoute++ sweep over every transparent forwarder
/// its census finds, and the §3 campaign & sensor experiment (one
/// transactional scan plus three campaign passes per target).
pub const SCALING: [ScalingRow; 3] = [
    ScalingRow {
        key: "census",
        banner: [
            "census scaling — 1M+-target sharded census over warm shard worlds",
            "method of §4.1 at census scale (engine scaling, no paper artifact)",
        ],
        world: "full country table",
        config: |scale| GenConfig {
            scale,
            dud_fraction: 4.0,
            ..GenConfig::default()
        },
        full_scale: 10,
        full_reps: 2,
        full_min_units: 1_000_000,
        throughput: "probes_per_second",
        summary: &["targets", "odns_total", "transparent_forwarders"],
        run: |cache, shards| {
            let census = analysis::run_census_sharded(cache, shards, &ClassifierConfig::default());
            let targets = census.rows.len() as u64;
            let odns = census.odns_total() as u64;
            let transparent = census.count(OdnsClass::TransparentForwarder) as u64;
            Sweep {
                units: targets,
                summary: vec![targets, odns, transparent],
                invariant: vec![targets, odns, transparent],
            }
        },
    },
    ScalingRow {
        key: "dnsroute",
        banner: [
            "dnsroute scaling — the sharded parallel DNSRoute++ sweep",
            "method of §5 at full-coverage scale (engine scaling, no paper artifact)",
        ],
        world: "6 headline countries",
        config: headline_config,
        full_scale: 100,
        full_reps: 3,
        full_min_units: 1,
        throughput: "traces_per_second",
        summary: &["traced_forwarders", "sanitized_paths"],
        run: |cache, shards| {
            let sweep = analysis::run_dnsroute_sharded(cache, shards, &ClassifierConfig::default());
            let traced = sweep.traces.len() as u64;
            let kept = sweep.sanitized().1.kept as u64;
            Sweep {
                units: traced,
                summary: vec![traced, kept],
                invariant: vec![traced, kept],
            }
        },
    },
    ScalingRow {
        key: "campaign",
        banner: [
            "campaign scaling — the sharded campaign & sensor experiment engine",
            "§3 controlled experiment + Table 5 campaign counts at engine scale",
        ],
        world: "6 headline countries",
        config: headline_config,
        full_scale: 200,
        full_reps: 3,
        full_min_units: 1,
        throughput: "campaign_probes_per_second",
        summary: &[
            "campaign_probes",
            "shadowserver_components",
            "sensor_rate_limited",
        ],
        run: |cache, shards| {
            let sweep = analysis::run_campaign_sharded(cache, shards, &ClassifierConfig::default());
            assert_eq!(
                sweep.matrix,
                analysis::DetectionMatrix::paper_expected(),
                "K={shards}: Table 3 must hold"
            );
            // Probe volume: three campaign passes over every target (+ the
            // four sensor addresses in the designated shard).
            let probes = 3 * (sweep.census.rows.len() as u64 + 4);
            let counts = sweep.component_counts();
            let shed = sweep.sensors.rate_limited();
            Sweep {
                units: probes,
                summary: vec![probes, counts[0].1 as u64, shed],
                // Table 5 component counts and the sensors' shed total.
                invariant: counts
                    .iter()
                    .map(|(_, n)| *n as u64)
                    .chain([shed])
                    .collect(),
            }
        },
    },
];

impl ScalingRow {
    fn scale(&self, quick: bool) -> u32 {
        if quick {
            QUICK_SCALE
        } else {
            self.full_scale
        }
    }

    fn reps(&self, quick: bool) -> u32 {
        if quick {
            1
        } else {
            self.full_reps
        }
    }

    /// Sweep this row across shard counts over a warm
    /// [`ShardWorldCache`] and render its artifact section.
    ///
    /// Worlds generate once per shard count, in a first sweep that also
    /// warms route caches; the timed region is the warm sweep after it —
    /// reset worlds, scan, in-worker correlate + classify, merge — the
    /// unit that repeats in a longitudinal measurement series. The row's
    /// invariants are asserted equal across every K and every warm
    /// rerun, so each measured configuration does the same logical work.
    // Wall-clock is the measured quantity here (clippy.toml bans it elsewhere).
    #[allow(clippy::disallowed_methods)]
    fn sweep(&self, quick: bool, cores: u32) -> String {
        banner(self.banner[0], self.banner[1]);
        let config = (self.config)(self.scale(quick));
        let ks: &[u32] = if quick { &[1, 2] } else { &[1, 2, 4, 8] };
        let reps = self.reps(quick);
        let unit = self.throughput.trim_end_matches("_per_second");

        let mut baseline: Option<(Sweep, f64)> = None;
        let mut points = Vec::with_capacity(ks.len());
        for &k in ks {
            let mut cache = ShardWorldCache::new(config.clone());
            let t_gen = Instant::now();
            let first = (self.run)(&mut cache, k);
            let generate_seconds = t_gen.elapsed().as_secs_f64();

            let t0 = Instant::now();
            for _ in 0..reps {
                let warm = (self.run)(&mut cache, k);
                assert_eq!(warm.invariant, first.invariant, "warm K={k} sweep diverged");
            }
            let secs = t0.elapsed().as_secs_f64() / f64::from(reps);
            let throughput = first.units as f64 / secs;

            let versus = match &baseline {
                None => {
                    assert!(
                        quick || first.units >= self.full_min_units,
                        "headline sweep must process ≥{} {unit}, got {}",
                        self.full_min_units,
                        first.units
                    );
                    "[baseline]".to_string()
                }
                Some((base, base_secs)) => {
                    assert_eq!(
                        first.invariant, base.invariant,
                        "K={k} changed a K-invariant result"
                    );
                    format!("speedup ×{:.2}", base_secs / secs)
                }
            };
            let fields: Vec<String> = self
                .summary
                .iter()
                .zip(&first.summary)
                .map(|(name, value)| format!("{name} {value}"))
                .collect();
            let workers = k.min(cores);
            println!(
                "K={k} on {workers} worker(s): {}, warm sweep {secs:.3}s — {throughput:.0} {unit}/s (gen+first {generate_seconds:.2}s)  {versus}",
                fields.join(", ")
            );
            points.push(SweepPoint {
                shards: k,
                workers,
                throughput,
                warm_sweep_seconds: secs,
                generate_seconds,
            });
            baseline.get_or_insert((first, secs));
        }
        let (base, _) = baseline.expect("at least one K measured");
        self.section(quick, &base.summary, &points)
    }

    /// Render this row's artifact section — the one formatter behind
    /// every section of both artifacts, in the shape [`section_sweeps`],
    /// [`scaling_ratio`] and `scaling_gate` read.
    fn section(&self, quick: bool, summary: &[u64], points: &[SweepPoint]) -> String {
        let config = (self.config)(self.scale(quick));
        let mut out = format!(
            "{{\n    \"bench\": \"scaling/{}\",\n    \"timed_region\": \"warm sweep over cached shard worlds ({} reps)\",\n    \"world\": \"{}, scale {}",
            self.key,
            self.reps(quick),
            self.world,
            config.scale,
        );
        if config.dud_fraction > 0.0 {
            out.push_str(&format!(", dud_fraction {}", config.dud_fraction));
        }
        out.push('"');
        for (name, value) in self.summary.iter().zip(summary) {
            out.push_str(&format!(",\n    \"{name}\": {value}"));
        }
        out.push_str(",\n    \"sweeps\": [");
        for (i, p) in points.iter().enumerate() {
            out.push_str(if i == 0 { "\n      " } else { ",\n      " });
            out.push_str(&format!(
                "{{ \"shards\": {}, \"workers\": {}, \"{}\": {:.0}, \"warm_sweep_seconds\": {:.6}, \"generate_seconds\": {:.6} }}",
                p.shards, p.workers, self.throughput, p.throughput, p.warm_sweep_seconds, p.generate_seconds
            ));
        }
        out.push_str("\n    ]\n  }");
        out
    }
}

/// Run every row of [`SCALING`] and write the mode's whole artifact —
/// one run, one file, nothing read back. Returns the path written; a
/// failed write is the caller's error to exit on, or `scaling_gate` would
/// go on to compare the stale committed file with itself.
pub fn run_scaling(quick: bool) -> std::io::Result<&'static str> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get() as u32);
    println!("machine: {cores} worker thread(s) available");
    let sections: Vec<String> = SCALING.iter().map(|row| row.sweep(quick, cores)).collect();
    let path = artifact_path(quick);
    std::fs::write(path, render_artifact(quick, cores, &sections))
        .map_err(|e| std::io::Error::new(e.kind(), format!("{path}: {e}")))?;
    Ok(path)
}

/// One artifact: the run's mode and the machine's `available_parallelism`,
/// then one section per [`SCALING`] row under the row's key.
fn render_artifact(quick: bool, cores: u32, sections: &[String]) -> String {
    let mode = if quick { "quick" } else { "full" };
    let mut out = format!("{{\n  \"mode\": \"{mode}\",\n  \"available_parallelism\": {cores}");
    for (row, section) in SCALING.iter().zip(sections) {
        out.push_str(&format!(",\n  \"{}\": {section}", row.key));
    }
    out.push_str("\n}\n");
    out
}

/// The body of section `key` in an artifact this crate rendered: from the
/// section's opening brace to the one that balances it (no string in the
/// format holds a brace).
fn section_body<'a>(artifact: &'a str, key: &str) -> Option<&'a str> {
    let head = format!("\"{key}\": {{");
    let body = &artifact[artifact.find(&head)? + head.len()..];
    let mut depth = 1u32;
    for (i, c) in body.char_indices() {
        match c {
            '{' => depth += 1,
            '}' => depth -= 1,
            _ => {}
        }
        if depth == 0 {
            return Some(&body[..i]);
        }
    }
    None
}

/// The `"sweeps"` rows of an artifact's section `key`, as `(shards,
/// throughput)` pairs — throughput being each row's `*_per_second` field.
/// Empty when the section or its sweeps are missing; rows missing either
/// field are skipped.
pub fn section_sweeps(artifact: &str, key: &str) -> Vec<(u32, f64)> {
    let sweeps = section_body(artifact, key).and_then(|section| {
        let rest = &section[section.find("\"sweeps\"")?..];
        let open = rest.find('[')?;
        Some(&rest[open + 1..open + rest[open..].find(']')?])
    });
    let mut rows = Vec::new();
    for chunk in sweeps.unwrap_or("").split('{').skip(1) {
        let obj = chunk.split('}').next().unwrap_or("");
        let shards = obj
            .find("\"shards\"")
            .and_then(|j| number_after_colon(&obj[j..]));
        let throughput = obj
            .find("_per_second\"")
            .and_then(|j| number_after_colon(&obj[j..]));
        if let (Some(shards), Some(throughput)) = (shards, throughput) {
            rows.push((shards as u32, throughput));
        }
    }
    rows
}

/// The K-scaling ratio of an artifact's section `key`: max-K throughput
/// over min-K throughput. `None` unless the section exists and sweeps at
/// least two distinct shard counts with positive baseline throughput.
pub fn scaling_ratio(artifact: &str, key: &str) -> Option<f64> {
    let sweeps = section_sweeps(artifact, key);
    let min = sweeps.iter().min_by_key(|(k, _)| *k)?;
    let max = sweeps.iter().max_by_key(|(k, _)| *k)?;
    (max.0 > min.0 && min.1 > 0.0).then(|| max.1 / min.1)
}

fn number_after_colon(s: &str) -> Option<f64> {
    let rest = s[s.find(':')? + 1..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::{
        artifact_path, render_artifact, scaling_ratio, section_body, section_sweeps, SweepPoint,
        SCALING,
    };

    /// What every artifact holds, rendered a moment ago or committed:
    /// its mode, the machine's parallelism, and exactly the [`SCALING`]
    /// sections — each a curve `scaling_gate` can read, under the row's
    /// field names, with a worker count beside every throughput.
    fn assert_well_formed(artifact: &str, quick: bool) {
        let mode = if quick { "quick" } else { "full" };
        assert!(
            artifact.contains(&format!("\n  \"mode\": \"{mode}\"")),
            "{mode}"
        );
        assert!(
            artifact.contains("\n  \"available_parallelism\": "),
            "{mode}"
        );
        let keys: Vec<&str> = artifact
            .lines()
            .filter_map(|l| l.strip_prefix("  \"")?.strip_suffix("\": {"))
            .collect();
        assert_eq!(keys, SCALING.each_ref().map(|row| row.key), "{mode}");
        for row in &SCALING {
            let what = format!("{mode} {}", row.key);
            let sweeps = section_sweeps(artifact, row.key);
            assert!(sweeps.len() >= 2, "{what}: {sweeps:?}");
            assert!(sweeps.iter().all(|(_, t)| *t > 0.0), "{what}: {sweeps:?}");
            assert!(scaling_ratio(artifact, row.key).is_some(), "{what}");
            let section = section_body(artifact, row.key).unwrap();
            for name in row.summary {
                let field = format!("\"{name}\": ");
                assert!(section.contains(&field), "{what} lacks {name}");
            }
            for name in [row.throughput, "workers"] {
                let field = format!("\"{name}\": ");
                assert_eq!(
                    section.matches(&field).count(),
                    sweeps.len(),
                    "{what} {name}"
                );
            }
        }
    }

    /// The table cannot drift from the gate: every row's rendered section
    /// reads back through the crate's own readers, and passes the checks
    /// the committed artifacts are held to.
    #[test]
    fn scaling_table_sections_read_back_like_the_committed_ones() {
        let point = |shards, throughput| SweepPoint {
            shards,
            workers: shards.min(2),
            throughput,
            warm_sweep_seconds: 0.5,
            generate_seconds: 1.25,
        };
        let points = [point(1, 1000.0), point(2, 1250.0)];
        for quick in [false, true] {
            let sections: Vec<String> = SCALING
                .iter()
                .map(|row| {
                    let summary: Vec<u64> = (1..=row.summary.len() as u64).collect();
                    row.section(quick, &summary, &points)
                })
                .collect();
            let rendered = render_artifact(quick, 2, &sections);
            assert_well_formed(&rendered, quick);
            for row in &SCALING {
                assert_eq!(
                    section_sweeps(&rendered, row.key),
                    [(1, 1000.0), (2, 1250.0)]
                );
                assert!((scaling_ratio(&rendered, row.key).unwrap() - 1.25).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn both_committed_artifacts_hold_exactly_the_scaling_sections() {
        for quick in [false, true] {
            let committed = std::fs::read_to_string(artifact_path(quick)).unwrap();
            assert_well_formed(&committed, quick);
        }
    }

    #[test]
    fn sweep_rows_and_scaling_ratio_parse() {
        let artifact = "{\n  \"a\": { \"sweeps\": [\n  { \"shards\": 1, \"traces_per_second\": 1000, \"elapsed_seconds\": 1.5 },\n  { \"shards\": 8, \"traces_per_second\": 3500, \"elapsed_seconds\": 0.4 }\n] },\n  \"empty\": { \"sweeps\": [] },\n  \"bare\": { \"x\": { \"y\": 1 } },\n  \"one\": { \"sweeps\": [ { \"shards\": 2, \"x_per_second\": 5 } ] }\n}";
        assert_eq!(
            section_sweeps(artifact, "a"),
            vec![(1, 1000.0), (8, 3500.0)]
        );
        assert!((scaling_ratio(artifact, "a").unwrap() - 3.5).abs() < 1e-9);
        // Degenerate sections yield no ratio rather than a bogus one —
        // and never the next section's curve.
        assert_eq!(scaling_ratio(artifact, "empty"), None);
        assert_eq!(section_sweeps(artifact, "bare"), vec![]);
        assert_eq!(
            scaling_ratio(artifact, "one"),
            None,
            "one shard count is not a scaling curve"
        );
        assert_eq!(section_sweeps(artifact, "absent"), vec![]);
        assert_eq!(section_sweeps("{ \"a\": { \"sweeps\": [", "a"), vec![]);
    }
}
