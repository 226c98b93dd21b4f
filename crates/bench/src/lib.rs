//! The paper's evaluation, regenerated and gated, plus the perf harness.
//!
//! [`PAPER`] is the paper as a table: one row per table, figure and
//! design ablation, each rendering the artifact and checking its headline
//! values against the paper's; the `fidelitygate` binary runs it.
//! Absolute numbers differ from the paper (the substrate is a simulator,
//! scaled down); the *shape* — who wins, by what factor, where crossovers
//! fall — is what the rows' bands hold.
//!
//! The rest is the `BENCH_simcore.json` harness: the [`SCALING`] table,
//! the section merger/readers `scaling_gate` uses, and `faultgate`.

pub mod paper;
pub use paper::PAPER;

use inetgen::{CountrySelection, GenConfig, Internet, ShardWorldCache};
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

/// A tiny world for hot-loop measurement: 13 targets, so repeated scans
/// measure the warm engine rather than the population.
pub fn tiny_world() -> Internet {
    inetgen::generate(&GenConfig {
        countries: CountrySelection::Codes(vec!["MUS", "FSM"]),
        scale: 1_000,
        dud_fraction: 0.0,
        ..GenConfig::default()
    })
}

/// Print a banner: what is reproduced or measured, and the paper's
/// reference for it.
pub fn banner(what: &str, paper: &str) {
    println!("\n================================================================");
    println!("Reproducing {what}");
    println!("Paper reference: {paper}");
    println!("================================================================");
}

/// Path of the shared perf artifact: `BENCH_simcore.json` at the
/// workspace root, overridable via `BENCH_SIMCORE_OUT`.
pub fn bench_artifact_path() -> String {
    // detlint::allow(env-dependent): the artifact path is harness
    // plumbing (where results land), not measured behaviour.
    std::env::var("BENCH_SIMCORE_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_simcore.json").into())
}

/// Whether quick mode is requested (`BENCH_QUICK=1`). The single
/// sanctioned env read for mode switching: quick mode trims iteration
/// counts and world sizes, never results — sections it produces are
/// tagged `"mode": "quick"` and kept apart from full-scale measurements
/// by [`merge_bench_section`].
pub fn quick_mode() -> bool {
    // detlint::allow(env-dependent): harness mode switch, not measured
    // behaviour; quick sections never overwrite full ones.
    std::env::var_os("BENCH_QUICK").is_some()
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
    /// Section key in `BENCH_simcore.json` (quick runs land at
    /// `<key>_quick` beside a committed full section).
    key: &'static str,
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
            // Target counts may differ by a handful of duds across K
            // (per-shard flooring); classification counts may not.
            let targets = census.rows.len() as u64;
            let odns = census.odns_total() as u64;
            let transparent = census.count(OdnsClass::TransparentForwarder) as u64;
            Sweep {
                units: targets,
                summary: vec![targets, odns, transparent],
                invariant: vec![odns, transparent],
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
    /// [`ShardWorldCache`] and merge its section into the perf artifact.
    ///
    /// Worlds generate once per shard count, in a first sweep that also
    /// warms route caches; the timed region is the warm sweep after it —
    /// reset worlds, scan, in-worker correlate + classify, merge — the
    /// unit that repeats in a longitudinal measurement series. The row's
    /// invariants are asserted equal across every K and every warm
    /// rerun, so each measured configuration does the same logical work.
    // Wall-clock is the measured quantity here (clippy.toml bans it elsewhere).
    #[allow(clippy::disallowed_methods)]
    pub fn sweep(&self, quick: bool) {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        banner(self.banner[0], self.banner[1]);
        println!("machine: {cores} worker thread(s) available\n");

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
            println!(
                "K={k}: {}, warm sweep {secs:.3}s — {throughput:.0} {unit}/s (gen+first {generate_seconds:.2}s)  {versus}",
                fields.join(", ")
            );
            points.push(SweepPoint {
                shards: k,
                throughput,
                warm_sweep_seconds: secs,
                generate_seconds,
            });
            baseline.get_or_insert((first, secs));
        }
        let (base, _) = baseline.expect("at least one K measured");

        let section = self.section(quick, &base.summary, &points);
        match merge_bench_section(self.key, &section) {
            Ok(path) => println!("\n{0}: wrote section \"{0}\" to {path}", self.key),
            Err(e) => eprintln!("{}: could not write artifact: {e}", self.key),
        }
    }

    /// Render this row's artifact section — the one formatter behind all
    /// three `BENCH_simcore.json` scaling sections, in the shape
    /// [`section_sweeps`], [`scaling_ratio`] and `scaling_gate` read.
    fn section(&self, quick: bool, summary: &[u64], points: &[SweepPoint]) -> String {
        let config = (self.config)(self.scale(quick));
        let mut out = format!(
            "{{\n    \"bench\": \"scaling/{}\",\n    \"mode\": \"{}\",\n    \"timed_region\": \"warm sweep over cached shard worlds ({} reps)\",\n    \"world\": \"{}, scale {}",
            self.key,
            if quick { "quick" } else { "full" },
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
                "{{ \"shards\": {}, \"{}\": {:.0}, \"warm_sweep_seconds\": {:.6}, \"generate_seconds\": {:.6} }}",
                p.shards, self.throughput, p.throughput, p.warm_sweep_seconds, p.generate_seconds
            ));
        }
        out.push_str("\n    ]\n  }");
        out
    }
}

/// Merge one named section into the shared perf artifact.
///
/// The artifact is a flat JSON object of per-bench sections (plus a
/// `schema` tag). Each bench owns one key and rewrites only its own
/// section, so the `hotpath` and `dnsroute` measurements can run in any
/// order — or alone — and the uploaded artifact always carries every
/// section that has been produced. Returns the path written.
///
/// Sections are mode-aware: a `"mode": "quick"` section never overwrites
/// an existing `"mode": "full"` section at the same key. It lands beside
/// it, at `<key>_quick` — so a CI quick run can refresh its own data
/// point every push without ever clobbering the committed full-scale
/// measurement it is compared against.
pub fn merge_bench_section(key: &str, section_json: &str) -> std::io::Result<String> {
    let path = bench_artifact_path();
    merge_bench_section_at(&path, key, section_json)?;
    Ok(path)
}

/// [`merge_bench_section`] against an explicit artifact path (the public
/// entry point resolves the path from `BENCH_SIMCORE_OUT`).
pub fn merge_bench_section_at(path: &str, key: &str, section_json: &str) -> std::io::Result<()> {
    let mut sections = std::fs::read_to_string(path)
        .ok()
        .and_then(|s| parse_sections(&s))
        .unwrap_or_default();
    let existing_mode = sections
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| section_mode(v));
    let target_key = match (section_mode(section_json), existing_mode) {
        // Quick must not clobber full: land beside it instead.
        (Some("quick"), Some("full")) => format!("{key}_quick"),
        _ => key.to_string(),
    };
    match sections.iter_mut().find(|(k, _)| *k == target_key) {
        Some((_, v)) => *v = section_json.to_string(),
        None => sections.push((target_key, section_json.to_string())),
    }
    let mut out = String::from("{\n  \"schema\": 2");
    for (k, v) in &sections {
        out.push_str(",\n  \"");
        out.push_str(k);
        out.push_str("\": ");
        out.push_str(v.trim());
    }
    out.push_str("\n}\n");
    std::fs::write(path, out)
}

/// The `"mode"` tag of a section, if it carries one. Sections are this
/// crate's own output format, so a targeted scan is exact: the key
/// appears once, as `"mode": "<value>"`.
fn section_mode(section: &str) -> Option<&str> {
    let rest = &section[section.find("\"mode\"")? + "\"mode\"".len()..];
    let rest = rest.trim_start().strip_prefix(':')?;
    let rest = rest.trim_start().strip_prefix('"')?;
    Some(&rest[..rest.find('"')?])
}

/// The `"sweeps"` rows of a scaling section, as `(shards, throughput)`
/// pairs — throughput being each row's first `*_per_second` field. Rows
/// missing either field are skipped.
pub fn section_sweeps(section: &str) -> Vec<(u32, f64)> {
    let mut rows = Vec::new();
    let Some(i) = section.find("\"sweeps\"") else {
        return rows;
    };
    let rest = &section[i..];
    let Some(open) = rest.find('[') else {
        return rows;
    };
    let Some(close) = rest[open..].find(']') else {
        return rows;
    };
    for chunk in rest[open + 1..open + close].split('{').skip(1) {
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

/// A scaling section's K-scaling ratio: max-K throughput over min-K
/// throughput. `None` unless the section sweeps at least two distinct
/// shard counts with positive baseline throughput.
pub fn scaling_ratio(section: &str) -> Option<f64> {
    let sweeps = section_sweeps(section);
    let min = sweeps.iter().min_by_key(|(k, _)| *k)?;
    let max = sweeps.iter().max_by_key(|(k, _)| *k)?;
    (max.0 > min.0 && min.1 > 0.0).then(|| max.1 / min.1)
}

/// The steady-state throughput of a hotpath section: the
/// `"probes_per_second"` field inside its `"steady"` object. `None` for
/// sections without a steady block (e.g. scaling sweeps).
pub fn hotpath_steady_probes_per_sec(section: &str) -> Option<f64> {
    let rest = &section[section.find("\"steady\"")?..];
    let j = rest.find("\"probes_per_second\"")?;
    number_after_colon(&rest[j..])
}

fn number_after_colon(s: &str) -> Option<f64> {
    let rest = s[s.find(':')? + 1..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Minimal parser for the artifact's own output format: a top-level JSON
/// object tagged `"schema": 2` with string keys and balanced-brace
/// values. Anything unexpected — malformed input *or* the flat schema-1
/// format, whose top-level keys are measurements rather than sections —
/// yields `None` and the caller starts a fresh artifact. Public so the
/// `scaling_gate` binary can compare a fresh artifact against a baseline.
pub fn parse_sections(s: &str) -> Option<Vec<(String, String)>> {
    let b = s.as_bytes();
    let mut i = 0usize;
    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && b[*i].is_ascii_whitespace() {
            *i += 1;
        }
    }
    skip_ws(b, &mut i);
    if i >= b.len() || b[i] != b'{' {
        return None;
    }
    i += 1;
    let mut schema_2 = false;
    let mut sections = Vec::new();
    loop {
        skip_ws(b, &mut i);
        if i < b.len() && b[i] == b'}' {
            return schema_2.then_some(sections);
        }
        if i >= b.len() || b[i] != b'"' {
            return None;
        }
        i += 1;
        let key_start = i;
        while i < b.len() && b[i] != b'"' {
            i += 1;
        }
        if i >= b.len() {
            return None;
        }
        let key = s[key_start..i].to_string();
        i += 1;
        skip_ws(b, &mut i);
        if i >= b.len() || b[i] != b':' {
            return None;
        }
        i += 1;
        skip_ws(b, &mut i);
        let value_start = i;
        let mut depth = 0i32;
        let mut in_str = false;
        let mut escaped = false;
        while i < b.len() {
            let c = b[i];
            if in_str {
                if escaped {
                    escaped = false;
                } else if c == b'\\' {
                    escaped = true;
                } else if c == b'"' {
                    in_str = false;
                }
            } else if c == b'"' {
                in_str = true;
            } else if c == b'{' || c == b'[' {
                depth += 1;
            } else if c == b'}' || c == b']' {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            } else if c == b',' && depth == 0 {
                break;
            }
            i += 1;
        }
        if i >= b.len() {
            return None;
        }
        let value = s[value_start..i].trim().to_string();
        // `schema` is regenerated on every write, not a section — but it
        // must identify the sectioned format, or the old flat schema-1
        // keys would leak into the rewritten artifact as bogus sections.
        if key == "schema" {
            schema_2 = value == "2";
        } else {
            sections.push((key, value));
        }
        if b[i] == b',' {
            i += 1;
            continue;
        }
        // b[i] == b'}' closes the object.
        return schema_2.then_some(sections);
    }
}

#[cfg(test)]
mod tests {
    use super::{
        merge_bench_section_at, parse_sections, scaling_ratio, section_mode, section_sweeps,
        SweepPoint, SCALING,
    };

    fn artifact_keys(path: &str) -> Vec<String> {
        let doc = std::fs::read_to_string(path).unwrap();
        parse_sections(&doc)
            .expect("artifact parses")
            .into_iter()
            .map(|(k, _)| k)
            .collect()
    }

    fn section_of<'a>(sections: &'a [(String, String)], key: &str) -> &'a str {
        &sections.iter().find(|(k, _)| k == key).unwrap().1
    }

    #[test]
    fn quick_lands_beside_full_never_on_top_of_it() {
        let dir = std::env::temp_dir().join("bench_mode_merge_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.json");
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);

        let full = "{ \"bench\": \"x\", \"mode\": \"full\", \"sweeps\": [] }";
        let quick = "{ \"bench\": \"x\", \"mode\": \"quick\", \"sweeps\": [] }";
        let quick2 = "{ \"bench\": \"x\", \"mode\": \"quick\", \"n\": 2 }";

        // A quick section with no full predecessor owns the base key…
        merge_bench_section_at(path, "dnsroute", quick).unwrap();
        assert_eq!(artifact_keys(path), ["dnsroute"]);
        // …and a full run overwrites it there.
        merge_bench_section_at(path, "dnsroute", full).unwrap();
        let doc = std::fs::read_to_string(path).unwrap();
        let sections = parse_sections(&doc).unwrap();
        assert_eq!(
            section_mode(section_of(&sections, "dnsroute")),
            Some("full")
        );

        // Quick after full: the full section survives untouched, the
        // quick data point lands at `<key>_quick`.
        merge_bench_section_at(path, "dnsroute", quick).unwrap();
        let doc = std::fs::read_to_string(path).unwrap();
        let sections = parse_sections(&doc).unwrap();
        assert_eq!(
            section_mode(section_of(&sections, "dnsroute")),
            Some("full")
        );
        assert_eq!(
            section_mode(section_of(&sections, "dnsroute_quick")),
            Some("quick")
        );

        // Repeated quick runs refresh `<key>_quick` in place.
        merge_bench_section_at(path, "dnsroute", quick2).unwrap();
        let doc = std::fs::read_to_string(path).unwrap();
        let sections = parse_sections(&doc).unwrap();
        assert_eq!(artifact_keys(path), ["dnsroute", "dnsroute_quick"]);
        assert!(section_of(&sections, "dnsroute_quick").contains("\"n\": 2"));
        let _ = std::fs::remove_file(path);
    }

    /// The table cannot drift from the gate: every row's rendered section
    /// reads back through the crate's own readers, under the key and with
    /// the field names of the committed artifact's section.
    #[test]
    fn scaling_table_sections_read_back_like_the_committed_ones() {
        let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_simcore.json");
        let committed = std::fs::read_to_string(committed).unwrap();
        let committed = parse_sections(&committed).expect("committed artifact parses");

        let dir = std::env::temp_dir().join("bench_scaling_table_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.json");
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);

        let point = |shards, throughput| SweepPoint {
            shards,
            throughput,
            warm_sweep_seconds: 0.5,
            generate_seconds: 1.25,
        };
        let points = [point(1, 1000.0), point(2, 1250.0)];
        for row in &SCALING {
            let summary: Vec<u64> = (1..=row.summary.len() as u64).collect();
            // Full first, so the quick section lands beside it.
            for (quick, mode, key) in [
                (false, "full", row.key.to_string()),
                (true, "quick", format!("{}_quick", row.key)),
            ] {
                merge_bench_section_at(path, row.key, &row.section(quick, &summary, &points))
                    .unwrap();
                let doc = std::fs::read_to_string(path).unwrap();
                let sections = parse_sections(&doc).expect("rendered artifact parses");
                let section = section_of(&sections, &key);
                assert_eq!(section_mode(section), Some(mode), "{key}");
                assert_eq!(section_sweeps(section), [(1, 1000.0), (2, 1250.0)]);
                assert!((scaling_ratio(section).unwrap() - 1.25).abs() < 1e-9);
                let reference = section_of(&committed, &key);
                for name in [row.throughput].iter().chain(row.summary) {
                    let field = format!("\"{name}\": ");
                    assert!(section.contains(&field), "{key} lacks {name}");
                    assert!(reference.contains(&field), "committed {key} lacks {name}");
                }
            }
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn sweep_rows_and_scaling_ratio_parse() {
        let section = "{ \"mode\": \"full\", \"sweeps\": [\n  { \"shards\": 1, \"traces_per_second\": 1000, \"elapsed_seconds\": 1.5 },\n  { \"shards\": 8, \"traces_per_second\": 3500, \"elapsed_seconds\": 0.4 }\n] }";
        assert_eq!(section_sweeps(section), vec![(1, 1000.0), (8, 3500.0)]);
        assert!((scaling_ratio(section).unwrap() - 3.5).abs() < 1e-9);
        assert_eq!(section_mode(section), Some("full"));
        // Degenerate sections yield no ratio rather than a bogus one.
        assert_eq!(scaling_ratio("{ \"sweeps\": [] }"), None);
        assert_eq!(
            scaling_ratio("{ \"sweeps\": [ { \"shards\": 2, \"x_per_second\": 5 } ] }"),
            None,
            "one shard count is not a scaling curve"
        );
    }

    #[test]
    fn hotpath_steady_throughput_parses() {
        use super::hotpath_steady_probes_per_sec;
        let section = "{ \"mode\": \"full\", \"answered_probes\": 26000, \"steady\": { \"probes_per_second\": 1345946, \"events_per_second\": 3830769 } }";
        assert!((hotpath_steady_probes_per_sec(section).unwrap() - 1_345_946.0).abs() < 1e-9);
        // No steady block, or a steady block without the field: no number.
        assert_eq!(hotpath_steady_probes_per_sec("{ \"sweeps\": [] }"), None);
        assert_eq!(
            hotpath_steady_probes_per_sec("{ \"steady\": { \"events_per_second\": 5 } }"),
            None
        );
    }

    #[test]
    fn sections_roundtrip() {
        let doc = "{\n  \"schema\": 2,\n  \"hotpath\": {\n    \"probes_per_second\": 1000,\n    \"nested\": { \"a\": [1, 2, 3], \"s\": \"b}r{ace\" }\n  },\n  \"dnsroute\": { \"traces_per_second\": 42.5 }\n}\n";
        let sections = parse_sections(doc).expect("parses");
        assert_eq!(sections.len(), 2, "schema dropped: {sections:?}");
        assert_eq!(sections[0].0, "hotpath");
        assert!(sections[0].1.contains("\"probes_per_second\": 1000"));
        assert_eq!(sections[1].0, "dnsroute");
        assert_eq!(sections[1].1, "{ \"traces_per_second\": 42.5 }");
    }

    #[test]
    fn garbage_yields_none() {
        assert_eq!(parse_sections(""), None);
        assert_eq!(parse_sections("not json"), None);
        assert_eq!(parse_sections("{ \"unterminated\": {"), None);
    }

    #[test]
    fn flat_schema1_artifact_discarded() {
        // The pre-section format: top-level keys are measurements. They
        // must not survive as sections of the rewritten artifact.
        let old = "{\n  \"schema\": 1,\n  \"bench\": \"micro_simcore/hotpath\",\n  \"steady\": { \"probes_per_second\": 985000 }\n}\n";
        assert_eq!(parse_sections(old), None);
        let untagged = "{ \"hotpath\": { \"a\": 1 } }";
        assert_eq!(parse_sections(untagged), None);
    }
}
