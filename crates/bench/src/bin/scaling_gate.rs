//! CI gate for shard-count scaling regressions.
//!
//! Compares a freshly measured scaling artifact against a recorded
//! baseline (in CI: the `BENCH_simcore_quick.json` a quick run just
//! rewrote against the committed copy): for every row of
//! [`bench::SCALING`], the section's K-scaling ratio (max-K throughput
//! over min-K throughput) must stay above `floor × baseline_ratio`. The
//! floor (default 0.7) absorbs shared-runner noise; a real collapse —
//! sharded sweeps falling back to flat — blows through it.
//!
//! Every `SCALING` section must carry a scaling curve on both sides: an
//! empty, renamed or format-drifted artifact fails the gate instead of
//! passing it by comparing nothing.
//!
//! Usage: `scaling_gate <fresh_artifact> <baseline_artifact> [floor]`

use bench::{scaling_ratio, SCALING};
use std::process::ExitCode;

const USAGE: &str = "usage: scaling_gate <fresh_artifact> <baseline_artifact> [floor]";

/// One line per [`SCALING`] row; `Ok` only when every row was compared
/// and none regressed.
fn gate(fresh: &str, baseline: &str, floor: f64) -> Result<String, String> {
    let mut report = String::new();
    let mut failed = false;
    for row in &SCALING {
        let ratios = (
            scaling_ratio(fresh, row.key),
            scaling_ratio(baseline, row.key),
        );
        let verdict = match ratios {
            (Some(fresh), Some(base)) if fresh >= floor * base => Ok(format!(
                "OK — fresh ×{fresh:.2} vs baseline ×{base:.2} (≥ ×{:.2})",
                floor * base
            )),
            (Some(fresh), Some(base)) => Err(format!(
                "REGRESSION — fresh ×{fresh:.2} < ×{:.2} (floor {floor} of baseline ×{base:.2})",
                floor * base
            )),
            (fresh, _) => Err(format!(
                "MISSING — no scaling curve in the {} artifact",
                if fresh.is_none() { "fresh" } else { "baseline" }
            )),
        };
        failed |= verdict.is_err();
        let (Ok(line) | Err(line)) = verdict;
        report.push_str(&format!("  {}: {line}\n", row.key));
    }
    if failed {
        return Err(report + "scaling_gate: FAILED — a section regressed or could not be compared");
    }
    Ok(report
        + &format!(
            "scaling_gate: {} sections compared, none regressed",
            SCALING.len()
        ))
}

fn run(args: &[String]) -> Result<String, String> {
    let (fresh_path, baseline_path, floor) = match args {
        [f, b] => (f, b, 0.7),
        [f, b, floor] => (f, b, floor.parse().map_err(|_| USAGE)?),
        _ => return Err(USAGE.into()),
    };
    let read = |path: &String| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let (fresh, baseline) = (read(fresh_path)?, read(baseline_path)?);
    println!("scaling gate: fresh {fresh_path} vs baseline {baseline_path} (floor {floor})");
    gate(&fresh, &baseline, floor)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(report) => {
            eprintln!("{report}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{gate, run, SCALING, USAGE};

    /// An artifact whose every section scales ×`ratio` from K=1 to K=2,
    /// except the keys in `without`, which are absent.
    fn artifact(ratio: f64, without: &[&str]) -> String {
        let mut out = String::from("{\n  \"mode\": \"quick\"");
        for row in SCALING.iter().filter(|row| !without.contains(&row.key)) {
            out.push_str(&format!(
                ",\n  \"{}\": {{\n    \"sweeps\": [\n      {{ \"shards\": 1, \"x_per_second\": 1000 }},\n      {{ \"shards\": 2, \"x_per_second\": {} }}\n    ]\n  }}",
                row.key,
                1000.0 * ratio,
            ));
        }
        out + "\n}\n"
    }

    #[test]
    fn passes_within_the_floor_and_fails_below_it() {
        let report = gate(&artifact(1.0, &[]), &artifact(1.25, &[]), 0.7).unwrap();
        assert_eq!(report.matches(": OK").count(), SCALING.len(), "{report}");
        let report = gate(&artifact(0.8, &[]), &artifact(1.25, &[]), 0.7).unwrap_err();
        assert_eq!(
            report.matches("REGRESSION").count(),
            SCALING.len(),
            "{report}"
        );
    }

    #[test]
    fn a_section_missing_from_either_side_fails() {
        let whole = artifact(1.2, &[]);
        for key in SCALING.each_ref().map(|row| row.key) {
            let holed = artifact(1.2, &[key]);
            let report = gate(&holed, &whole, 0.7).unwrap_err();
            assert!(report.contains(&format!("{key}: MISSING — no scaling curve in the fresh")));
            let report = gate(&whole, &holed, 0.7).unwrap_err();
            assert!(report.contains(&format!(
                "{key}: MISSING — no scaling curve in the baseline"
            )));
        }
    }

    #[test]
    fn comparing_nothing_fails() {
        // Empty, not JSON, or the merged-sections layout under its old keys.
        for stale in [
            "",
            "not json",
            "{\n  \"schema\": 2,\n  \"census_quick\": {}\n}\n",
        ] {
            let report = gate(stale, stale, 0.7).unwrap_err();
            assert_eq!(report.matches("MISSING").count(), SCALING.len(), "{report}");
        }
    }

    #[test]
    fn bad_arguments_print_usage_instead_of_panicking() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            run(&args(&["fresh.json", "base.json", "seventy"])),
            Err(USAGE.into())
        );
        assert_eq!(run(&args(&["fresh.json"])), Err(USAGE.into()));
        assert_eq!(run(&args(&[])), Err(USAGE.into()));
        let missing = run(&args(&[
            "/nonexistent/fresh.json",
            "/nonexistent/base.json",
        ]));
        assert!(missing
            .unwrap_err()
            .starts_with("/nonexistent/fresh.json: "));
    }
}
