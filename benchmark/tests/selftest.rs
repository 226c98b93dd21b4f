//! The benchmark checks itself: the one command prints every metric, the
//! trace accounts for the time it claims to, planted faults fail the run,
//! `compare` applies the bounds, and `BENCHMARK.json` repeats the tables.
//!
//! Everything here runs `--smoke` (worlds ÷10, 3 reps). Smoke numbers are
//! never reported; they only prove the plumbing.

use benchmark::json::Json;
use benchmark::metrics::{END_TO_END, PER_LAYER};
use benchmark::workloads::Workload;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

const EXE: &str = env!("CARGO_BIN_EXE_benchmark");

/// A scratch directory of this test binary's own.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

fn run(args: &[&str]) -> Output {
    Command::new(EXE)
        .args(args)
        .output()
        .expect("benchmark binary runs")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn load(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// One `--smoke --traced` run of every workload, shared by the tests that
/// only read its output.
fn smoke_run() -> &'static (PathBuf, String) {
    static RUN: OnceLock<(PathBuf, String)> = OnceLock::new();
    RUN.get_or_init(|| {
        let out = scratch("smoke");
        let output = run(&[
            "--smoke",
            "--traced",
            "--out",
            out.to_str().expect("utf-8 path"),
        ]);
        assert!(
            output.status.success(),
            "smoke run failed:\n{}\n{}",
            stdout(&output),
            String::from_utf8_lossy(&output.stderr)
        );
        (out, stdout(&output))
    })
}

#[test]
fn smoke_prints_every_end_to_end_metric_with_its_unit() {
    let (_, text) = smoke_run();
    for workload in Workload::ALL {
        for def in &END_TO_END {
            let prefix = format!("{} {} ", workload.name(), def.name);
            let line = text
                .lines()
                .find(|l| l.starts_with(&prefix))
                .unwrap_or_else(|| panic!("no line for {prefix}"));
            let mut fields = line[prefix.len()..].split(' ');
            let value: f64 = fields
                .next()
                .and_then(|v| v.parse().ok())
                .expect("a number");
            assert!(value.is_finite(), "{line}");
            assert_eq!(fields.next(), Some(def.unit), "{line}");
        }
    }
}

#[test]
fn results_files_carry_the_manifest() {
    let (out, _) = smoke_run();
    for file in ["results.json", "trace.json"] {
        let doc = load(&out.join(file));
        for key in ["seed", "commit", "available_parallelism", "smoke"] {
            assert!(doc.get(key).is_some(), "{file} lacks {key}");
        }
        for workload in Workload::ALL {
            let w = doc
                .get("workloads")
                .and_then(|ws| ws.get(workload.name()))
                .unwrap_or_else(|| panic!("{file} lacks {}", workload.name()));
            for key in [
                "seed",
                "commit",
                "available_parallelism",
                "reps_untraced",
                "reps",
                "digest",
            ] {
                assert!(
                    w.get(key).is_some(),
                    "{file}: {} lacks {key}",
                    workload.name()
                );
            }
        }
    }
}

#[test]
fn trace_accounts_for_each_rep_and_emits_every_per_layer_metric() {
    let (out, _) = smoke_run();
    let doc = load(&out.join("trace.json"));
    for workload in Workload::ALL {
        let w = doc
            .get("workloads")
            .and_then(|ws| ws.get(workload.name()))
            .expect("workload");
        let layers = w.get("per_layer").expect("per_layer");
        for def in &PER_LAYER {
            let value = layers
                .get(def.name)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{}: no {}", workload.name(), def.name));
            assert!(value.is_finite());
        }
        let attributed = layers["trace.attributed_share"]["value"]
            .as_f64()
            .expect("share");
        assert!(
            attributed >= 0.95,
            "{}: only {attributed:.3} of the rep is inside named spans",
            workload.name()
        );

        // Self times of a rep's spans add up to the rep (within 2 %).
        let spans = w.get("spans").and_then(Json::as_array).expect("spans");
        let num = |span: &Json, key: &str| span.get(key).and_then(Json::as_f64).expect("number");
        let roots: Vec<&Json> = spans
            .iter()
            .filter(|s| s.get("name").and_then(Json::as_str) == Some("rep"))
            .collect();
        assert_eq!(roots.len(), 3, "three traced smoke reps");
        for root in roots {
            let rep = num(root, "rep");
            let total = num(root, "end_ns") - num(root, "start_ns");
            let own: f64 = spans
                .iter()
                .filter(|s| num(s, "rep") == rep)
                .map(|s| num(s, "self_ns"))
                .sum();
            assert!(
                (own - total).abs() <= 0.02 * total,
                "{} rep {rep}: self times {own} vs rep {total}",
                workload.name()
            );
        }
    }
}

/// The driver's contract: the last line of a single-workload run is one
/// JSON object with exactly these keys, naming every declared metric.
#[test]
fn single_workload_run_ends_with_the_result_line() {
    let out = scratch("driver");
    for (trace, expected) in [
        (
            "0",
            END_TO_END
                .iter()
                .filter(|d| d.driver_bound.is_some())
                .map(|d| d.name)
                .collect::<Vec<_>>(),
        ),
        ("1", PER_LAYER.iter().map(|d| d.name).collect()),
    ] {
        let output = run(&[
            "--workload",
            "hotpath_repeat",
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
            "--out",
            out.to_str().expect("utf-8 path"),
        ]);
        assert!(output.status.success());
        let text = stdout(&output);
        let result = Json::parse(text.lines().last().expect("output")).expect("last line is JSON");
        let keys: Vec<&str> = result
            .as_object()
            .expect("object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
        assert!(result["attempted"].as_f64().expect("number") >= 1.0);
        assert_eq!(result["failed"].as_f64(), Some(0.0));
        let mut named: Vec<&str> = result["metrics"]
            .as_object()
            .expect("metrics")
            .keys()
            .map(String::as_str)
            .collect();
        let mut expected = expected;
        named.sort_unstable();
        expected.sort_unstable();
        assert_eq!(named, expected, "--trace {trace}");
    }
}

#[test]
fn planted_faults_fail_the_command() {
    let out = scratch("inject");
    for (workload, fault, complaint) in [
        ("hotpath_repeat", "digest", "digest"),
        ("census_warm_dud", "digest", "digest"),
        ("census_fresh", "false-positive", "precision"),
        ("dnsroute_lossy", "false-positive", "precision"),
    ] {
        let output = run(&[
            "--workload",
            workload,
            "--smoke",
            "--inject",
            fault,
            "--out",
            out.to_str().expect("utf-8 path"),
        ]);
        let text = stdout(&output);
        assert!(
            !output.status.success(),
            "{workload} survived a planted {fault}:\n{text}"
        );
        assert!(
            text.contains("CHECK FAILED") && text.contains(complaint),
            "{text}"
        );
        assert!(
            !text.lines().last().unwrap_or("").starts_with('{'),
            "a failed run must not print a result line"
        );
    }
    // The all-workloads command fails with its first failing workload.
    let output = run(&[
        "--smoke",
        "--inject",
        "digest",
        "--out",
        out.to_str().expect("utf-8 path"),
    ]);
    assert!(!output.status.success());
}

/// Scale one end-to-end metric of every workload in a results document.
fn scaled(doc: &Json, metric: &str, factor: f64) -> Json {
    fn walk(node: &Json, metric: &str, factor: f64, inside: bool) -> Json {
        match node {
            Json::Obj(map) => Json::Obj(
                map.iter()
                    .map(|(k, v)| (k.clone(), walk(v, metric, factor, inside || k == metric)))
                    .collect(),
            ),
            Json::Num(n) if inside => Json::Num(n * factor),
            other => other.clone(),
        }
    }
    walk(doc, metric, factor, false)
}

#[test]
fn compare_applies_each_bound() {
    let (out, _) = smoke_run();
    let dir = scratch("compare");
    let baseline = out.join("results.json");
    let doc = load(&baseline);
    let verdict = |name: &str, factor: f64| {
        let path = dir.join(name);
        // `n` scales too, which `compare` does not read.
        std::fs::write(&path, scaled(&doc, "ops_per_s", factor).encode()).expect("write");
        run(&[
            "compare",
            baseline.to_str().expect("utf-8"),
            path.to_str().expect("utf-8"),
        ])
    };

    let same = verdict("same.json", 1.0);
    assert!(same.status.success(), "{}", stdout(&same));
    assert_eq!(stdout(&same).matches(" ok ").count(), 4 * END_TO_END.len());

    let small = verdict("minus3.json", 0.97);
    assert!(
        small.status.success(),
        "a 3 % drop is inside the 10 % bound:\n{}",
        stdout(&small)
    );

    let big = verdict("minus15.json", 0.85);
    assert!(!big.status.success(), "a 15 % drop must be flagged");
    let text = stdout(&big);
    for workload in Workload::ALL {
        let line = text
            .lines()
            .find(|l| l.starts_with(&format!("{} ops_per_s ", workload.name())))
            .expect("a line per workload");
        assert!(
            line.contains(" regressed ") || line.contains(" unresolved "),
            "{line}"
        );
    }
    assert_eq!(text.matches(" ok ").count(), 4 * (END_TO_END.len() - 1));

    // Exact counts must match to the last digit.
    let path = dir.join("events.json");
    std::fs::write(&path, scaled(&doc, "events_per_op", 1.000001).encode()).expect("write");
    let exact = run(&[
        "compare",
        baseline.to_str().expect("utf-8"),
        path.to_str().expect("utf-8"),
    ]);
    assert!(!exact.status.success());
    assert_eq!(stdout(&exact).matches("events_per_op regressed").count(), 4);
}

#[test]
fn benchmark_json_repeats_the_tables() {
    let doc = load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"));
    let text = |node: &Json, key: &str| node[key].as_str().expect("string").to_string();

    assert_eq!(doc["paths"], Json::Arr(vec![Json::str("benchmark")]));
    assert_eq!(
        doc["run_seconds"].as_f64(),
        Some(benchmark::run::DEFAULT_SECONDS)
    );

    let workloads: Vec<(String, String)> = doc["workloads"]
        .as_array()
        .expect("array")
        .iter()
        .map(|w| (text(w, "name"), text(w, "why")))
        .collect();
    let expected: Vec<(String, String)> = Workload::ALL
        .iter()
        .map(|w| (w.name().to_string(), w.why().to_string()))
        .collect();
    assert_eq!(workloads, expected);

    let end_to_end: Vec<(String, String, String, f64)> = doc["end_to_end"]
        .as_array()
        .expect("array")
        .iter()
        .map(|m| {
            (
                text(m, "name"),
                text(m, "unit"),
                text(m, "better"),
                m["bound"].as_f64().expect("bound"),
            )
        })
        .collect();
    let expected: Vec<(String, String, String, f64)> = END_TO_END
        .iter()
        .filter_map(|d| {
            Some((
                d.name.to_string(),
                d.unit.to_string(),
                d.better.as_str().to_string(),
                d.driver_bound?,
            ))
        })
        .collect();
    assert_eq!(end_to_end, expected);
    assert!(expected
        .iter()
        .any(|(name, unit, better, _)| name == "setup_s" && unit == "s" && better == "lower"));

    let per_layer: Vec<(String, String, String)> = doc["per_layer"]
        .as_array()
        .expect("array")
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
        .collect();
    let expected: Vec<(String, String, String)> = PER_LAYER
        .iter()
        .map(|d| {
            (
                d.name.to_string(),
                d.unit.to_string(),
                d.better.as_str().to_string(),
            )
        })
        .collect();
    assert_eq!(per_layer, expected);
}
