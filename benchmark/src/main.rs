//! The repo benchmark. See `README.md` beside this package.
//!
//! ```text
//! benchmark [--seed N] [--seconds S] [--traced] [--smoke] [--out DIR]
//!     every workload, each in its own process, tracing off; with
//!     --traced each workload runs a second time with spans recorded
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] ...
//!     one workload in this process; the last line of standard output is
//!     the result as one JSON object
//! benchmark compare A.json B.json
//!     apply every end-to-end metric's bound per (metric, workload)
//! ```

use benchmark::json::Json;
use benchmark::run::{self, Inject, Settings};
use benchmark::workloads::Workload;
use benchmark::{alloc, compare};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The default seed: `GenConfig::default().seed`, the study's own.
const DEFAULT_SEED: u64 = 0xC0DE_2021;

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--traced] [--smoke] [--out DIR]\n       benchmark compare A.json B.json";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    out: PathBuf,
    inject: Option<Inject>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: run::DEFAULT_SECONDS,
        traced: false,
        smoke: false,
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        inject: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload = Some(
                    Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => parsed.traced = true,
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = PathBuf::from(value()?),
            // Self-test hooks: plant a fault the checks must catch.
            "--inject" => {
                let name = value()?;
                parsed.inject = Some(
                    Inject::ALL
                        .into_iter()
                        .find(|fault| fault.name() == name)
                        .ok_or_else(|| format!("unknown fault {name}"))?,
                );
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare_files(&args[1..]);
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("benchmark: cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    match args.workload {
        Some(workload) => run_one(workload, &args),
        None => run_all(&args),
    }
}

/// Where a workload's results land: `<workload>.json` for the untraced
/// run, `<workload>.trace.json` for the traced one.
fn result_path(out: &Path, workload: Workload, traced: bool) -> PathBuf {
    let suffix = if traced { "trace.json" } else { "json" };
    out.join(format!("{}.{suffix}", workload.name()))
}

/// One workload in this process.
fn run_one(workload: Workload, args: &Args) -> ExitCode {
    let outcome = run::run(Settings {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        smoke: args.smoke,
        inject: args.inject,
    });
    outcome.print();
    let path = result_path(&args.out, workload, args.traced);
    if let Err(e) = std::fs::write(&path, outcome.to_json().encode() + "\n") {
        eprintln!("benchmark: cannot write {}: {e}", path.display());
        return ExitCode::from(2);
    }
    if !outcome.correct {
        // No result line: a run that failed its checks has no numbers.
        eprintln!(
            "benchmark: {} failed its correctness checks",
            workload.name()
        );
        return ExitCode::FAILURE;
    }
    println!("{}", outcome.driver_line());
    ExitCode::SUCCESS
}

/// Every workload, each in a process of its own (so `peak_rss_mb` is per
/// workload), one after the other; then the merged results files.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let passes: &[bool] = if args.traced {
        &[false, true]
    } else {
        &[false]
    };
    for workload in Workload::ALL {
        for &traced in passes {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", workload.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&args.out);
            if args.smoke {
                child.arg("--smoke");
            }
            if let Some(inject) = args.inject {
                child.args(["--inject", inject.name()]);
            }
            // `status` waits for the child, so no process outlives us.
            match child.status() {
                Ok(status) if status.success() => {}
                Ok(status) => {
                    eprintln!("benchmark: {} exited with {status}", workload.name());
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("benchmark: cannot run {}: {e}", workload.name());
                    return ExitCode::from(2);
                }
            }
        }
    }
    for (traced, merged) in [(false, "results.json"), (true, "trace.json")] {
        if traced && !args.traced {
            continue;
        }
        let mut workloads = Vec::new();
        for workload in Workload::ALL {
            let path = result_path(&args.out, workload, traced);
            let doc = std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| Json::parse(&text));
            match doc {
                Ok(doc) => workloads.push((workload.name(), doc)),
                Err(e) => {
                    eprintln!("benchmark: cannot read {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            }
        }
        let doc = Json::obj([
            ("schema", Json::Num(1.0)),
            ("seed", Json::str(args.seed.to_string())),
            ("smoke", Json::Bool(args.smoke)),
            ("commit", Json::str(run::commit_id())),
            (
                "available_parallelism",
                Json::Num(run::available_parallelism() as f64),
            ),
            ("workloads", Json::obj(workloads)),
        ]);
        let path = args.out.join(merged);
        if let Err(e) = std::fs::write(&path, doc.encode() + "\n") {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("wrote {}", path.display());
    }
    ExitCode::SUCCESS
}

fn compare_files(paths: &[String]) -> ExitCode {
    let [a, b] = paths else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text))
            .map_err(|e| format!("{path}: {e}"))
    };
    let verdict = load(a).and_then(|a| load(b).and_then(|b| compare::compare(&a, &b)));
    match verdict {
        Ok(compare::Verdict::Ok) => ExitCode::SUCCESS,
        Ok(worst) => {
            println!("worst verdict: {}", worst.as_str());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("benchmark compare: {e}");
            ExitCode::from(2)
        }
    }
}
