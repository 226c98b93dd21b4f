//! Shard-count scaling of the three sharded experiment engines — the
//! million-target census, the DNSRoute++ sweep, and the campaign & sensor
//! experiment — one K-sweep per row of [`bench::SCALING`], written as one
//! artifact per run: a full run rewrites `BENCH_simcore.json`, `-- --quick`
//! (seconds, CI's mode) rewrites `BENCH_simcore_quick.json`.

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut quick = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            // Cargo passes `--bench` to every bench binary it runs.
            "--bench" => {}
            "--quick" => quick = true,
            other => {
                eprintln!("scaling: unknown argument {other:?}");
                eprintln!("usage: cargo bench -p bench --bench scaling [-- --quick]");
                return ExitCode::FAILURE;
            }
        }
    }
    match bench::run_scaling(quick) {
        Ok(path) => {
            println!("\nscaling: wrote {path}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("scaling: could not write the artifact — {e}");
            ExitCode::FAILURE
        }
    }
}
