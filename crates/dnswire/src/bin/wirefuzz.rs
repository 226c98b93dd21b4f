//! CI entry point for the deterministic wire-format fuzz harness.
//!
//! ```sh
//! cargo run --release -p dnswire --bin wirefuzz            # quick mode
//! cargo run --release -p dnswire --bin wirefuzz -- 250000  # deeper run
//! ```
//!
//! Runs the fixed seed corpus plus seeded mutants (default
//! [`dnswire::fuzz::QUICK_ITERATIONS`]) through the five oracles of
//! [`dnswire::fuzz`] — panic, desync, reparse, walk agreement, view
//! agreement — and exits non-zero on any violation, printing the offending
//! input in hex so the failure replays anywhere. The summary line says how
//! many inputs each view accepted; a run of at least the quick length in
//! which either accepted fewer than [`QUICK_VIEW_FLOOR`] fails too, because
//! the fifth oracle only speaks when a view says `Some`. An optional
//! positional argument overrides the iteration count; a second overrides
//! the seed.

use dnswire::fuzz::{run_fuzz, DEFAULT_SEED, QUICK_ITERATIONS, QUICK_VIEW_FLOOR};

fn main() {
    let mut args = std::env::args().skip(1);
    let iterations: u64 = args
        .next()
        .map(|a| a.parse().expect("iteration count must be a number"))
        .unwrap_or(QUICK_ITERATIONS);
    let seed: u64 = args
        .next()
        .map(|a| a.parse().expect("seed must be a number"))
        .unwrap_or(DEFAULT_SEED);

    let report = run_fuzz(seed, iterations);
    println!("wirefuzz seed={seed:#018x}: {}", report.summary());
    for failure in &report.failures {
        eprintln!(
            "FAIL input #{}: {:?}\n  bytes: {}",
            failure.index, failure.kind, failure.input_hex
        );
    }
    let vacuous = iterations >= QUICK_ITERATIONS
        && report.query_views.min(report.answer_views) < QUICK_VIEW_FLOOR;
    if vacuous {
        eprintln!(
            "FAIL view agreement is vacuous: a view accepted fewer than \
             {QUICK_VIEW_FLOOR} inputs"
        );
    }
    if vacuous || !report.clean() {
        std::process::exit(1);
    }
}
