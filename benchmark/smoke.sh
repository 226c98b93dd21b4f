#!/usr/bin/env bash
# Build the benchmark, run every workload in --smoke mode (worlds ÷10,
# 3 reps, traced pass included) and run the self-tests. Takes under a
# minute; smoke numbers are never reported. One CI step can call this.
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release --offline
cargo run --release --offline --quiet -- --smoke --traced
cargo test --release --offline --quiet
