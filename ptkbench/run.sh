#!/usr/bin/env bash
# Builds the benchmark and the `ptk` binary it drives (release profile),
# then runs one workload. Run from the repository root:
#   bash ptkbench/run.sh --workload serve_repeat --seed 1 --seconds 50 --trace 0
# Build output goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path ptkbench/Cargo.toml 1>&2
exec "${CARGO_TARGET_DIR:-ptkbench/target}/release/ptkbench" "$@"
