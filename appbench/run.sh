#!/usr/bin/env bash
# Builds the benchmark and the obladi-stored daemon from source, then runs
# the benchmark with the given arguments, e.g.
#
#   bash appbench/run.sh --workload tpcc --seed 1 --seconds 10 --trace 0
#
# Run from the repository root.  Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); run files go to .bench_run.
set -euo pipefail
manifest="$(dirname "$0")/Cargo.toml"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$manifest" \
    -p obladi-appbench -p obladi-transport --bins >&2
exec "$CARGO_TARGET_DIR/release/appbench" "$@"
