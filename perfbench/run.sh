#!/usr/bin/env bash
# Builds the benchmark (and the `pathmark` daemon it drives) from source,
# then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build output goes to stderr, so the last
# line of stdout is the benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-.bench_build}"
CARGO_TARGET_DIR="$target" cargo build --release --quiet \
    --manifest-path perfbench/Cargo.toml --bins >&2
exec "$target/release/perfbench" "$@"
