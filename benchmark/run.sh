#!/usr/bin/env bash
# The repository's benchmark; see benchmark/README.md.
#
#   benchmark/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
#   benchmark/run.sh [--seed N] [--seconds S] [--runs K] [--traced] [--smoke] [--out FILE]
#   benchmark/run.sh --compare A.json B.json
#
# Builds the benchmark package (offline, release) on first use, then runs
# it from the repository root.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
# CARGO_TARGET_DIR, where the caller sets it, is relative to the root.
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
BENCH_COMMIT="${BENCH_COMMIT:-$(git rev-parse --short HEAD 2>/dev/null || echo unknown)}"
export BENCH_COMMIT
exec "$target/release/sss-benchmark" "$@"
