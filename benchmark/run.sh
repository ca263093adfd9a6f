#!/usr/bin/env bash
# Benchmark entry point. Builds `repro` and the `benchmark` binary from
# source into one target directory (`benchmark` runs the `repro` found
# next to itself), then runs `benchmark` with the given arguments:
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash benchmark/run.sh run|trace --workload NAME [--seed N] [--seconds S] [--out DIR]
#   bash benchmark/run.sh check A_DIR B_DIR
#
# Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); build messages go to stderr.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin repro >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
