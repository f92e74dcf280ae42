#!/usr/bin/env bash
# Builds the release `rmrls` binary and the perfbench program from
# source, then runs perfbench with the given arguments:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default: .bench_build).
set -euo pipefail
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in /*) ;; *) target="$(pwd)/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p rmrls-cli --bin rmrls
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
export PERFBENCH_RMRLS="${CARGO_TARGET_DIR}/release/rmrls"
exec "${CARGO_TARGET_DIR}/release/perfbench" "$@"
