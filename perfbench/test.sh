#!/usr/bin/env bash
# Runs the benchmark's own tests. The daemon workloads' tests start the
# bpi-server binary from the test harness's directory, so it is built
# into the same target directory first:
#
#   bash perfbench/test.sh
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build), shared with perfbench/run.sh.
set -euo pipefail

root="$(pwd)"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
  /*) ;;
  *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p bpi-server --bin bpi-server >&2
cargo test --release --offline --manifest-path "$root/perfbench/Cargo.toml" "$@"
