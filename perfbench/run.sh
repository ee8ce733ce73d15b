#!/usr/bin/env bash
# Builds the bpi-server daemon and the benchmark harness from this
# checkout, then runs the harness with the given arguments:
#
#   bash perfbench/run.sh --workload check-corpus --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); the last line of stdout is the result object.
set -euo pipefail

root="$(pwd)"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
  /*) ;;
  *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p bpi-server --bin bpi-server >&2
cargo build --release --offline --quiet --manifest-path "$root/perfbench/Cargo.toml" --bin perfbench >&2
exec "$target/release/perfbench" "$@"
