#!/usr/bin/env bash
# Builds the release `pard-gateway` binary and the benchmark driver,
# then runs the driver with the arguments given:
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh [--seed N] [--repeat K] [--trace] [--quick] [--out FILE]
#
# The first form is what BENCHMARK.json's `command` runs; the second is
# a full pass over all six workloads. Both builds share one target
# directory ($CARGO_TARGET_DIR, else the repository's own `target/`), so
# the crates the two have in common compile once.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p pard-gateway --bin pard-gateway >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/pard-stack-benchmark" --out-dir "$here/out" "$@"
