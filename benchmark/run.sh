#!/usr/bin/env bash
# The one command of the benchmark (see benchmark/README.md).
#
#   benchmark/run.sh                      every workload, end to end
#   benchmark/run.sh --trace 1            every workload, traced per layer
#   benchmark/run.sh --workload NAME [--seed N] [--seconds N] [--trace 0|1]
#   benchmark/run.sh --compare A.json B.json
#
# Builds the `mocc` binary from the root workspace and the harness from
# benchmark/ (both release, offline), then hands its arguments to the
# harness. Exits non-zero when a build fails, when any operation fails,
# or when --compare finds a regression.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# One target directory for both builds: the driver's CARGO_TARGET_DIR
# when set (relative to where it was set: here), ./target otherwise.
target="${CARGO_TARGET_DIR:-target}"
mkdir -p "$target"
target="$(cd "$target" && pwd)"

started=$(date +%s%N)
# Build output goes to stderr, so the result stays the last line of stdout.
# The manifests are named outright: in a directory without the root
# workspace cargo must fail here, not find some Cargo.toml further up.
CARGO_TARGET_DIR="$target" cargo build --release --offline \
    --manifest-path "$root/Cargo.toml" -p mocc-bench --bin mocc 1>&2
CARGO_TARGET_DIR="$target/benchmark" cargo build --release --offline \
    --manifest-path "$root/benchmark/Cargo.toml" 1>&2
build_ms=$(( ($(date +%s%N) - started) / 1000000 ))
build_s="$((build_ms / 1000)).$(printf %03d $((build_ms % 1000)))"

exec "$target/benchmark/release/mocc-benchmark" --root "$root" \
    --mocc "$target/release/mocc" --out-dir "$target/benchmark" \
    --build-s "$build_s" "$@"
