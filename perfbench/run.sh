#!/usr/bin/env bash
# Builds `cyclosched` and the benchmark from the checkout this is run
# from, then runs the benchmark with the given arguments.  Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload manype-compact --seed 1 --seconds 20 --trace 0
#
# Honours CARGO_TARGET_DIR for both builds.
set -euo pipefail

cargo build --release --offline --quiet --bin cyclosched >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

bin_dir="${CARGO_TARGET_DIR:-target}/release"
bench_dir="${CARGO_TARGET_DIR:-perfbench/target}/release"
"$bench_dir/perfbench" --bin "$bin_dir/cyclosched" "$@"
