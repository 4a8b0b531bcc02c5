#!/usr/bin/env bash
# Build the release `serve` binary and the benchmark, then run the
# benchmark with the given arguments. Run from the repository root:
#   bash perfbench/run.sh --workload read --seed 1 --seconds 15 --trace 0
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --offline -p cuisine-serve --bin serve >&2
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --serve-bin "$CARGO_TARGET_DIR/release/serve" "$@"
