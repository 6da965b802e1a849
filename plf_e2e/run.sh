#!/usr/bin/env bash
# Builds what the benchmark measures, then runs it; arguments pass
# through. Run from the repo root:
#   bash plf_e2e/run.sh --workload wide15 --seed 1 --seconds 30 --trace 0
# Two builds share one target directory: the repo's `phylomic` CLI (the
# UDS scheme runs it as a child process) and the benchmark package.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target}"
cargo build --release --offline --quiet --bin phylomic
cargo build --release --offline --quiet --manifest-path plf_e2e/Cargo.toml
exec "$CARGO_TARGET_DIR/release/plf_e2e" "$@"
