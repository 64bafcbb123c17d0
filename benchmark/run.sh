#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json). Builds this package's `bench`
# and, from the root manifest as it stands, the repo's own `sbsim` (which the
# traced pass of `low_load` spawns), then runs `bench` with the given
# arguments from the caller's directory, the repo root.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin sbsim
export BENCH_SBSIM="${CARGO_TARGET_DIR:-$root/target}/release/sbsim"
exec "${CARGO_TARGET_DIR:-$here/target}/release/bench" "$@"
