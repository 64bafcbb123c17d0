#!/usr/bin/env bash
# The harness's own checks, so the benchmark is testable without touching
# the root CI: formatting, lints, unit tests, and every workload at 1/5
# length with all guards and the cold = warm = jobs-1 byte checks live.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline
cd ..
bash benchmark/run.sh --smoke
