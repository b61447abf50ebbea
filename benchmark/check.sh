#!/usr/bin/env bash
# Everything a CI job needs to keep the benchmark itself healthy: format,
# lints as errors, unit tests, and a quick end-to-end pass of all five
# workloads (which exits non-zero on any wrong response or lost write).
set -euo pipefail
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --release --all-targets -- -D warnings
cargo test --release
cargo run --release --quiet -- run --quick
