#!/usr/bin/env bash
# Offline CI gate: everything here must pass with no network access.
#
#   1. Tier-1: release build + the full test suite (unit, integration,
#      property sweeps, the chaos/fault-injection suite, doc-tests), run
#      once. Every simulator output must be bit-identical across thread
#      counts; the tests pin thread counts in their configs, since no
#      library reads PATU_THREADS: tests/parallel_determinism.rs sweeps
#      1/2/4/available threads, and the telemetry/serve/temporal
#      determinism grids run 1 and 4. The determinism, job-conservation
#      and JSONL-schema invariants are gated here and only here, by those
#      named tests and the serve unit tests.
#   2. Bench smoke: the perf gate (bench_smoke) re-measures the batched
#      SoA kernel vs. the scalar filter path and the sampled MSSIM
#      estimator vs. the full scan, and hard-fails if either ratio
#      regresses >10% against the recorded BENCH_*.json baselines.
#   3. Attribution gate (patu_report --check): per-frame cycle
#      attribution must conserve on every bundled scene, and each
#      scene's top-4 stage shares must hold against
#      BENCH_attribution.json.
#   4. Lint: patu-lint (the workspace invariant checker — token rules
#      plus the interprocedural determinism pass: RNG/float-fold taint
#      across calls, schema-sync; hard fail on any violation or stale
#      pragma); then clippy over every target (libs,
#      bins, tests, benches, examples) with warnings promoted to errors,
#      and cargo fmt --check.
#
# Usage: scripts/ci.sh [--skip-lint]

set -euo pipefail
cd "$(dirname "$0")/.."

# The workspace has no external dependencies, so force cargo offline: a CI
# host without network must behave identically to one with it.
export CARGO_NET_OFFLINE=true

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> bench smoke: perf ratio gate vs recorded BENCH_*.json baselines"
cargo run -q --release -p patu-bench --bin bench_smoke

echo "==> attribution gate: conservation + drift vs BENCH_attribution.json"
cargo run -q --release -p patu-bench --bin patu_report -- --check

if [[ "${1:-}" != "--skip-lint" ]]; then
    echo "==> lint: patu-lint (workspace invariants + pragma debt)"
    cargo run -q --release -p patu-lint

    echo "==> lint: cargo clippy --all-targets -- -D warnings"
    cargo clippy --all-targets -- -D warnings

    echo "==> lint: cargo fmt --check"
    cargo fmt --check
fi

echo "==> ci green"
