#!/usr/bin/env bash
# Offline CI gate: everything here must pass with no network access.
#
#   1. Tier-1: release build + the full test suite (unit, integration,
#      property sweeps, the chaos/fault-injection suite, doc-tests) —
#      run twice, serial (PATU_THREADS=1) and multi-threaded
#      (PATU_THREADS=4), because every simulator output must be
#      bit-identical across thread counts.
#   2. Telemetry smoke: a traced render (PATU_TRACE=spans) whose JSONL
#      artifact must validate line-by-line against the in-repo schema
#      checker (trace_check).
#   3. Serve smoke: a small overloaded serving session run at both thread
#      counts — sessions must be bit-identical and the serve log must
#      validate against the JSONL schema (serve_smoke).
#   4. Chaos smoke: every named failure scenario (flap, half-pool outage,
#      straggler storm, ...) run resilience-on and -off at both thread
#      counts — sessions must be bit-identical, conserve every job, and
#      keep the serve log schema-clean (serve_chaos --smoke).
#   5. Bench smoke: the perf gate (bench_smoke) re-measures the batched
#      SoA kernel vs. the scalar filter path and the sampled MSSIM
#      estimator vs. the full scan, and hard-fails if either ratio
#      regresses >10% against the recorded BENCH_*.json baselines.
#      The temporal smoke (temporal_bench --smoke) then proves cross-frame
#      tile reuse fires on the slow-orbit preset, holds the MSSIM floor,
#      emits schema-clean temporal JSONL lines, and stays byte-identical
#      between thread counts.
#   6. Report smoke: the observability gate (patu_report --check) —
#      per-frame cycle attribution must conserve on every bundled scene
#      and hold against BENCH_attribution.json, a half-pool-outage chaos
#      session must fire SLO burn alerts at deterministic cycles with a
#      schema-clean trace tree per job, and the trace/SLO artifacts must
#      be byte-identical across thread counts.
#   7. Lint: patu-lint (the workspace invariant checker — token rules
#      plus the interprocedural determinism pass: call-graph knob
#      reachability, RNG/float-fold taint, schema-sync; hard fail on any
#      violation or stale pragma); then clippy over every target (libs,
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

echo "==> tier-1: PATU_THREADS=1 cargo test -q (serial)"
PATU_THREADS=1 cargo test -q

echo "==> tier-1: PATU_THREADS=4 cargo test -q (parallel runtime)"
PATU_THREADS=4 cargo test -q

echo "==> telemetry smoke: traced render + JSONL schema validation"
TRACE_DIR="target/ci-trace"
rm -rf "$TRACE_DIR"
PATU_TRACE=spans PATU_TRACE_OUT="$TRACE_DIR" \
    cargo run -q --release -p patu-bench --bin trace_smoke
PATU_TRACE_OUT="$TRACE_DIR" cargo run -q --release -p patu-bench --bin trace_check

echo "==> serve smoke: bit-identical sessions + schema-validated serve log"
cargo run -q --release -p patu-bench --bin serve_smoke

echo "==> chaos smoke: deterministic failure scenarios, resilience on/off"
cargo run -q --release -p patu-bench --bin serve_chaos -- --smoke

echo "==> bench --smoke: perf ratio gate vs recorded BENCH_*.json baselines"
cargo run -q --release -p patu-bench --bin bench_smoke

echo "==> temporal smoke: tile reuse fires, MSSIM floor holds, threads 1 == 4"
cargo run -q --release -p patu-bench --bin temporal_bench -- --smoke

echo "==> report smoke: attribution conservation + trace/SLO determinism gate"
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
