#!/usr/bin/env bash
# Benchmark sweep: runs every micro-benchmark target plus the `paper`
# experiments that record a BENCH_*.json. Each group writes
# BENCH_<name>.json at the repo root (micro benches: median/p10/p90 ns per
# iteration; headline: the paper-abstract metrics and PATU's
# filtering-latency tail; serve, chaos, temporal: each harness's rows and
# acceptance gates). Host time end to end and per layer, as medians, is the
# `benchmark` binary's job (BENCHMARK.json), not this script's.
#
# Usage: scripts/bench.sh [paper flags, e.g. --full --frames N]

set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "==> micro-benchmarks: cargo bench -p patu-bench"
cargo bench -p patu-bench

echo "==> paper: headline serve_bench serve_chaos temporal_bench"
cargo run --release -p patu-bench --bin paper -- headline serve_bench serve_chaos temporal_bench "$@"

echo "==> perf gate: cargo run --release -p patu-bench --bin bench_smoke"
cargo run --release -p patu-bench --bin bench_smoke

echo "==> bench artifacts:"
ls -1 BENCH_*.json
