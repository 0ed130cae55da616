#!/usr/bin/env bash
# Benchmark sweep: runs every micro-benchmark target plus the headline
# paper-metrics experiment. Each group writes BENCH_<name>.json at the repo
# root (micro benches: median/p10/p90 ns per iteration; headline: the
# paper-abstract metrics plus whether the 1- and 4-thread sweeps agree
# bit-for-bit). Host time end to end and per layer, as medians, is the
# `benchmark` binary's job (BENCHMARK.json), not this script's.
#
# Usage: scripts/bench.sh [paper headline flags, e.g. --full --frames N]

set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "==> micro-benchmarks: cargo bench -p patu-bench"
cargo bench -p patu-bench

echo "==> headline: cargo run --release -p patu-bench --bin paper -- headline"
cargo run --release -p patu-bench --bin paper -- headline "$@"

echo "==> serve: cargo run --release -p patu-bench --bin serve_bench"
cargo run --release -p patu-bench --bin serve_bench

echo "==> chaos: cargo run --release -p patu-bench --bin serve_chaos"
cargo run --release -p patu-bench --bin serve_chaos

echo "==> temporal: cargo run --release -p patu-bench --bin temporal_bench"
cargo run --release -p patu-bench --bin temporal_bench

echo "==> perf gate: cargo run --release -p patu-bench --bin bench_smoke"
cargo run --release -p patu-bench --bin bench_smoke

echo "==> bench artifacts:"
ls -1 BENCH_*.json
