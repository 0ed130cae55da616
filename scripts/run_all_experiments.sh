#!/usr/bin/env bash
# Regenerates every table and figure of the paper with the fast profile:
# `paper all` prints each experiment's report and writes it to out/<name>.txt.
# Usage: scripts/run_all_experiments.sh [--full] [--frames N]
set -euo pipefail
cd "$(dirname "$0")/.."

cargo run --release -q -p patu-bench --bin paper -- all "$@"
echo "all outputs written to out/*.txt"
