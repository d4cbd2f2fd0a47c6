#!/usr/bin/env bash
# Regenerate BENCH_sim.json, the checked-in benchmark trajectory: best-of-N
# wall time for every quick-mode registry experiment. Run from anywhere;
# extra flags are passed through to `vswapsim bench` (e.g. -iters 5,
# -only fig5).
set -euo pipefail
cd "$(dirname "$0")/.."
exec go run ./cmd/vswapsim bench -o BENCH_sim.json "$@" > /dev/null
