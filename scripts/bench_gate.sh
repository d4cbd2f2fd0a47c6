#!/usr/bin/env bash
# Benchmark regression gate: re-measure the hot registry entries and
# compare them against the checked-in trajectory (BENCH_sim.json).
#
#   - A report-fingerprint mismatch is ALWAYS fatal: the simulator's output
#     drifted without the goldens being regenerated.
#   - A best-of-N wall-time regression beyond THRESHOLD (default 1.15, i.e.
#     >15% slower) fails the performance budget for that entry.
#
# Usage: scripts/bench_gate.sh [extra `vswapsim bench` flags...]
#   IDS=fig5,fig11 THRESHOLD=1.15 scripts/bench_gate.sh -iters 3
set -euo pipefail
cd "$(dirname "$0")/.."

ids=${IDS:-fig5,fig11,backendN,clusterN,fleetN}
threshold=${THRESHOLD:-1.15}
fresh=$(mktemp)
trap 'rm -f "$fresh"' EXIT

go run ./cmd/vswapsim bench -only "$ids" "$@" > "$fresh"

fail=0
IFS=, read -ra id_list <<<"$ids"
for id in "${id_list[@]}"; do
  old_fp=$(jq -r --arg id "$id" '.entries[] | select(.id == $id).fingerprint' BENCH_sim.json)
  new_fp=$(jq -r --arg id "$id" '.entries[] | select(.id == $id).fingerprint' "$fresh")
  old_ms=$(jq -r --arg id "$id" '.entries[] | select(.id == $id).best_ms' BENCH_sim.json)
  new_ms=$(jq -r --arg id "$id" '.entries[] | select(.id == $id).best_ms' "$fresh")
  if [ -z "$old_fp" ] || [ -z "$old_ms" ]; then
    echo "bench_gate: $id missing from checked-in BENCH_sim.json" >&2
    fail=1
    continue
  fi
  if [ "$old_fp" != "$new_fp" ]; then
    echo "bench_gate: $id report fingerprint drifted: $new_fp != checked-in $old_fp" >&2
    echo "bench_gate: $id baseline ${old_ms}ms, measured ${new_ms}ms (ignored: fingerprint gates first)" >&2
    echo "bench_gate: if the output change is intentional, regenerate the goldens and scripts/bench.sh" >&2
    fail=1
    continue
  fi
  if awk -v new="$new_ms" -v old="$old_ms" -v t="$threshold" 'BEGIN { exit !(new > old * t) }'; then
    echo "bench_gate: $id regressed: baseline ${old_ms}ms, measured ${new_ms}ms (budget x$threshold)" >&2
    fail=1
  else
    echo "bench_gate: $id ok: best ${new_ms}ms vs checked-in ${old_ms}ms (budget x$threshold)"
  fi
done
exit $fail
