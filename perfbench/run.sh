#!/usr/bin/env bash
# Builds the host-cost benchmark from the source tree it is run in and runs
# it. Run from the repository root:
#
#   bash perfbench/run.sh --workload fleet-handoff --seed 42 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, trace
# files) goes under $CARGO_TARGET_DIR, default .bench_build, inside the
# current directory. Build output goes to stderr; stdout carries only the
# benchmark's report, whose last line is the JSON result.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/home" "$out/tmp"

# Keep the toolchain inside the checkout and offline: no module downloads,
# no toolchain switch, no telemetry or caches under the real home.
export HOME=$out/home XDG_CONFIG_HOME=$out/home/.config XDG_CACHE_HOME=$out/home/.cache
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOENV=off GOTELEMETRY=off

commit=unknown
if command -v git >/dev/null 2>&1; then
	commit=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
fi

(cd "$root/perfbench" && go build -o "$out/perfbench" .) 1>&2
exec "$out/perfbench" --out "$out" --commit "$commit" "$@"
