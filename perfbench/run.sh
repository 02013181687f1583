#!/usr/bin/env bash
# Builds gvad and the perfbench program from this checkout, then runs
# perfbench. Usage, from the repository root:
#
#   bash perfbench/run.sh --workload analyze-warm --seed 1 --seconds 25 --trace 0
#
# Every build product, Go cache and run directory lives under
# .bench_build/ in the checkout; nothing is written outside it.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOFLAGS= GOWORK=off GOTOOLCHAIN=local \
	GOPROXY=off GOENV=off
go build -o "$out/gvad" ./cmd/gvad >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -gvad "$out/gvad" -work "$out" "$@"
