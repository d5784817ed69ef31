#!/usr/bin/env bash
# Builds the progressdb benchmark from the source tree it sits in and runs
# it. Every build product and cache lands under .bench_build/ at the root
# of the tree, so the run reads and writes nothing outside it.
#
#   bash perfbench/run.sh --workload scan-q1 --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --steady 5 --seconds 10          # steadiness report
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
