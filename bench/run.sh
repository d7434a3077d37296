#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it there. Everything the build and the run write —
# the go build cache included — stays inside the checkout.
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash bench/run.sh -all | -selfcheck | -update
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
# bench/ is a module of its own (pvcagg/bench) that replaces pvcagg by
# the checkout around it; without that checkout the build fails here.
(cd bench && go build -o "$out/bench" .) >&2
exec "$out/bench" "$@"
