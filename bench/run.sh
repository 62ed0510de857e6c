#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# BENCHMARK.json names this script; the driver appends
# --workload <name> --seed <n> --seconds <s> --trace <0|1>.
# Everything the build writes (the Go build cache, the binary) stays under
# .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$out/wsgossip-bench" .)
cd "$root"
exec "$out/wsgossip-bench" "$@"
