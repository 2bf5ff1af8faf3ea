#!/usr/bin/env bash
# Builds harmonybench from the checkout it sits in and runs it with the
# caller's arguments, e.g.
#
#   bash bench/run.sh --workload train-swap-link --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind stays inside the
# checkout: the binary and Go's build cache in .bench_build/, the
# traced pass's files in bench/out/.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
export GOCACHE="$root/.bench_build/gocache"
export XDG_CONFIG_HOME="$root/.bench_build/config" # the go command's telemetry counters
export GOTOOLCHAIN=local
go build -C bench -o "$root/.bench_build/harmonybench" ./harmonybench
exec "$root/.bench_build/harmonybench" "$@"
