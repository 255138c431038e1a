#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then runs
# it with the given arguments. Run from anywhere:
#
#   bash perfbench/run.sh --workload sim-batch --seed 1 --seconds 25 --trace 0
#   bash perfbench/run.sh compare PARENT_DIR CHANGE_DIR
#
# Build state (binary, Go build cache) stays in .bench_build/ at the root of
# the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "perfbench: $root is not a chgraph checkout (no go.mod or internal/)" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOTELEMETRY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
