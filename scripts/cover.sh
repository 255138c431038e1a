#!/bin/sh
# cover.sh enforces per-package statement-coverage floors on the packages
# whose correctness the repo's tests are meant to pin down. Run via
# `make cover`. Floors sit just under current coverage so the gate catches
# regressions, not normal churn; FLOOR_SLACK (points subtracted from every
# floor, default 0) lets CI tolerate small uncovered branches that a local
# strict run would flag.
set -eu

cd "$(dirname "$0")/.."

slack=${FLOOR_SLACK:-0}
fail=0
check() {
    pkg=$1
    floor=$(awk -v f="$2" -v s="$slack" 'BEGIN { print f - s }')
    out=$(go test -count=1 -cover "./$pkg/" 2>&1) || { echo "$out"; exit 1; }
    case "$out" in
    *"[no test files]"*)
        # A floored package with no tests would otherwise read as a silent
        # pass ("ok ... [no test files]" exits 0 with no coverage figure).
        echo "FAIL  $pkg: no test files"
        fail=1
        return
        ;;
    esac
    pct=$(echo "$out" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p' | head -1)
    if [ -z "$pct" ]; then
        echo "FAIL  $pkg: no coverage figure in output:"
        echo "$out"
        fail=1
        return
    fi
    ok=$(awk -v p="$pct" -v f="$floor" 'BEGIN { print (p >= f) ? 1 : 0 }')
    if [ "$ok" = 1 ]; then
        echo "ok    $pkg: ${pct}% >= ${floor}%"
    else
        echo "FAIL  $pkg: coverage ${pct}% below floor ${floor}%"
        fail=1
    fi
}

check internal/engine     97
check internal/obs        98
check internal/hypergraph 91
check internal/oag        93
check internal/shard      90
check internal/serve      90
check internal/flight     90
check internal/loadtest   84
check internal/sim/system 83
check internal/sim/cache  92

exit $fail
