#!/bin/sh
# benchgate.sh gates pull requests on benchmark regressions. It compares a
# fresh bench-smoke session (bench-metrics.json, written by `make bench-smoke`)
# against the committed baseline (BENCH_baseline.json) and fails when the
# session-level totals regress:
#
#   simulated_cycles  > CYCLE_TOL % worse (default 3)  -- deterministic model
#                       output, so any growth is a real behavioural change
#   host_wall_ns      > WALL_TOL  % worse (default 10) -- host-side speed,
#                       noisier, so the tolerance is looser
#   host_allocs       > ALLOC_TOL % worse (default 10) -- heap objects the
#                       whole session allocates; the hot paths are pooled, so
#                       growth here means a reuse path regressed to rebuilding
#   bytes_per_edge    > MEM_TOL   % worse (default 10) -- adjacency bytes per
#                       bipartite edge across the session's datasets (the
#                       memory wall); every graph holds the packed CSR, so
#                       growth here means the varint codec or CSR layout
#                       regressed
#
# Usage: sh scripts/benchgate.sh [baseline.json] [fresh.json]
# Tolerances are env-overridable (CYCLE_TOL=8 WALL_TOL=25 sh scripts/benchgate.sh).
# Refresh the baseline with `make bench-baseline` when a change legitimately
# moves the numbers, and say why in the commit message.
set -eu

cd "$(dirname "$0")/.."

base=${1:-BENCH_baseline.json}
fresh=${2:-bench-metrics.json}
cycle_tol=${CYCLE_TOL:-3}
wall_tol=${WALL_TOL:-10}
alloc_tol=${ALLOC_TOL:-10}
mem_tol=${MEM_TOL:-10}

for f in "$base" "$fresh"; do
    if [ ! -f "$f" ]; then
        echo "benchgate: missing $f (run 'make bench-smoke' first;" \
            "the baseline is committed as BENCH_baseline.json)" >&2
        exit 1
    fi
done

# The session summary precedes the per-run entries in the metrics JSON, so the
# first occurrence of each field is the session-wide total. Values may be
# floats (bytes_per_edge), so the comparisons below all go through awk.
field() {
    sed -n 's/.*"'"$2"'": *\([0-9][0-9.]*\).*/\1/p' "$1" | head -1
}

fail=0
rows=""
row() {
    # status name baseline fresh verdict -> one markdown table row for the
    # GitHub Actions step summary (appended at the end of the run).
    rows="$rows| $1 | $2 | $3 | $4 | $5 |
"
}
gate() {
    name=$1 tol=$2 old=$3 new=$4
    if [ -z "$new" ]; then
        echo "FAIL  $name: fresh run has no $name field (truncated $fresh?)"
        row FAIL "$name" "${old:-?}" "?" "fresh field missing"
        fail=1
        return
    fi
    if [ -z "$old" ]; then
        # A baseline captured before this metric existed can't gate it. Skip
        # explicitly — a visible SKIP row, never a silent pass — so the gap
        # stays on the step summary until `make bench-baseline` arms the gate.
        echo "SKIP  $name: baseline has no $name field (refresh with 'make bench-baseline' to arm this gate)"
        row SKIP "$name" "-" "$new" "baseline predates this metric"
        return
    fi
    if [ "$(awk -v o="$old" 'BEGIN { print (o == 0) ? 1 : 0 }')" = 1 ]; then
        echo "FAIL  $name: baseline is zero (stale or truncated $base?)"
        row FAIL "$name" 0 "$new" "baseline is zero"
        fail=1
        return
    fi
    delta=$(awk -v o="$old" -v n="$new" 'BEGIN { printf "%+.2f", (n - o) * 100 / o }')
    over=$(awk -v o="$old" -v n="$new" -v t="$tol" 'BEGIN { print ((n - o) * 100 / o > t) ? 1 : 0 }')
    if [ "$over" = 1 ]; then
        echo "FAIL  $name: $old -> $new (${delta}%, tolerance +${tol}%)"
        row FAIL "$name" "$old" "$new" "${delta}% (tolerance +${tol}%)"
        fail=1
    else
        echo "ok    $name: $old -> $new (${delta}%, tolerance +${tol}%)"
        row ok "$name" "$old" "$new" "${delta}% (tolerance +${tol}%)"
    fi
}

# Archive the fresh metrics under a dated (or CI run id) name before gating:
# a failing gate is exactly when the numbers need inspecting later, so the
# artifact must exist regardless of the verdict below.
run_id=${GITHUB_RUN_ID:-$(date -u +%Y%m%d-%H%M%S)}
artifact="BENCH_${run_id}.json"
cp "$fresh" "$artifact"
echo "benchgate: fresh metrics archived as $artifact"

gate simulated_cycles "$cycle_tol" "$(field "$base" simulated_cycles)" "$(field "$fresh" simulated_cycles)"
gate host_wall_ns "$wall_tol" "$(field "$base" host_wall_ns)" "$(field "$fresh" host_wall_ns)"
# host_allocs is omitempty in the summary; a baseline captured before the
# allocation gate existed gets an explicit SKIP row from gate().
gate host_allocs "$alloc_tol" "$(field "$base" host_allocs)" "$(field "$fresh" host_allocs)"
# bytes_per_edge is the memory wall: adjacency bytes per bipartite edge over
# the session's datasets. Also omitempty — pre-gate baselines SKIP.
gate bytes_per_edge "$mem_tol" "$(field "$base" bytes_per_edge)" "$(field "$fresh" bytes_per_edge)"

if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
    {
        echo "### Bench gate ($fresh vs $base)"
        echo ""
        echo "| status | metric | baseline | fresh | verdict |"
        echo "|---|---|---|---|---|"
        printf '%s' "$rows"
        echo ""
    } >>"$GITHUB_STEP_SUMMARY"
fi

if [ "$fail" = 1 ]; then
    echo "benchgate: regression against $base (refresh with 'make bench-baseline' only if intended)" >&2
fi
exit $fail
