#!/bin/sh
# bench_compare.sh — re-run the headline benchmarks and diff against a
# committed snapshot, flagging regressions beyond a threshold.
#
# Usage:
#   scripts/bench_compare.sh [baseline.json] [threshold-pct] [bench-regex]
#
# Exits non-zero when any benchmark's ns/op or allocs/op grew by more
# than the threshold (default 15%). Single-iteration snapshots are
# noisy; treat a failure as "look at the numbers", not proof. The most
# recent committed BENCH_<pr>.json is the natural baseline. A benchmark
# the baseline does not hold is listed as new and never counted as a
# regression:
#
#   scripts/bench_compare.sh "$(ls BENCH_*.json | sort -V | tail -1)"
set -eu
cd "$(dirname "$0")/.."

BASE="${1:-$(ls BENCH_*.json 2>/dev/null | sort -V | tail -1)}"
THRESHOLD="${2:-15}"
BENCH="${3:-PerIteration85\$|Table1Wait\$|AllExperimentsSequential\$|Functional\$|FunctionalRanks\$|Simulate\$|ColdPlan\$|Analyze1024\$|TransferTimeLoaded\$}"

if [ -z "$BASE" ] || [ ! -f "$BASE" ]; then
    echo "bench_compare.sh: no baseline snapshot found (pass one, or commit a BENCH_<pr>.json)" >&2
    exit 2
fi

echo "comparing against $BASE (threshold ${THRESHOLD}%)" >&2
PKGS=". ./internal/mapping ./internal/netsim"
go run ./cmd/benchsnap -pkg "$PKGS" -bench "$BENCH" -benchtime 1x \
    -compare "$BASE" -threshold "$THRESHOLD"
