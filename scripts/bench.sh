#!/bin/sh
# bench.sh — take a benchmark snapshot for a performance PR.
#
# Usage:
#   scripts/bench.sh [output.json] [bench-regex]
#
# Defaults snapshot the headline benchmarks the perf PRs track
# (per-iteration model, Table 1 wait-time sweep, full experiment suite,
# functional mini-WRF run, functional rank sweep up to 8192, modeled
# simulation sweep, cold-planning batch) plus the per-layer mapping
# analysis and loaded-network transfer benchmarks of internal/mapping
# and internal/netsim, at one iteration each with -benchmem, matching
# the committed BENCH_<pr>.json files.
# Pass '.' as the regex for the full suite.
set -eu
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_snapshot.json}"
BENCH="${2:-PerIteration85\$|Table1Wait\$|AllExperimentsSequential\$|Functional\$|FunctionalRanks\$|Simulate\$|ColdPlan\$|Analyze1024\$|TransferTimeLoaded\$}"

PKGS=". ./internal/mapping ./internal/netsim"

go run ./cmd/benchsnap -pkg "$PKGS" -bench "$BENCH" -benchtime 1x -o "$OUT"
