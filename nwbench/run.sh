#!/usr/bin/env bash
# Builds the benchmark and the CLIs it drives (cmd/planserve,
# cmd/experiments) from the checkout, then runs the benchmark. Run it
# from the repository root:
#
#   bash nwbench/run.sh --workload plan-churn --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout (Go build cache included).
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/driver" || ! -d "$root/cmd/planserve" ]]; then
    echo "nwbench: run from the repository root (no go.mod, internal/driver or cmd/planserve in $root)" >&2
    exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
    XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/bin/" ./cmd/planserve ./cmd/experiments
go -C "$root/nwbench" build -o "$out/bin/nwbench" .
exec "$out/bin/nwbench" -root "$root" -bin "$out/bin" "$@"
