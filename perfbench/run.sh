#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash perfbench/run.sh --workload paper-long --seed 42 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, temporary
# files, the binary, traced-run spans) stays under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout. The build is offline.
set -euo pipefail

root=$(pwd)
target=${CARGO_TARGET_DIR:-.bench_build}
case $target in /*) ;; *) target=$root/$target ;; esac
dir=$target/perfbench
mkdir -p "$dir/gocache" "$dir/tmp" "$dir/out"

export GOCACHE=$dir/gocache GOTMPDIR=$dir/tmp GOFLAGS= GOWORK=off \
	GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local CGO_ENABLED=0

bin=$dir/perfbench
(cd "$root/perfbench" && go build -o "$bin.$$" .)
mv -f "$bin.$$" "$bin"
exec "$bin" --out "$dir/out" "$@"
