#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it, passing every
# argument through:
#
#   bash perfbench/run.sh --workload live-wide --seed 1 --seconds 55 --trace 0
#
# Run it from the repository root. Everything the Go toolchain writes (build
# cache, temporary files, the binary) stays under $CARGO_TARGET_DIR, which
# defaults to .bench_build in the repository root.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath GOMODCACHE=$out/modcache
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
