#!/usr/bin/env bash
# Builds spotbench from this checkout's sources and runs it. Run from the
# repository root:
#
#   bash spotbench/run.sh --workload read-hot --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays inside the checkout: the
# Go build cache, the binary and scratch data dirs under .bench_build/,
# reports and span dumps under .bench_out/.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/spotbench/go.mod" ]]; then
	echo "spotbench/run.sh: run it from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/gotmp" "$build/home"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/gotmp"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTELEMETRY=off
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"

(cd "$root/spotbench" && go build -o "$build/spotbench" .)
exec "$build/spotbench" --out "$root/.bench_out" --tmp "$build/spotbench-tmp" "$@"
