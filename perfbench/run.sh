#!/usr/bin/env bash
# Builds the dregexd benchmark from the checkout's sources and runs it.
# Usage (from the root of a checkout):
#   bash perfbench/run.sh --workload serve-small --seed 1 --seconds 25 --trace 0
# Build outputs and the Go build cache stay under .bench_build/ in the
# checkout; no network is used (GOPROXY=off).
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the root of a dregex checkout (go.mod not found)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
# Keep every file the toolchain writes (build cache, module cache,
# telemetry counters) inside the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOENV=off GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
