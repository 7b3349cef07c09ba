#!/usr/bin/env bash
# Builds the benchmark and deepum-serve from the checkout's sources, then
# runs one workload. Run from the repository root:
#
#   bash benchmark/run.sh --workload train-bert --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout
# (or $CARGO_TARGET_DIR when set): the Go caches and HOME point there too.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/work" "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOENV=off

(cd "$root/benchmark" && go build -o "$out/benchmark" . && go build -o "$out/deepum-serve" deepum/cmd/deepum-serve) >&2
exec "$out/benchmark" -serve-bin "$out/deepum-serve" -work "$out/work" "$@"
