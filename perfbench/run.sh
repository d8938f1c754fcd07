#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout and runs it.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything it builds or writes stays under .bench_build/ in the
# current directory, the Go build cache and Go's own config files
# included; see perfbench/README.md.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly \
	go build -C "$root/perfbench" -o "$build/perfbench" .
exec "$build/perfbench" -root "$root" "$@"
