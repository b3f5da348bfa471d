#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags. Run it
# from the repository root; the build, its Go cache and every file a run
# writes stay under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C bench -o "$out/bench" .
exec "$out/bench" "$@"
