#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every file the Go
# toolchain writes (build cache, temp files, the binary) inside the
# checkout under .bench_build/. The driver calls this from the root of a
# checkout; all arguments are passed through to the benchmark binary.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
go build -C "$here" -o "$out/euconbench" .
exec "$out/euconbench" "$@"
