#!/usr/bin/env bash
# Build the benchmark from source into .bench_build/ (inside the
# checkout, so nothing is read or written outside it) and run it with
# the given arguments. Run from the repository root:
#
#   bash benchmark/run.sh [flags]        (see benchmark/README.md)
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"

if [ ! -f "$root/go.mod" ]; then
	echo "benchmark/run.sh: no go.mod beside benchmark/: the benchmark builds the repository from source" >&2
	exit 3
fi

mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
# Keep every byte the toolchain writes inside the checkout, and never
# reach for the network or another toolchain.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

go build -C "$here" -o "$build/p2bench" .
cd "$root"
exec "$build/p2bench" "$@"
