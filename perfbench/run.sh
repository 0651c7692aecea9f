#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#
#   bash perfbench/run.sh --workload hot-read --seed 1 --seconds 15 --trace 0
#
# The Go build cache, the binary and the traced run's span files all go
# under .bench_build/ in the checkout; nothing is written elsewhere.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/home"
(
	cd perfbench
	HOME="$build/home" XDG_CONFIG_HOME="$build/home" GOENV=off GOFLAGS= \
		GOTOOLCHAIN=local GOCACHE="$build/gocache" GOPATH="$build/gopath" \
		go build -o "$build/perfbench" .
) >&2
exec "$build/perfbench" "$@"
