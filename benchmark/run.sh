#!/usr/bin/env bash
# BENCHMARK.json's command. Builds the benchmark from source inside the
# checkout and runs it. Everything the Go toolchain writes — build cache,
# temporary files, module path, its own config — and the binary go to
# .bench_build/ at the checkout's root, so the benchmark writes nothing
# outside its checkout. By hand, `go run ./benchmark` does the same with
# the user's own build cache.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	# Without the program there is nothing to measure; say so before the
	# Go toolchain is started at all.
	echo "benchmark: no go.mod in $PWD: the program's sources are not here" >&2
	exit 3
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
# A fresh config directory makes the go command start its telemetry
# sidecar, a detached child that outlives the build. `go telemetry off`
# is the one invocation that never starts it, and after it none does.
go telemetry off
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
