#!/usr/bin/env bash
# Builds cwbench from source and runs it with the given arguments.
#
# Run from the repository root:
#
#	bash bench/run.sh --workload crawl-warm --seed 42 --seconds 20 --trace 0
#
# Every file the build and the run write lands under .bench_build/ in
# the working directory: the Go build cache, the module cache, temp
# files, the binary and the benchmark's scratch state. The benchmark
# module (bench/go.mod) replaces the cookiewalk module with the
# checkout it sits in, so outside a full checkout the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOFLAGS=
export GOWORK=off
export GOPROXY=off
export GOTOOLCHAIN=local

(cd "$root/bench" && go build -o "$out/cwbench" ./cwbench)
exec "$out/cwbench" "$@"
