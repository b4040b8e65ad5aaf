#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is started in and
# runs one workload:
#
#   bash perfbench/run.sh --workload imdb-cold --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout (Go build cache, temporary files, snapshot stores, job journals).
set -euo pipefail

root="$(pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/tmp" "${build}/config"
export GOCACHE="${build}/gocache"
export GOTMPDIR="${build}/tmp"
export GOPATH="${build}/gopath"
export XDG_CONFIG_HOME="${build}/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

go -C "${root}/perfbench" build -o "${build}/perfbench" .
exec "${build}/perfbench" -root "${root}" "$@"
