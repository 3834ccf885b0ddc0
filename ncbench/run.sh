#!/usr/bin/env bash
# Builds the ncast benchmark from source and runs one workload.
#
# Run from the module root (the directory holding go.mod):
#
#   bash ncbench/run.sh --workload mem-relay-lossy --seed 1 --seconds 20 --trace 0
#
# Every file the build writes (binary, Go build cache, temporary files,
# module cache, the go command's local telemetry) stays under .bench_build/
# in the current directory. The last line of standard output is the JSON
# result; see ncbench/README.md.
set -euo pipefail

if [[ ! -f go.mod || ! -d ncbench ]]; then
	echo "ncbench/run.sh: run from the ncast module root (go.mod and ncbench/ not found here)" >&2
	exit 2
fi

root="$PWD/.bench_build"
mkdir -p "$root/gocache" "$root/tmp" "$root/config"
export GOCACHE="$root/gocache"
export GOTMPDIR="$root/tmp"
export GOPATH="$root/gopath"
export XDG_CONFIG_HOME="$root/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

go build -o "$root/ncbench" ./ncbench
exec "$root/ncbench" "$@"
