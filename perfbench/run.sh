#!/usr/bin/env bash
# Builds ljqd and the benchmark program from the source tree this script
# sits in, then runs the benchmark with the arguments given, e.g.
#
#   bash perfbench/run.sh --workload hot-hits --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs and temporary files go to
# .bench_build/ there, and so do the Go build and module caches and the
# go command's configuration directory, so the build writes nothing
# outside the tree and downloads nothing. Go telemetry is switched off in
# that configuration directory: left on, the go command starts a detached
# upload process that outlives the build.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/ljqd" ]; then
	echo "run.sh: no joinopt source tree (go.mod, cmd/ljqd) in $root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/config/go/telemetry"
echo off >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
cd "$root/perfbench"
go build -o "$out/ljqd" joinopt/cmd/ljqd
go build -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" -ljqd "$out/ljqd" -workdir "$out" "$@"
