#!/usr/bin/env bash
# Builds the campaign benchmark from source and runs it. Call it from the
# repository root, e.g.
#
#   bash campaignbench/run.sh --workload paper-mix --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOWORK=off \
	GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$root/campaignbench" && go build -o "$out/campaignbench" .)
exec "$out/campaignbench" "$@"
