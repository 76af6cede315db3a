#!/usr/bin/env bash
# Builds and runs EXT-LAYERS from the root of a checkout, e.g.
#
#   bash extlayers/run.sh --workload crawl-large --seed 1 --seconds 30 --trace 0
#
# The Go build cache, the binary and the trace files stay under
# .bench_build in the checkout; nothing is fetched.
set -euo pipefail
out="$(pwd)/.bench_build/extlayers"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd extlayers && go build -o "$out/extlayers" .)
exec "$out/extlayers" "$@"
