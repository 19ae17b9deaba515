#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it with
# the given arguments (see perfbench/README.md). Run from the repository
# root:
#
#   bash perfbench/run.sh --workload paper-cold --seed 1 --seconds 20 --trace 0
#
# Build products, the Go build cache, temporary files and span dumps
# stay under perfbench/.build, so nothing is written outside the
# checkout.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
out="$here/.build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --spans-dir "$out" "$@"
