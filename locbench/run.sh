#!/usr/bin/env bash
# Builds the location-service benchmark from this checkout and runs it
# with the given arguments, e.g.
#
#   bash locbench/run.sh --workload dispatch --seed 3 --seconds 10 --trace 0
#
# The benchmark runs from the root of the checkout. The Go build cache,
# the binary and the traced runs' span files go to $CARGO_TARGET_DIR
# (default .bench_build, relative to that root), so nothing is written
# outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOFLAGS= XDG_CONFIG_HOME="$out/config"
go -C "$here" build -o "$out/locbench" .
cd "$root"
exec "$out/locbench" --out "$out/locbench-spans" "$@"
