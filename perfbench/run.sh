#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it, passing
# every argument through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-wire --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the traced runs' span dumps go under
# .bench_build/ at the root; nothing is read or written outside the
# checkout except the Go toolchain itself.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOFLAGS="-mod=readonly -buildvcs=false" GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
