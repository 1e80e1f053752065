#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Everything the Go toolchain writes (build
# cache, module cache, settings) and the spans of traced runs stay under
# .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
bench="$root/perfbench"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/serve" || ! -f "$bench/go.mod" ]]; then
	echo "perfbench: run from the repository root; the routetab module was not found in $root" >&2
	exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$bench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
