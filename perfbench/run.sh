#!/usr/bin/env bash
# Builds the repository benchmark from source and runs one workload.
# Run from anywhere; it works from the repository root:
#
#   bash perfbench/run.sh --workload paper-144 --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (the Go build cache and the binary) goes to
# .bench_build/ at the repository root. See perfbench/README.md.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOWORK=off
export GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0

(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .)

commit=unknown
if [ -e "$root/.git" ]; then
	commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
cd "$root"
exec "$build/perfbench" --commit "$commit" "$@"
