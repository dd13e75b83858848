#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build at the root of the
# checkout and runs it with the driver's arguments. Everything the go
# command writes (build cache, temporary files, telemetry) is kept under
# .bench_build too, so a run reads and writes only inside its checkout.
# `run.sh -check` vets and tests the package instead: the root module's
# `go build ./... && go test ./...` does not reach this module.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off
if [ "${1:-}" = "-check" ]; then
  cd "$here" && go vet . && exec go test -count=1 .
fi
(cd "$here" && go build -o "$build/stack" .) >&2
cd "$root"
exec "$build/stack" "$@"
