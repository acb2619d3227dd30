#!/bin/bash
# run.sh — the command BENCHMARK.json names. It builds the harness into
# .bench_build/ at the root of the checkout and runs it there; the Go
# build cache, GOPATH and configuration directory are pointed at the same
# place (the repository has no dependencies to fetch), so a run reads and
# writes nothing outside its checkout. All arguments go to the harness
# (see README.md): --workload, --seed, --seconds, --trace.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local GOPROXY=off XDG_CONFIG_HOME="$out/config"
(cd "$here" && go build -o "$out/bin/harness" .)
exec "$out/bin/harness" -root "$root" "$@"
