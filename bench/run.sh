#!/usr/bin/env bash
# Entry point named by /BENCHMARK.json: builds the harness into
# bench/out/bin with the Go build cache kept under bench/out (so a run
# writes nothing outside its checkout), then runs it from the repository
# root. The harness builds cmd/coskq-server itself with the same cache.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export GOCACHE="$bench/out/gocache" GOPROXY=off GOTOOLCHAIN=local
mkdir -p "$bench/out/bin"
(cd "$bench" && go build -o out/bin/coskq-benchmark .)
cd "$bench/.."
exec "$bench/out/bin/coskq-benchmark" "$@"
