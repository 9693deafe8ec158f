#!/usr/bin/env bash
# run.sh builds the benchmark from source inside the checkout and runs it,
# passing every argument through, e.g.
#
#   bash perfbench/run.sh --workload col-read --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Build outputs and the Go build cache go
# to .bench_build/ in the root; nothing is fetched from the network.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp"
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
