#!/usr/bin/env bash
# Builds the simulator benchmark from the source in this checkout and runs
# it with the given arguments:
#
#   bash perfbench/run.sh --workload crr_offload --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build artefact (binary, Go build
# cache, temporary files) stays under the build directory: $CARGO_TARGET_DIR
# when set, .bench_build otherwise, both relative to the repository root.
# The build never touches the network.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
mkdir -p "$GOTMPDIR"

# Build output goes to stderr so the result line stays last on stdout.
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
