#!/usr/bin/env bash
# Builds talus-serve and the benchmark from this checkout, then runs the
# benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-get --seed 1 --seconds 10 --trace 0
#
# Run from the root of the checkout. Every build product, the Go build
# cache included, stays under .bench_build/ (or $CARGO_TARGET_DIR when
# set), so the run writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/talus-serve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a talus checkout (no go.mod, cmd/talus-serve or perfbench/go.mod here)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)

# XDG_CONFIG_HOME holds the go command's own settings and telemetry.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$GOCACHE" "$GOPATH" "$XDG_CONFIG_HOME"

# Build output goes to stderr: stdout carries the result.
go build -o "$out/talus-serve" ./cmd/talus-serve >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2

exec "$out/perfbench" --serve-bin "$out/talus-serve" --span-dir "$out" "$@"
