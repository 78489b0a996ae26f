#!/usr/bin/env bash
# Builds xcperf from this checkout's sources and runs it from the
# checkout root with the given arguments. The build cache, temporary
# files, the binary and the go command's own state (module cache,
# configuration) stay under .bench_build in the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
if [[ ! -f "$root/go.mod" ]]; then
	echo "xcperf: $root holds no go.mod; run from a full checkout of the repository" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off GOPROXY=off
# With telemetry on, the go command may leave a child process running
# after it exits; the benchmark must stop every process it starts.
go telemetry off
(cd "$here" && go build -o "$out/xcperf" .)
cd "$root"
exec "$out/xcperf" "$@"
