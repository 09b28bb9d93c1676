#!/usr/bin/env bash
# Builds the benchmark and the fdaserve/fdagate binaries it drives, then
# runs it. Every build product and Go cache lives under .bench_build/ in
# the current directory, which must be the repository root:
#
#   bash perfbench/run.sh --workload train --seed 1 --seconds 20 --trace 0
#
# The build fails (and the script exits non-zero) when the repository
# sources are not next to perfbench/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gomodcache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off CGO_ENABLED=0
(
	cd "$root/perfbench"
	go build -o "$out/bin/perfbench" .
	go build -o "$out/bin/" repro/cmd/fdaserve repro/cmd/fdagate
) >&2
exec "$out/bin/perfbench" -workdir "$out/runs" "$@"
