#!/usr/bin/env bash
# Builds the benchmark and the explinkd daemon from the checkout, then runs
# the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload suite-quick --seed 1 --seconds 30 --trace 0
#
# Every build artefact, cache and output stays under .bench_build/ in the
# current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
go build -o "$out/explinkd" ./cmd/explinkd >&2

commit=unknown
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$out/perfbench" -explinkd "$out/explinkd" -spans-dir "$out" -commit "$commit" "$@"
