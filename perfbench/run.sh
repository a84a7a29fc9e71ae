#!/usr/bin/env bash
# Builds the benchmark and bpsimd from source, then runs one workload:
#
#   bash perfbench/run.sh --workload report|predictors|serve --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ there, the Go build cache included. The layer
# replay program is built only for traced runs, so a change to the
# engine entry points it calls cannot stop the end-to-end runs.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/bpsimd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (need go.mod, cmd/bpsimd and perfbench/)" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

traced=0
prev=
for a in "$@"; do
	if [[ "$prev" == "--trace" || "$prev" == "-trace" ]] && [[ "$a" == "1" ]]; then traced=1; fi
	[[ "$a" == "--trace=1" || "$a" == "-trace=1" ]] && traced=1
	prev=$a
done

go build -o "$out/bpsimd" ./cmd/bpsimd >&2
(cd perfbench && go build -o "$out/perfbench" . >&2)
if [[ $traced == 1 ]]; then
	(cd perfbench && go build -o "$out/perfbench-layers" ./layers >&2)
fi
rev=
if [[ -d "$root/.git" ]]; then rev=$(git -C "$root" rev-parse HEAD 2>/dev/null || true); fi
exec "$out/perfbench" -root "$root" -bin "$out" -rev "$rev" "$@"
