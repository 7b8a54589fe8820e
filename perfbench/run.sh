#!/usr/bin/env bash
# Builds the benchmark from source into the checkout and runs it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the root of a checkout. Every build artefact (binary, Go
# build cache, Go's own config and telemetry files) stays under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout, and so do
# the build's temporary files.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod \
  XDG_CONFIG_HOME=$out/config HOME=$out/home GOTMPDIR=$out/tmp TMPDIR=$out/tmp \
  GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
