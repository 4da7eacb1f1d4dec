#!/usr/bin/env bash
# Builds the benchmark from source and runs it as one process:
#
#   bash bench/run.sh --workload fanin_single --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache) stays under
# bench/out/, which is ignored. The binary replaces this shell (exec),
# so there is no child process to leave behind. In a directory without
# the repository's sources the build fails and nothing is printed.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/bench/out"
mkdir -p "$out"
# HOME and XDG_CONFIG_HOME too: the go command keeps telemetry counters
# in the user's configuration directory.
HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTOOLCHAIN=local \
	go build -o "$out/bench" ./bench
exec "$out/bench" "$@"
