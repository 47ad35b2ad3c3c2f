#!/usr/bin/env bash
# Builds the benchmark and hideseekd from this checkout into .bench_build/,
# then runs the benchmark with the given arguments, from the checkout root:
#
#   bash perfbench/run.sh --workload zigbee-dense --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh -steady 5 --workload daemon-live
#
# The Go build cache, telemetry and module directories are kept under
# .bench_build/ so a run writes nothing outside the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
(
	export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
	export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
	cd "$root/perfbench"
	go build -o "$out/perfbench" .
	go build -o "$out/hideseekd" hideseek/cmd/hideseekd
)
cd "$root"
exec "$out/perfbench" -root "$root" -daemon "$out/hideseekd" "$@"
