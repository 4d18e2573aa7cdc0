#!/usr/bin/env bash
# Builds the benchmark from source into the build directory and runs it.
# Everything it writes - Go's build cache, its temporary files and configuration
# directory, the binary, traces - stays under that directory inside the
# checkout.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash benchmark/run.sh --workload all [--seed n] [--seconds s] [--report set.json]
#   bash benchmark/run.sh -compare a.json b.json
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
build="$(cd "$build" && pwd)"
export CARGO_TARGET_DIR="$build"
# With telemetry in its default "local" mode the go command starts a detached
# child of itself, once per configuration directory per day, that outlives the
# build. Mode "off" starts none, so nothing is left running after this script.
echo off >"$build/config/go/telemetry/mode"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	go build -o "$build/zhuge-benchmark" ./benchmark

# "--workload all": one process per workload and kind of run, so no run
# inherits another's heap; the first failure stops the set.
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
	if [[ "${args[i]}" =~ ^--?workload$ && "${args[i + 1]:-}" == all ]]; then
		rest=("${args[@]:0:i}" "${args[@]:i+2}")
		for w in $("$build/zhuge-benchmark" -list); do
			for t in 0 1; do
				"$build/zhuge-benchmark" "${rest[@]}" --workload "$w" --trace "$t"
			done
		done
		exit 0
	fi
done
exec "$build/zhuge-benchmark" "$@"
