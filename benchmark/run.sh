#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--quick]
#
# Builds the standalone package in this directory, then runs the named
# workload -- or, without --workload, all four, each in its own process
# so peak RSS and allocator state never leak from one into the next.
# Every run prints its metrics by name with their units and ends with one
# JSON line; the exit code is non-zero if a build, a run or an output
# check failed.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR is relative to the caller's directory.
target="${CARGO_TARGET_DIR:-$here/../target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/optimus-benchmark"

workload=""
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    if [[ "${args[i]}" == "--workload" ]]; then
        workload="${args[i + 1]:-}"
    fi
done

if [[ -n "$workload" ]]; then
    exec "$bin" "$@"
fi
status=0
for workload in sim_replay_plain sim_replay_full serve_http_warm serve_gateway_churn; do
    "$bin" --workload "$workload" "$@" || status=1
    echo
done
exit "$status"
