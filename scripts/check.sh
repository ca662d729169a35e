#!/usr/bin/env bash
# CI gate: formatting, lints, and the full test suite.
# Run locally before pushing; .github/workflows/ci.yml runs the same steps.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test =="
cargo test -q --workspace

echo "== sweep byte-identity (sequential vs 2/8 threads) =="
cargo test -q -p optimus-bench --test sweep_identity

echo "== every experiment (exp <name> --small, --threads 2 where read; non-zero on any failed claim) =="
cargo build --release -q -p optimus-bench --bin exp
exp=./target/release/exp
"$exp" --list | while read -r name flags; do
  args=(--small)
  case " $flags " in *" --threads "*) args+=(--threads 2) ;; esac
  echo "-- exp $name ${args[*]}"
  "$exp" "$name" "${args[@]}" </dev/null
done

echo "== benchmark output checks (quick: every replay valid, first/last replay byte-identical, start-kind shares, measured boots warm) =="
benchmark/run.sh --quick --workload sim_replay_full
benchmark/run.sh --quick --workload serve_gateway_churn
# The only workload that boots from the plan-cache file: its
# measured_boots_were_warm check wants every plan from the artifact and
# zero planner calls.
benchmark/run.sh --quick --workload serve_http_warm

echo "all checks passed"
