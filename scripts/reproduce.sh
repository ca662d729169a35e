#!/usr/bin/env bash
# Regenerate every table/figure of the paper plus the ablations and
# extensions at full size, writing JSON results into results/ and logs into
# logs/. Exits non-zero if any experiment's claims fail.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p results logs

echo "== building (release) =="
cargo build --release --workspace

exp=./target/release/exp
"$exp" --list | while read -r name _; do
  echo "== exp $name =="
  "$exp" "$name" </dev/null | tee "logs/exp_${name}.log"
done

echo "all experiments regenerated; see results/ and logs/"
