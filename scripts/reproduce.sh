#!/usr/bin/env bash
# Regenerate every table/figure of the paper plus the ablations and
# extensions, writing JSON results into results/ and logs into logs/.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p results logs

echo "== building (release) =="
cargo build --release --workspace

EXPS=(fig2 fig3 fig4 fig5 fig8 fig11 fig12 fig13 fig14 fig15 table1 fig16 \
      ablation_planner ablation_safeguard ablation_balancer \
      ablation_thresholds ablation_memory ext_prewarm plan_warmup store)
for exp in "${EXPS[@]}"; do
  echo "== exp_${exp} =="
  ./target/release/exp_"${exp}" | tee "logs/exp_${exp}.log"
done

echo "all experiments regenerated; see results/ and logs/"
