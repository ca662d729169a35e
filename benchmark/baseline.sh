#!/usr/bin/env bash
# Record the ledger of the current tree as benchmark/baseline/{e2e,layers}.json:
# one untraced and one traced run per workload at the default seed.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
rev="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
seconds="$(python3 -c "import json,sys; print(json.load(open(sys.argv[1]))['run_seconds'])" "$here/../BENCHMARK.json")"
scratch="$here/out/baseline"
rm -rf "$scratch"
mkdir -p "$scratch" "$here/baseline"

for workload in sim_replay_plain sim_replay_full serve_http_warm serve_gateway_churn; do
    for trace in 0 1; do
        echo "baseline: $workload  trace $trace" >&2
        "$here/run.sh" --workload "$workload" --seconds "$seconds" --trace "$trace" \
            >"$scratch/${workload}_$trace.txt"
    done
done

python3 - "$scratch" "$here/baseline" "$rev" <<'PY'
import json, os, sys

scratch, out, rev = sys.argv[1:4]
for trace, name in ((0, "e2e"), (1, "layers")):
    doc = {"git_rev": rev, "nproc": os.cpu_count(), "workloads": {}}
    for path in sorted(os.listdir(scratch)):
        if not path.endswith(f"_{trace}.txt"):
            continue
        lines = open(os.path.join(scratch, path)).read().splitlines()
        header = lines[0].split()
        doc["REF_NOMINAL_MS"] = float(header[header.index("REF_NOMINAL_MS") + 1])
        doc["seed"] = int(header[header.index("seed") + 1])
        doc["run_seconds"] = float(header[header.index("seconds") + 1])
        result = json.loads(lines[-1])
        # Everything printed by name: the JSON line's metrics plus raw.*,
        # ops_* and the workload's own counters.
        printed = {}
        for line in lines[1:-1]:
            parts = line.split()
            if len(parts) >= 2 and parts[0] != "check":
                printed[parts[0]] = float(parts[1])
        doc["workloads"][path[: -len(f"_{trace}.txt")]] = {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["metrics"],
            "printed": printed,
        }
    json.dump(doc, open(os.path.join(out, f"{name}.json"), "w"), indent=1)
    print(f"wrote {out}/{name}.json")
PY
