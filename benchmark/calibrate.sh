#!/usr/bin/env bash
# Calibrate the benchmark's bounds against its own noise.
#
#   benchmark/calibrate.sh [RUNS]        (default 10, at least 6)
#
# Makes RUNS full runs, each with another seed, and reads them two ways:
#   - as the driver does: per (workload, metric) the distance between the
#     first and third quartile as a share of the median;
#   - as two interleaved sets (odd and even runs): the relative gap
#     between the set medians, from which the bound a metric needs is
#     max(2 x gap, 5 %).
# Writes benchmark/calibration/<git_rev>.json and fails if a needed bound
# or a spread exceeds the bound declared in BENCHMARK.json: then redesign
# the workload (more ops, longer rounds), do not loosen the bound.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs="${1:-10}"
if ((runs < 6)); then
    echo "calibrate.sh: need at least 6 runs, got $runs" >&2
    exit 2
fi
rev="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
seconds="$(python3 -c "import json,sys; print(json.load(open(sys.argv[1]))['run_seconds'])" "$here/../BENCHMARK.json")"
scratch="$here/out/calibrate"
rm -rf "$scratch"
mkdir -p "$scratch" "$here/calibration"

# Build once, before anything is timed.
"$here/run.sh" --workload sim_replay_plain --quick >/dev/null

for ((run = 1; run <= runs; run++)); do
    for workload in sim_replay_plain sim_replay_full serve_http_warm serve_gateway_churn; do
        echo "calibrate: run $run/$runs  $workload  seed $run" >&2
        "$here/run.sh" --workload "$workload" --seed "$run" --seconds "$seconds" --trace 0 \
            >"$scratch/${workload}_$run.txt"
    done
done

python3 - "$scratch" "$here/../BENCHMARK.json" "$here/calibration/$rev.json" "$rev" "$runs" <<'PY'
import json, os, statistics, sys

scratch, spec_path, out_path, rev, runs = sys.argv[1:6]
runs = int(runs)
spec = json.load(open(spec_path))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
better = {m["name"]: m["better"] for m in spec["end_to_end"]}

result = {
    "git_rev": rev,
    "nproc": os.cpu_count(),
    "run_seconds": spec["run_seconds"],
    "seeds": list(range(1, runs + 1)),
    "workloads": {},
}
violations = []
for w in (x["name"] for x in spec["workloads"]):
    values = {name: [] for name in bounds}
    factors = []
    for run in range(1, runs + 1):
        lines = open(os.path.join(scratch, f"{w}_{run}.txt")).read().splitlines()
        header = lines[0].split()
        result["REF_NOMINAL_MS"] = float(header[header.index("REF_NOMINAL_MS") + 1])
        last = json.loads(lines[-1])
        if not last["correct"] or last["failed"]:
            violations.append(f"{w} run {run}: incorrect or failed operations")
        for name in bounds:
            values[name].append(last["metrics"][name]["value"])
        info = {l.split()[0]: float(l.split()[1]) for l in lines[1:] if l.startswith("  harness.")}
        factors.append([info["harness.speed_factor_min"], info["harness.speed_factor_max"]])
    rows = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        a, b = statistics.median(vals[0::2]), statistics.median(vals[1::2])
        gap = abs(a - b) / med
        needed = max(2 * gap, 0.05)
        rows[name] = {
            "values": vals, "median": med, "q1": q1, "q3": q3, "spread": spread,
            "set_medians": [a, b], "gap": gap, "bound_needed": needed, "bound": bounds[name],
        }
        if name == "setup_s":
            # Judged as the driver judges it: three boots a run are too few
            # for its spread, or twice its gap, to mean much.
            if gap > bounds[name]:
                violations.append(f"{w}.{name}: gap {gap:.3f} > bound {bounds[name]}")
        else:
            if needed > bounds[name]:
                violations.append(f"{w}.{name}: needs bound {needed:.3f} > declared {bounds[name]}")
            if spread > bounds[name]:
                violations.append(f"{w}.{name}: spread {spread:.3f} > bound {bounds[name]}")
        flag = "" if spread <= bounds[name] / 3 or name == "setup_s" else "  (spread above a third of the bound)"
        print(f"{w:22} {name:18} median {med:14.4f}  spread {spread:6.3f}  gap {gap:6.3f}  bound {bounds[name]}{flag}")
    result["workloads"][w] = {"metrics": rows, "speed_factor_min_max": factors}
result["violations"] = violations
json.dump(result, open(out_path, "w"), indent=1)
print(f"wrote {out_path}")
for v in violations:
    print("VIOLATION", v)
sys.exit(1 if violations else 0)
PY
