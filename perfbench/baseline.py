"""Record a baseline: every workload under several seeds, plus one traced run.

    python3 perfbench/baseline.py --seeds 10 --out perfbench/baseline.json

Runs run.py untraced once per seed (1..N) and traced once (seed 1) for each
workload in BENCHMARK.json, with its `run_seconds`.  For each end-to-end
metric it writes the median, the quartiles and their spread as a share of
the median (`statistics.quantiles(values, n=4)`), and every value; for the
per-layer metrics, the traced run's values.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300, check=True)
    summary, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return summary, result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc = {"run_seconds": spec["run_seconds"], "seeds": list(range(1, args.seeds + 1)),
           "workloads": {}}
    for w in (w["name"] for w in spec["workloads"]):
        results = [run(w, seed, spec["run_seconds"], 0) for seed in doc["seeds"]]
        summary, traced = run(w, 1, spec["run_seconds"], 1)
        doc["env"] = summary["env"]
        end_to_end = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for _, r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            end_to_end[m["name"]] = {"unit": m["unit"], "median": median, "q1": q1, "q3": q3,
                                     "spread": (q3 - q1) / median, "bound": m["bound"],
                                     "values": values}
        doc["workloads"][w] = {
            "attempted": sum(r["attempted"] for _, r in results) + traced["attempted"],
            "failed": sum(r["failed"] for _, r in results) + traced["failed"],
            "passes": [s["passes"] for s, _ in results],
            "shapes": results[0][0]["shapes"],
            "shape_tail_percentile": results[0][0]["shape_tail_percentile"],
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print(w, {k: round(v["spread"], 3) for k, v in end_to_end.items()}, flush=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
