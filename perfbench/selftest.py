"""Self-test of the benchmark: every workload at a tiny size, in both modes.

    python3 perfbench/selftest.py

For each workload it runs run.py once untraced and twice traced under two
seeds, with `--scale tiny`.  It checks that each run is correct, that the
result line has the contract's keys and exactly the metric names and units
of BENCHMARK.json, that end-to-end values are positive, and that the count
metrics come out identical in the two traced runs.  It also checks that the
benchmark refuses, without a result line, to run in a directory that holds
only BENCHMARK.json and the benchmark.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from tracing import COUNTS  # noqa: E402


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=180)


def check_result(proc: subprocess.CompletedProcess, metrics: dict[str, str]) -> list[str]:
    """Problems with one run's exit code and result line."""
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr[-500:]}"]
    res = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(res)}")
    if res.get("correct") is not True or res.get("failed") != 0:
        problems.append(f"not correct: {proc.stdout.splitlines()[-2][:500]}")
    if not isinstance(res.get("attempted"), int) or res["attempted"] < 1:
        problems.append(f"attempted {res.get('attempted')!r}")
    got = res.get("metrics", {})
    if set(got) != set(metrics):
        problems.append(f"metric names differ: {sorted(set(got) ^ set(metrics))}")
    for name, m in got.items():
        value = m.get("value")
        if set(m) != {"value", "unit"} or m.get("unit") != metrics.get(name):
            problems.append(f"{name}: {m}")
        elif isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for w in (w["name"] for w in spec["workloads"]):
        untraced = run(w, 1, 0)
        problems += [f"{w} untraced: {p}" for p in check_result(untraced, end_to_end)]
        if untraced.returncode == 0:
            values = json.loads(untraced.stdout.splitlines()[-1])["metrics"]
            problems += [f"{w}: {k} is not positive" for k, m in values.items()
                         if m["value"] <= 0]
        traced = [run(w, seed, 1) for seed in (1, 2)]
        for seed, proc in zip((1, 2), traced):
            problems += [f"{w} traced, seed {seed}: {p}" for p in check_result(proc, per_layer)]
        if all(p.returncode == 0 for p in traced):
            a, b = (json.loads(p.stdout.splitlines()[-1])["metrics"] for p in traced)
            problems += [f"{w}: {k} {a[k]['value']} != {b[k]['value']} under another seed"
                         for k in COUNTS if a[k]["value"] != b[k]["value"]]
        print(f"{w}: checked", flush=True)

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(spec["workloads"][0]["name"], 1, 0, cwd=Path(bare))
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"ran without the package: exit {proc.returncode}, {proc.stdout!r}")

    for p in problems:
        print(f"FAIL {p}")
    print("ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
