"""Benchmark of the subrank pattern -> certificate -> rank pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/`, nothing is installed.  The workloads are in `workloads.py`.  Every
shape's verdict is checked, and the last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.  The line before
it is a JSON summary: environment, pass and shape counts, the tail
percentile, the failure ratio and the first problems found.

`--trace 0` reports the end-to-end metrics:

- `setup_s`: median over fresh interpreters of the time until numpy and
  subrank are imported and one rank verification of (6,6,6), r=4 returned.
- `wall_s`: median time of one pass over the workload, tracing off.
- `shape_p50_ms`, `shape_tail_ms`: over the workload's shapes, each taken
  as its median over the passes; the tail is the highest percentile with at
  least ten shapes above it, or the maximum when there are fewer.
- `peak_rss_mb`: peak RSS of the process that ran only this workload.

`--trace 1` reports the per-layer metrics of `tracing.py` from a separate
process whose first pass runs spans and tracemalloc for the allocation
peaks, whose second pass runs untraced, and whose later passes are traced.
`trace.overhead_s` is traced minus untraced pass time, and
`trace.alloc_overhead_s` the same for the tracemalloc pass.

Failures (wrong verdicts, exceptions, output mismatches) are counted in
`failed` against the shapes in `attempted`; a run with any failure is not
`correct`.  The benchmark exits 2 without a result when the checkout has no
`src/subrank`, and 1 when the workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("large-verify", "table-verify", "dim-oracle")
SETUP_PROBES = 7
TIME_LIMIT_S = 170

END_TO_END = {"setup_s": "s", "wall_s": "s", "shape_p50_ms": "ms",
              "shape_tail_ms": "ms", "peak_rss_mb": "MB"}
PER_LAYER = {
    "pattern.build_s": "s", "pattern.calls": "count", "pattern.nnz": "count",
    "pattern.nnz_per_s": "1/s", "pattern.peak_alloc_mb": "MB",
    "certificate.find_s": "s", "certificate.validate_s": "s",
    "certificate.steps": "count", "certificate.ok_ratio": "ratio",
    "modular.assign_s": "s", "modular.instantiate_s": "s",
    "modular.instantiate_peak_alloc_mb": "MB",
    "modular.rank_s": "s", "modular.rank_calls": "count",
    "modular.rank_ops": "computed_ops", "modular.rank_bytes": "computed_B",
    "modular.rank_gops_per_s": "computed_Gop/s", "modular.rank_peak_alloc_mb": "MB",
    "modular.trials": "count", "modular.trial_success_ratio": "ratio",
    "modular.oracle_s": "s", "modular.oracle_rows": "count",
    "formulas.s": "s", "formulas.calls": "count", "cli.s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.alloc_overhead_s": "s",
    "trace.coverage": "ratio",
}


def child_env() -> dict[str, str]:
    """The environment for benchmark processes: BLAS threads at most the
    usable cores, and no SUBRANK_SEED (the seed is passed as a flag)."""
    env = dict(os.environ)
    env.pop("SUBRANK_SEED", None)
    cores = len(os.sched_getaffinity(0))
    try:
        threads = min(cores, int(env.get("OPENBLAS_NUM_THREADS", cores)))
    except ValueError:
        threads = cores
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(max(1, threads))
    return env


def time_setup(env: dict[str, str], deadline: float) -> float:
    """Seconds from starting a fresh interpreter until the worker is ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), "--setup-only"],
                            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    # A wrong warm-up verdict is counted as a failure by the workload run.
    if proc.returncode != 0 or "ready" not in json.loads(line or "{}"):
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}, said {line!r})")
    return elapsed


def run_worker(args, env: dict[str, str], deadline: float) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scale", args.scale]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"workload process failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least ten values
    above it, or (100, maximum) when there are ten values or fewer."""
    values = sorted(values)
    n = len(values)
    if n <= 10:
        return 100.0, values[-1]
    return 100.0 * (n - 10) / n, values[n - 11]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny shapes, for the self-test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "subrank" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'subrank'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + TIME_LIMIT_S
    env = child_env()
    try:
        setups = [] if args.trace else [time_setup(env, deadline)
                                        for _ in range(SETUP_PROBES)]
        res = run_worker(args, env, deadline)
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    shape_medians = [statistics.median(ms) for ms in res["shape_ms"].values()]
    pct, tail_ms = tail(shape_medians)
    summary = {
        "workload": args.workload,
        "env": res["env"],
        "passes": len(res["walls"]),
        "shapes": len(shape_medians),
        "shape_tail_percentile": pct,
        "fail_ratio": res["failed"] / res["attempted"],
        "problems": res["problems"],
    }
    if args.trace:
        summary["traced_passes"] = len(res["traced_walls"])
        summary["trace_file"] = res["trace_file"]
        values = res["layers"]
        units = PER_LAYER
    else:
        summary["setup_probes_s"] = setups
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(res["walls"]),
            "shape_p50_ms": statistics.median(shape_medians),
            "shape_tail_ms": tail_ms,
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = END_TO_END
    print(json.dumps(summary))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
