"""One benchmark process: set up, then run one workload and report on it.

Started by run.py, never by hand.  It imports numpy and subrank from the
checkout's `src/`, runs one warm-up rank verification on (6,6,6) at r=4
and prints a `ready` line; that is the set-up that run.py times.  With
`--setup-only` it stops there.  Otherwise it runs whole passes over the
workload's tasks until `--seconds` is spent (at least one pass) and prints
one JSON line with pass times, per-shape times, failures, peak RSS and the
environment.

With `--trace 1` the first pass runs with spans and tracemalloc on, for
allocation peaks only, the second runs untraced as the reference, and the
passes after it, at least one and more while `--seconds` lasts, run with
spans on and give the per-layer times.  The spans are written to
`perfbench/out/` at the end.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402
import subrank  # noqa: E402
from subrank import modular, pattern  # noqa: E402


def warm_up() -> bool:
    pm = pattern.build_pattern(4, (6, 6, 6))
    return modular.verify_generic_rank(pm, pm.n_rows).ok


class ShapeClock:
    """Times each shape from its `begin` to the next `begin` or `end`."""

    def __init__(self, tracer=None) -> None:
        self.ms: dict[str, list[float]] = defaultdict(list)
        self.tracer = tracer
        self.current: str | None = None
        self.t0 = 0.0

    def begin(self, shape_id: str) -> None:
        if shape_id == self.current:
            return
        now = time.perf_counter()
        self._close(now)
        self.current, self.t0 = shape_id, now
        if self.tracer is not None:
            self.tracer.shape = shape_id

    def end(self) -> None:
        self._close(time.perf_counter())
        self.current = None

    def _close(self, now: float) -> None:
        if self.current is not None:
            self.ms[self.current].append((now - self.t0) * 1e3)


class Run:
    """Passes over one workload, with their shape times and failures."""

    def __init__(self, tasks: list, seed: int) -> None:
        self.tasks = tasks
        self.seed = seed
        self.shape_ms: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, messages: list[str]) -> None:
        self.failed += 1
        self.problems.extend(messages[:1])

    def one_pass(self, tracer=None) -> float:
        clock = ShapeClock(tracer)
        t0 = time.perf_counter()
        for task in self.tasks:
            try:
                problems = task.run(self.seed, clock.begin)
            except Exception as exc:  # a crash is a failed shape; keep measuring
                problems = {sid: [f"{sid}: {type(exc).__name__}: {exc}"] for sid in task.ids}
            clock.end()
            self.attempted += len(task.ids)
            for sid, messages in problems.items():
                self.fail([f"{sid}: {m}" for m in messages])
        wall = time.perf_counter() - t0
        for sid, ms in clock.ms.items():
            self.shape_ms[sid].extend(ms)
        return wall


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def git_revision() -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    """sha256 over the package sources, for checkouts without git metadata."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "prime": modular.DEFAULT_PRIME,
        "seed": seed,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = ap.parse_args()

    if not Path(subrank.__file__).resolve().is_relative_to(SRC):
        print(f"error: subrank imported from {subrank.__file__}, not {SRC}", file=sys.stderr)
        return 2
    ready = warm_up()
    print(json.dumps({"ready": ready}), flush=True)
    if args.setup_only:
        return 0

    from tracing import Tracer, combine, pass_metrics
    from workloads import pinned_reference, tasks_for

    run = Run(tasks_for(args.workload, args.scale, args.seed), args.seed)
    run.attempted += 2
    if not ready:
        run.fail(["warm-up: (6,6,6) r=4 did not verify"])
    pinned = pinned_reference()
    if pinned:
        run.fail(pinned)

    deadline = time.perf_counter() + args.seconds
    result: dict = {}
    if args.trace:
        # The allocation pass goes first: it also warms the process up, so
        # that the untraced pass after it is a fair reference.
        tracer = Tracer()
        with tracer.installed(alloc=True):
            traced = [run.one_pass(tracer)]
        walls = [run.one_pass()]
        with tracer.installed():
            while len(traced) < 2 or time.perf_counter() + statistics.median(traced[1:]) <= deadline:
                tracer.pass_no = len(traced)
                traced.append(run.one_pass(tracer))
        per_pass = [pass_metrics(tracer.spans, i, wall) for i, wall in enumerate(traced)]
        layers, changed = combine(per_pass[1:], per_pass[0], walls[0])
        for message in changed:
            run.fail([message])
        result["layers"] = layers
        result["traced_walls"] = traced
    else:
        walls = [run.one_pass()]
        while time.perf_counter() + statistics.median(walls) <= deadline:
            walls.append(run.one_pass())

    env = environment(args.seed)
    if args.trace:
        result["trace_file"] = write_spans(args.workload, env, tracer.spans, per_pass)
    result.update({
        "walls": walls,
        "shape_ms": run.shape_ms,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": env,
    })
    print(json.dumps(result), flush=True)
    return 0


def write_spans(workload: str, env: dict, spans: list[list], per_pass: list[dict]) -> str:
    """Writes the traced run's spans and per-pass layer figures as JSON."""
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{workload}-seed{env['seed']}.json"
    doc = {
        "workload": workload,
        "env": env,
        "fields": ["name", "start", "end", "parent", "shape", "pass", "attrs"],
        "spans": spans,
        "passes": per_pass,
    }
    path.write_text(json.dumps(doc))
    return str(path.relative_to(ROOT))


if __name__ == "__main__":
    sys.exit(main())
