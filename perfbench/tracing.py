"""Spans around the package's public functions, recorded from outside it.

`Tracer.installed` rebinds each traced function in every loaded `subrank`
module that holds it by name (so `subrank.cli.build_pattern` and
`subrank.modular.rank_mod_p` are wrapped where their callers look them up),
and puts the originals back when its block ends.  Spans stay in memory as
`[name, start, end, parent, shape, pass, attrs]` until the run ends.

Allocation peaks come from tracemalloc, and only while `alloc` is set.
tracemalloc slows allocation-heavy Python code several times over, so it
runs in a pass of its own whose times are not reported, and only inside
spans that never nest in one another (build, instantiate, rank): each such
call starts tracemalloc on entry and stops it on exit.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict


def _pattern(args, kwargs, pm):
    return {"nnz": pm.nnz, "rows": pm.n_rows, "cols": pm.n_cols}


def _steps(args, kwargs, cert):
    return {"steps": len(cert.steps)}


def _ok(args, kwargs, verdict):
    return {"ok": verdict.ok}


def _expected(args, kwargs, verdict):
    return {"expected": args[1] if len(args) > 1 else kwargs["expected"],
            "ok": verdict.ok}


def _rank(args, kwargs, rank):
    mm = args[0] if args else kwargs["mm"]
    return {"m": mm.n_rows, "n": mm.n_cols, "rank": rank}


# (span name, module, function, attrs from (args, kwargs, result), alloc peak)
TRACED = [
    ("pattern.build", "subrank.pattern", "build_pattern", _pattern, True),
    ("certificate.find", "subrank.certificate", "find_certificate", _steps, False),
    ("certificate.validate", "subrank.certificate", "validate", _ok, False),
    ("modular.assign", "subrank.modular", "random_assignment", None, False),
    ("modular.instantiate", "subrank.modular", "instantiate", None, True),
    ("modular.rank", "subrank.modular", "rank_mod_p", _rank, True),
    ("modular.verify", "subrank.modular", "verify_generic_rank", _expected, False),
    ("modular.oracle", "subrank.modular", "subspace_dimension_oracle", None, False),
    ("formulas.generic_subrank", "subrank.formulas", "generic_subrank", None, False),
    ("formulas.dim_C_r", "subrank.formulas", "dim_C_r", None, False),
    ("formulas.classify", "subrank.formulas", "classify", None, False),
    ("formulas.pattern_col_count", "subrank.formulas", "pattern_col_count", None, False),
    ("cli.main", "subrank.cli", "main", None, False),
]

NAME, START, END, PARENT, SHAPE, PASS, ATTRS = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.shape: str | None = None
        self.pass_no = 0
        self.alloc = False
        self._stack: list[int] = []

    def _wrap(self, name, fn, describe, alloc):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None,
                    self.shape, self.pass_no, None]
            stack.append(len(spans))
            spans.append(span)
            measure = alloc and self.alloc
            if measure:
                tracemalloc.start()
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                if measure:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            attrs = describe(args, kwargs, result) if describe else {}
            if measure:
                attrs["alloc_mb"] = peak / 2**20
            span[ATTRS] = attrs
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, alloc: bool = False):
        """Traced functions rebound while the block runs; `alloc` turns the
        allocation peaks on."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "subrank" or key.startswith("subrank."))]
        saved = []
        self.alloc = alloc
        try:
            for name, home, attr, describe, measure in TRACED:
                fn = getattr(sys.modules[home], attr)
                wrapped = self._wrap(name, fn, describe, measure)
                for mod in modules:
                    if getattr(mod, attr, None) is fn:
                        saved.append((mod, attr, fn))
                        setattr(mod, attr, wrapped)
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)
            self.alloc = False


def rank_ops(m: int, n: int, rank: int) -> int:
    """Multiply-adds of row elimination, sum over i < rank of (m-i-1)(n-i)."""
    return sum((m - i - 1) * (n - i) for i in range(rank))


def pass_metrics(spans: list[list], pass_no: int, wall_s: float) -> dict[str, float]:
    """Per-layer figures of one traced pass; times are self times."""
    mine = [idx for idx, s in enumerate(spans) if s[PASS] == pass_no]
    child = defaultdict(float)
    for idx in mine:
        s = spans[idx]
        if s[PARENT] is not None:
            child[s[PARENT]] += s[END] - s[START]
    by_name = defaultdict(list)
    self_s = defaultdict(float)
    for idx in mine:
        s = spans[idx]
        by_name[s[NAME]].append(s)
        self_s[s[NAME]] += s[END] - s[START] - child[idx]

    def attr(name, key):
        return [s[ATTRS][key] for s in by_name[name] if key in s[ATTRS]]

    def ratio(a, b):
        return a / b if b else 0.0

    def under(name, parent):
        return [s for s in by_name[name]
                if s[PARENT] is not None and spans[s[PARENT]][NAME] == parent]

    ranks = by_name["modular.rank"]
    trials = under("modular.rank", "modular.verify")
    full = sum(1 for s in trials if s[ATTRS]["rank"] >= spans[s[PARENT]][ATTRS]["expected"])
    oracle_rows = sum(s[ATTRS]["m"] for s in under("modular.rank", "modular.oracle"))
    ops = sum(rank_ops(a["m"], a["n"], a["rank"]) for a in (s[ATTRS] for s in ranks))
    nnz = sum(attr("pattern.build", "nnz"))
    formulas = [n for n in by_name if n.startswith("formulas.")]
    top = sum(spans[i][END] - spans[i][START] for i in mine if spans[i][PARENT] is None)
    return {
        "pattern.build_s": self_s["pattern.build"],
        "pattern.calls": len(by_name["pattern.build"]),
        "pattern.nnz": nnz,
        "pattern.nnz_per_s": ratio(nnz, self_s["pattern.build"]),
        "pattern.peak_alloc_mb": max(attr("pattern.build", "alloc_mb"), default=0.0),
        "certificate.find_s": self_s["certificate.find"],
        "certificate.validate_s": self_s["certificate.validate"],
        "certificate.steps": sum(attr("certificate.find", "steps")),
        "certificate.ok_ratio": ratio(sum(attr("certificate.validate", "ok")),
                                      len(by_name["certificate.validate"])),
        "modular.assign_s": self_s["modular.assign"],
        "modular.instantiate_s": self_s["modular.instantiate"],
        "modular.instantiate_peak_alloc_mb": max(attr("modular.instantiate", "alloc_mb"),
                                                 default=0.0),
        "modular.rank_s": self_s["modular.rank"],
        "modular.rank_calls": len(ranks),
        "modular.rank_ops": ops,
        "modular.rank_bytes": sum(8 * s[ATTRS]["m"] * s[ATTRS]["n"] for s in ranks),
        "modular.rank_gops_per_s": ratio(ops, self_s["modular.rank"]) / 1e9,
        "modular.rank_peak_alloc_mb": max(attr("modular.rank", "alloc_mb"), default=0.0),
        "modular.trials": len(trials),
        "modular.trial_success_ratio": ratio(full, len(trials)),
        "modular.oracle_s": self_s["modular.oracle"],
        "modular.oracle_rows": oracle_rows,
        "formulas.s": sum(self_s[n] for n in formulas),
        "formulas.calls": sum(len(by_name[n]) for n in formulas),
        "cli.s": self_s["cli.main"],
        "trace.wall_s": wall_s,
        "trace.coverage": ratio(top, wall_s),
    }


# Figures that count work; they must come out the same on every pass.
COUNTS = ("pattern.calls", "pattern.nnz", "certificate.steps", "certificate.ok_ratio",
          "modular.rank_calls", "modular.rank_ops", "modular.rank_bytes", "modular.trials",
          "modular.trial_success_ratio", "modular.oracle_rows", "formulas.calls")
PEAKS = ("pattern.peak_alloc_mb", "modular.instantiate_peak_alloc_mb",
         "modular.rank_peak_alloc_mb")


def combine(timed: list[dict[str, float]], alloc: dict[str, float],
            untraced_s: float) -> tuple[dict[str, float], list[str]]:
    """Times as the median over the timed passes, peaks from the allocation
    pass, counts from the first pass; also the counts that changed between
    passes."""
    out, changed = {}, []
    for key in timed[0]:
        values = [p[key] for p in timed + [alloc]]
        if key in COUNTS:
            out[key] = values[0]
            if len(set(values)) > 1:
                changed.append(f"{key} differs between passes: {values}")
        elif key in PEAKS:
            out[key] = alloc[key]
        else:
            out[key] = statistics.median(values[:-1])
    out["trace.overhead_s"] = out["trace.wall_s"] - untraced_s
    out["trace.alloc_overhead_s"] = alloc["trace.wall_s"] - untraced_s
    return out, changed
