"""Workloads of the subrank benchmark: inputs from a seed, pipelines, checks.

A workload is a list of tasks.  A task is one shape, that is one `(dims, r)`
taken through the workload's pipeline, except the CLI table, which is one
`subrank.cli.main` call that covers one shape per table row.  The workload
seed is the `base_seed` handed to the package and also fixes the task order.

Pipelines look the package functions up through their modules at call time
(`pattern.build_pattern(...)`, never a name imported once), so that the
tracer can rebind them.  Each check returns the problems it found; an empty
list means the shape came out right.

Which layer should move which end-to-end metric, on which workload:

- `modular.rank_*` moves `wall_s`, `shape_tail_ms` and `peak_rss_mb` on
  large-verify and dim-oracle.
- `pattern.*` and `certificate.*` move `wall_s` and `shape_p50_ms` on
  table-verify and `wall_s` on large-verify, and should leave dim-oracle
  unchanged (it builds no pattern).
- `modular.instantiate_peak_alloc_mb` moves `peak_rss_mb` on large-verify.
- `modular.trials` and `cli.s` move table-verify.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
from dataclasses import dataclass
from typing import Callable

from subrank import certificate, cli, formulas, modular, pattern

PRIME = modular.DEFAULT_PRIME
TRIALS = 3

Problems = dict[str, list[str]]
Begin = Callable[[str], None]

_RANKS = re.compile(r"ranks \[([0-9, ]*)\]")


def trial_ranks(detail: str) -> list[int] | None:
    """Ranks of every trial, read back from a rank verdict's detail text."""
    m = _RANKS.search(detail)
    if m is None:
        return None
    return [int(x) for x in m.group(1).split(",") if x.strip()]


# -- pipelines ----------------------------------------------------------------


def full_pipeline(dims: tuple[int, ...], r: int, seed: int) -> list[str]:
    """Q -> pattern -> certificate -> validate -> rank trial, at r = Q."""
    problems = []
    q = formulas.generic_subrank(dims).q
    if q != r:
        problems.append(f"Q{dims} = {q}, expected {r}")
    pm = pattern.build_pattern(r, dims)
    problems += _certificate_problems(pm)
    verdict = modular.verify_generic_rank(pm, pm.n_rows, TRIALS, PRIME, seed)
    ranks = trial_ranks(verdict.detail)
    if not verdict.ok or not ranks or ranks[-1] != pm.n_rows:
        problems.append(f"no full-rank trial at r = Q: {verdict.detail}")
    return problems


def overshoot_pipeline(dims: tuple[int, ...], r: int, seed: int) -> list[str]:
    """Rank trials at r = Q + 1, where columns < rows: none may verify."""
    pm = pattern.build_pattern(r, dims)
    verdict = modular.verify_generic_rank(pm, pm.n_rows, TRIALS, PRIME, seed)
    ranks = trial_ranks(verdict.detail)
    if verdict.ok:
        return [f"verified with {pm.n_cols} columns < {pm.n_rows} rows"]
    if ranks is None or len(ranks) != TRIALS or max(ranks) > pm.n_cols:
        return [f"trial ranks {ranks} wrong for {pm.n_cols} columns: {verdict.detail}"]
    return []


def oracle_pipeline(dims: tuple[int, ...], r: int, seed: int) -> list[str]:
    """Closed-form locus dimension against the spanning-set rank oracle."""
    want = formulas.dim_C_r(dims, r)
    got = modular.subspace_dimension_oracle(dims, r, PRIME, seed)
    if want.regime != "formula" or got != want.dim:
        return [f"oracle {got} vs dim_C_r {want.dim} ({want.regime})"]
    return []


def _certificate_problems(pm: pattern.PatternMatrix) -> list[str]:
    cert = certificate.find_certificate(pm)
    verdict = certificate.validate(pm, cert)
    if not verdict.ok:
        return [f"certificate rejected: {verdict.detail}"]
    if cert.degree != pm.n_rows:
        return [f"monomial degree {cert.degree} != {pm.n_rows} rows"]
    return []


def pinned_reference() -> list[str]:
    """The worked example: (6,6,6) at r=4 takes 22 steps to a degree-24 monomial."""
    cert = certificate.find_certificate(pattern.build_pattern(4, (6, 6, 6)))
    if (len(cert.steps), cert.degree) != (22, 24):
        return [f"(6,6,6) r=4: {len(cert.steps)} steps, degree {cert.degree}; want 22, 24"]
    return []


# -- tasks ----------------------------------------------------------------------


@dataclass(frozen=True)
class Shape:
    """One `(dims, r)` through one pipeline."""

    kind: str
    dims: tuple[int, ...]
    r: int
    pipeline: Callable[[tuple[int, ...], int, int], list[str]]

    @property
    def ids(self) -> tuple[str, ...]:
        return (f"{self.kind}-{'x'.join(map(str, self.dims))}-r{self.r}",)

    def run(self, seed: int, begin: Begin) -> Problems:
        (sid,) = self.ids
        begin(sid)
        problems = self.pipeline(self.dims, self.r, seed)
        return {sid: problems} if problems else {}


@dataclass(frozen=True)
class Table:
    """`subrank table --max N --verify` in-process; one shape per CSV row.

    `expected` holds the CSV rows, worked out before timing starts.
    """

    max_n: int
    expected: tuple[str, ...]

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(f"table-n{n}" for n in range(1, self.max_n + 1))

    def run(self, seed: int, begin: Begin) -> Problems:
        # The CLI builds one pattern per row, so a marker on its
        # build_pattern tells where each row starts.
        build = cli.build_pattern

        def marked(r, dims):
            begin(f"table-n{dims[0]}")
            return build(r, dims)

        out = io.StringIO()
        begin(self.ids[0])
        cli.build_pattern = marked
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(["table", "--max", str(self.max_n), "--verify",
                                 "--seed", str(seed)])
        finally:
            cli.build_pattern = build
        return self.check(code, out.getvalue())

    def check(self, code: int, text: str) -> Problems:
        lines = text.splitlines()
        if not lines or lines[0] != "n,q,rows,cols,certificate_ok,rank_ok":
            return {sid: [f"bad CSV header in {text[:80]!r}"] for sid in self.ids}
        got = lines[1:] + [""] * (self.max_n + 1 - len(lines))
        problems: Problems = {}
        for sid, row, want in zip(self.ids, got, self.expected):
            if row != want:
                problems[sid] = [f"row {row!r}, want {want!r}"]
        if len(lines) != self.max_n + 1:
            problems.setdefault(self.ids[-1], []).append(f"{len(lines) - 1} rows")
        if code != 0 and not problems:
            problems[self.ids[0]] = [f"exit code {code} with every row verified"]
        return problems


# -- workloads ----------------------------------------------------------------------


def large_verify(scale: str) -> list:
    """The only workload where dense F_p elimination and its memory dominate."""
    shapes = [((64, 64, 64), 13), ((55, 55, 55, 55), 6)]
    if scale == "tiny":
        shapes = [((12, 12, 12), 5), ((8, 8, 8, 8), 3)]
    return [Shape("full", dims, r, full_pipeline) for dims, r in shapes]


def table_verify(scale: str) -> list:
    """The CLI path plus r = Q + 1 trials that must stay unverified."""
    max_n, max_over = (32, 24) if scale == "full" else (8, 6)
    expected = []
    for n in range(1, max_n + 1):
        # k = 3: rows = q(q-1)(q-2), cols = 3q(n-q).
        q = formulas.generic_subrank((n, n, n)).q
        expected.append(f"{n},{q},{q * (q - 1) * (q - 2)},{3 * q * (n - q)},true,true")
    tasks: list = [Table(max_n, tuple(expected))]
    for n in range(1, max_over + 1):
        dims = (n, n, n)
        r = formulas.generic_subrank(dims).q + 1
        if r > n:
            continue
        report = formulas.classify(dims, r)
        if report.n_cols < report.n_rows:
            tasks.append(Shape("over", dims, r, overshoot_pipeline))
    return tasks


def dim_oracle(scale: str) -> list:
    """Tall, mostly-unit-vector rank inputs at r = Q + 1, the first formula r."""
    shapes = [(10, 10, 10), (12, 12, 12), (6, 8, 10), (4, 4, 4, 4), (6, 6, 6, 6)]
    if scale == "tiny":
        shapes = [(4, 4, 4), (4, 4, 4, 4)]
    return [Shape("oracle", dims, formulas.generic_subrank(dims).q + 1, oracle_pipeline)
            for dims in shapes]


WORKLOADS = {
    "large-verify": large_verify,
    "table-verify": table_verify,
    "dim-oracle": dim_oracle,
}


def tasks_for(name: str, scale: str, seed: int) -> list:
    """The workload's tasks in the order the seed gives them.

    The CLI table keeps its own row order; only whole tasks are shuffled.
    """
    tasks = WORKLOADS[name](scale)
    random.Random(seed).shuffle(tasks)
    return tasks
