"""Sparse symbolic pattern matrix with rows indexed by admissible tuples.

For parameters r and dims (n_1, ..., n_k) with r <= min(n_i), the matrix
has one row per admissible k-tuple over [r] and one column per triple
(t, m, s) with t in [k], m in [r], s in [n_t - r].  The entry at row
(j_1, ..., j_k) and column (t, m, s) is the variable a^{t,s} subscripted by
the row with coordinate t deleted when m = j_t, and zero otherwise.  Every
variable occurs at most once per row and once per column.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

from .combinatorics import count_rows, enumerate_rows


@dataclass(frozen=True, order=True)
class Variable:
    """Matrix variable a^{t,s}_{w}: direction t, slot s, reduced tuple w."""

    t: int
    s: int
    reduced: tuple[int, ...]

    @property
    def label(self) -> str:
        subscript = ",".join(str(c) for c in self.reduced)
        return f"a^{{{self.t},{self.s}}}_{{{subscript}}}"

    def __str__(self) -> str:
        return self.label


_VAR_RE = re.compile(r"^a\^\{(\d+),(\d+)\}_\{(\d+(?:,\d+)*)\}$")


def parse_variable(label: str) -> Variable:
    """Inverse of Variable.label."""
    m = _VAR_RE.match(label)
    if m is None:
        raise ValueError(f"malformed variable label: {label!r}")
    reduced = tuple(int(c) for c in m.group(3).split(","))
    return Variable(t=int(m.group(1)), s=int(m.group(2)), reduced=reduced)


class PatternMatrix:
    """Immutable sparse symbolic matrix plus row/column/variable indexes.

    Entries are three parallel integer arrays sorted by row, then column,
    computed from the entry rule; one stable argsort of `entry_vars` indexes
    the occurrences of each variable.
    """

    def __init__(self, r: int, dims: tuple[int, ...]):
        k = len(dims)
        if k < 3:
            raise ValueError(f"order k must be at least 3, got {k}")
        if any(n < 1 for n in dims):
            raise ValueError(f"dimensions must be positive, got {dims}")
        if r < 1:
            raise ValueError(f"r must be positive, got {r}")
        if r > min(dims):
            raise ValueError(f"r={r} exceeds min dimension {min(dims)} of {dims}")

        self.r = r
        self.dims = tuple(dims)
        self.k = k
        self.rows: tuple[tuple[int, ...], ...] = tuple(enumerate_rows(r, k))
        self.cols: tuple[tuple[int, int, int], ...] = tuple(
            (t, m, s)
            for t in range(1, k + 1)
            for m in range(1, r + 1)
            for s in range(1, dims[t - 1] - r + 1)
        )
        self.row_pos = {p: i for i, p in enumerate(self.rows)}
        self.col_pos = {c: j for j, c in enumerate(self.cols)}

        # One nonzero per row and (t, s) pair, at column (t, j_t, s), holding
        # a^{t,s}_w with w the row minus coordinate t.  Per direction t the
        # entries form an (n_rows, n_t - r) block; placing the blocks side by
        # side in t order keeps the entries sorted by row, then column.
        rows = np.array(self.rows, dtype=np.intp).reshape(-1, k)
        place = r ** np.arange(k - 2, -1, -1)
        col_blocks, var_blocks = [], []
        variables: list[Variable] = []
        col0 = 0
        for t in range(1, k + 1):
            slots = dims[t - 1] - r
            w = np.delete(rows, t - 1, axis=1)
            # Base-r codes of w sort like w, so unique numbers the reduced
            # tuples in lexicographic order and the variables come out in
            # (t, s, w) order, which seeded assignments depend on.
            _, first, w_num = np.unique(
                (w - 1) @ place, return_index=True, return_inverse=True
            )
            s = np.arange(slots)  # s - 1 for the slots s = 1..n_t - r
            col_blocks.append(col0 + (rows[:, [t - 1]] - 1) * slots + s)
            var_blocks.append(len(variables) + s * len(first) + w_num.reshape(-1, 1))
            reduced = [tuple(x) for x in w[first].tolist()]
            variables += [Variable(t, si, x) for si in range(1, slots + 1) for x in reduced]
            col0 += r * slots
        self.variables: tuple[Variable, ...] = tuple(variables)
        self.var_pos = {v: vi for vi, v in enumerate(self.variables)}
        self.entry_cols = np.hstack(col_blocks).ravel()
        self.entry_vars = np.hstack(var_blocks).ravel()
        self.entry_rows = np.repeat(np.arange(len(rows)), sum(dims) - k * r)
        # Entry numbers grouped by variable, in row order within a group.
        self._occ_order = np.argsort(self.entry_vars, kind="stable")
        self._occ_start = np.searchsorted(
            self.entry_vars[self._occ_order], np.arange(len(variables) + 1)
        )

    # -- basic facts ------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.cols)

    @property
    def nnz(self) -> int:
        return len(self.entry_rows)

    def var_occ(self, vi: int) -> list[tuple[int, int]]:
        """(row index, column index) of every occurrence of variable vi, by row."""
        at = self._occ_order[self._occ_start[vi] : self._occ_start[vi + 1]]
        return list(zip(self.entry_rows[at].tolist(), self.entry_cols[at].tolist()))

    def entry(self, p: tuple[int, ...], c: tuple[int, int, int]) -> Variable | None:
        """Variable at row p, column c = (t, m, s); None where the matrix is zero."""
        t, m, s = c
        if c not in self.col_pos or p not in self.row_pos:
            raise KeyError(f"position ({p}, {c}) outside the matrix")
        if p[t - 1] != m:
            return None
        return Variable(t=t, s=s, reduced=p[: t - 1] + p[t:])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PatternMatrix):
            return NotImplemented
        return self.r == other.r and self.dims == other.dims

    def __hash__(self) -> int:
        return hash((self.r, self.dims))

    def __repr__(self) -> str:
        return (
            f"PatternMatrix(r={self.r}, dims={self.dims}, "
            f"{self.n_rows}x{self.n_cols}, nnz={self.nnz})"
        )


def build_pattern(r: int, dims: tuple[int, ...]) -> PatternMatrix:
    """Construct the pattern matrix for parameters (r, dims)."""
    pm = PatternMatrix(r, tuple(dims))
    assert pm.n_rows == count_rows(r, pm.k)
    return pm


def occurrences(
    pm: PatternMatrix, v: Variable
) -> set[tuple[tuple[int, ...], tuple[int, int, int]]]:
    """All nonzero positions of v as (row tuple, column triple) pairs.

    Positions of one variable have pairwise distinct rows and pairwise
    distinct columns.  Unknown variables give the empty set.
    """
    vi = pm.var_pos.get(v)
    if vi is None:
        return set()
    return {(pm.rows[i], pm.cols[j]) for i, j in pm.var_occ(vi)}


# -- serialization ---------------------------------------------------------


def _entries(pm: PatternMatrix) -> zip[tuple[int, int, int]]:
    """(row, column, variable) index triples as Python ints, row-major."""
    return zip(pm.entry_rows.tolist(), pm.entry_cols.tolist(), pm.entry_vars.tolist())


def pattern_to_json(pm: PatternMatrix) -> str:
    """Lossless JSON form with stable key order."""
    doc = {
        "r": pm.r,
        "dims": list(pm.dims),
        "rows": [list(p) for p in pm.rows],
        "cols": [list(c) for c in pm.cols],
        "entries": [
            {"row": i, "col": j, "var": pm.variables[vi].label}
            for i, j, vi in _entries(pm)
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=False)


def pattern_from_json(text: str) -> PatternMatrix:
    """Rebuild a pattern from its JSON form, cross-checking every entry."""
    doc = json.loads(text)
    try:
        r, dims = int(doc["r"]), tuple(int(n) for n in doc["dims"])
        rows = [tuple(p) for p in doc["rows"]]
        cols = [tuple(c) for c in doc["cols"]]
        entries = [((int(e["row"]), int(e["col"])), parse_variable(e["var"]))
                   for e in doc["entries"]]
    except (KeyError, TypeError) as e:
        raise ValueError(f"malformed pattern JSON: {e!r}") from e
    pm = build_pattern(r, dims)
    if rows != list(pm.rows) or cols != list(pm.cols):
        raise ValueError("row/column labels disagree with the stated r and dims")
    if len(entries) != pm.nnz:
        raise ValueError(f"entry list has {len(entries)} entries, expected {pm.nnz}")
    listed = dict(entries)
    actual = {(i, j): pm.variables[vi] for i, j, vi in _entries(pm)}
    if listed != actual:
        raise ValueError("entry list disagrees with the stated r and dims")
    return pm


def pattern_to_coordinate_list(pm: PatternMatrix) -> str:
    """Newline-delimited ASCII form: "nRows nCols nnz" header, then one
    "rowIdx colIdx varName" line per nonzero (1-based indices)."""
    lines = [f"{pm.n_rows} {pm.n_cols} {pm.nnz}"]
    for i, j, vi in _entries(pm):
        lines.append(f"{i + 1} {j + 1} {pm.variables[vi].label}")
    return "\n".join(lines) + "\n"


def parse_coordinate_list(text: str) -> tuple[int, int, list[tuple[int, int, Variable]]]:
    """Parse the coordinate-list form back into (nRows, nCols, entries)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("missing header")
    n_rows, n_cols, nnz = (int(x) for x in lines[0].split())
    entries = []
    for ln in lines[1:]:
        si, sj, label = ln.split(" ", 2)
        entries.append((int(si) - 1, int(sj) - 1, parse_variable(label)))
    if len(entries) != nnz:
        raise ValueError(f"header declares {nnz} entries, found {len(entries)}")
    return n_rows, n_cols, entries
