"""Sparse symbolic pattern matrix with rows indexed by admissible tuples.

For parameters r and dims (n_1, ..., n_k) with r <= min(n_i), the matrix
has one row per admissible k-tuple over [r] and one column per triple
(t, m, s) with t in [k], m in [r], s in [n_t - r].  The entry at row
(j_1, ..., j_k) and column (t, m, s) is the variable a^{t,s} subscripted by
the row with coordinate t deleted when m = j_t, and zero otherwise.  Every
variable occurs at most once per row and once per column.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
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
    """Immutable sparse symbolic matrix, stored as its parameters (r, dims).

    All else is derived on each access, with no cache: `rows` and `cols`
    list the row tuples and column triples in lexicographic order, the
    counts are closed forms, and `entries()` computes the nonzeros from the
    entry rule as three integer arrays sorted by row, then column, or
    `direction_blocks()` as one block of them per direction.
    Variables are numbered in lexicographic (t, s, reduced) order.
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

    # -- basic facts ------------------------------------------------------

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(enumerate_rows(self.r, self.k))

    @property
    def cols(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(
            (t, m, s)
            for t in range(1, self.k + 1)
            for m in range(1, self.r + 1)
            for s in range(1, self.dims[t - 1] - self.r + 1)
        )

    @property
    def n_rows(self) -> int:
        return count_rows(self.r, self.k)

    @property
    def n_cols(self) -> int:
        return self.r * (sum(self.dims) - self.k * self.r)

    # The admissible rows are closed under permuting coordinates, so every
    # direction has the same reduced tuples: the non-constant (k-1)-tuples.
    @property
    def nnz(self) -> int:
        return self.n_rows * (sum(self.dims) - self.k * self.r)

    @property
    def n_vars(self) -> int:
        n_reduced = self.r ** (self.k - 1) - self.r if self.n_rows else 0
        return n_reduced * (sum(self.dims) - self.k * self.r)

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(row, column, variable number) index arrays of every nonzero,
        sorted by row, then column; computed from the entry rule on each call."""
        # Placing the direction blocks side by side in t order keeps the
        # entries sorted by row, then column.
        col_blocks, var_blocks = zip(*self.direction_blocks())
        return (
            np.repeat(np.arange(self.n_rows), sum(self.dims) - self.k * self.r),
            np.hstack(col_blocks).ravel(),
            np.hstack(var_blocks).ravel(),
        )

    def direction_blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """For each direction t = 1..k in turn, the (n_rows, n_t - r) arrays
        of column and variable numbers of its nonzeros: row i holds variable
        var[i, s-1] at column col[i, s-1].  This is the entry rule that
        `entries()` and `instantiate` share."""
        r, dims, k = self.r, self.dims, self.k
        # One nonzero per row and (t, s) pair, at column (t, j_t, s), holding
        # a^{t,s}_w with w the row minus coordinate t.
        rows = np.array(self.rows, dtype=np.intp).reshape(-1, k)
        place = r ** np.arange(k - 2, -1, -1)
        n_vars = col0 = 0
        for t in range(1, k + 1):
            slots = dims[t - 1] - r
            # Base-r codes of w sort like w, so unique numbers the reduced
            # tuples in lexicographic order and the variables come out in
            # (t, s, w) order, which seeded assignments depend on.
            codes, w_num = np.unique(
                (np.delete(rows, t - 1, axis=1) - 1) @ place, return_inverse=True
            )
            s = np.arange(slots)  # s - 1 for the slots s = 1..n_t - r
            yield (
                col0 + (rows[:, [t - 1]] - 1) * slots + s,
                n_vars + s * len(codes) + w_num.reshape(-1, 1),
            )
            n_vars += slots * len(codes)
            col0 += r * slots

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
    return PatternMatrix(r, tuple(dims))


def occurrences(
    pm: PatternMatrix, v: Variable
) -> set[tuple[tuple[int, ...], tuple[int, int, int]]]:
    """All nonzero positions of v as (row tuple, column triple) pairs.

    The entry rule: v = a^{t,s}_w sits at row w[t:=m], the row w with m
    inserted at position t, and column (t, m, s), for each m in [r] that
    makes the row admissible, that is, each m that w holds at most k-3
    times, provided no value fills k-1 of the row's other coordinates.
    Positions of one variable have pairwise distinct rows and pairwise
    distinct columns.  Unknown variables give the empty set.
    """
    r, k = pm.r, pm.k
    t, s, w = v.t, v.s, v.reduced
    if not (
        1 <= t <= k and 1 <= s <= pm.dims[t - 1] - r
        and len(w) == k - 1 and all(1 <= x <= r for x in w)
    ) or max(map(w.count, w)) > k - 2:
        return set()
    head, tail = w[: t - 1], w[t - 1 :]
    return {((*head, m, *tail), (t, m, s)) for m in range(1, r + 1) if w.count(m) <= k - 3}


# -- serialization ---------------------------------------------------------


# Most nonzeros the text exports build in memory.  JSON takes about 0.36 KB
# per entry, so (100,100,100) at r=17, with 1,015,920 entries, still fits.
_EXPORT_LIMIT = 1 << 20


def check_export_size(r: int, dims: tuple[int, ...]) -> None:
    """Refuse a text export of the (r, dims) pattern over _EXPORT_LIMIT
    nonzeros.  The count is the closed form of `PatternMatrix.nnz`, so
    callers can refuse a shape before building its pattern."""
    nnz = count_rows(r, len(dims)) * (sum(dims) - len(dims) * r)
    if nnz > _EXPORT_LIMIT:
        raise ValueError(
            f"pattern has {nnz} nonzeros, over the {_EXPORT_LIMIT} "
            f"that a text export builds in memory"
        )


def _entries(pm: PatternMatrix) -> Iterator[tuple[int, int, Variable]]:
    """(row index, column index, variable) of every nonzero, row-major."""
    check_export_size(pm.r, pm.dims)
    rows, cols = (a.tolist() for a in pm.entries()[:2])
    row_tuples, col_triples = pm.rows, pm.cols
    for i, j in zip(rows, cols):
        p, (t, _, s) = row_tuples[i], col_triples[j]
        # Row p holds at column (t, p[t-1], s) the variable a^{t,s}_{p minus t}.
        yield i, j, Variable(t=t, s=s, reduced=p[: t - 1] + p[t:])


def pattern_doc(pm: PatternMatrix) -> dict:
    """Lossless JSON document of `pm`, with stable key order."""
    return {
        "r": pm.r,
        "dims": list(pm.dims),
        "rows": [list(p) for p in pm.rows],
        "cols": [list(c) for c in pm.cols],
        "entries": [
            {"row": i, "col": j, "var": v.label} for i, j, v in _entries(pm)
        ],
    }


def pattern_to_coordinate_list(pm: PatternMatrix) -> str:
    """Newline-delimited ASCII form: "nRows nCols nnz" header, then one
    "rowIdx colIdx varName" line per nonzero (1-based indices)."""
    lines = [f"{pm.n_rows} {pm.n_cols} {pm.nnz}"]
    for i, j, v in _entries(pm):
        lines.append(f"{i + 1} {j + 1} {v.label}")
    return "\n".join(lines) + "\n"
