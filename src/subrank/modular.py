"""Exact linear algebra over a prime field for numeric verification.

Certificates prove generic full row rank symbolically; this module sanity
checks them numerically by instantiating patterns at seeded random field
points and running exact Gaussian elimination mod p.  A trial reaching the
expected rank is conclusive (any specialization lower-bounds the generic
rank); trials below it are inconclusive and only reported.

The default prime is the Mersenne prime 2^61 - 1: residues fit in machine
words, and the per-trial false-negative probability is bounded by
(#rows)/p, which is negligible at desk scale.  Every rank mod 2^61 - 1 runs
through one blocked elimination kernel: one recursion factors the matrix,
or a wide matrix's leading square, after Dumas, Giorgi & Pernet (ACM TOMS
35(3), 2008).  A column
range that is wide and tall enough splits at its midpoint, or 128 columns
in if that is sooner; the left part's pivots reach the right part through
a matrix-product update, and each part returns the inverse L'^-1 of its
pivots' lower triangle, which the update needs and from which its parent
composes its own.  Only narrow ranges are eliminated one column at a time,
with 31-bit limbs keeping elementwise products inside uint64.  Matrix
products are taken as three float64 BLAS calls on 21-bit limbs.  Each
update reduces once, as in the same paper's delayed reduction: its product
is left unreduced below 4p, and a - product is taken as a + (4p - product)
< 5p < 2^64 and folded once, in place in the product's own temporary.  The
update runs in column strips of fixed width and, at every height, takes
the rows below its pivots 256 at a time, so its temporaries stay a few MiB
however tall the matrix is.  The elimination overwrites its operand, so a
trial that ranks the matrix it instantiated peaks at about that matrix and
that workspace.  The update skips rows whose multipliers
are all zero, which most rows of block-diagonal and unit-vector inputs
are.  The columns past a wide matrix's leading square are touched only if
the square falls short of full row rank; then the square's pivots, kept as
their columns and, on the diagonal, their inverses, are applied to them in
order, and the rows left are ranked there.  Other primes use the plain
Python elimination that tests also use as the reference.

A rank trial of a pattern uses its shape first.  Direction 1's columns are
block diagonal: r blocks of n_rows / r rows by n_1 - r columns, one per
value of j_1.  So the trial never builds the dense matrix: it instantiates
direction 1 alone, as a stack of those blocks, and eliminates the blocks
together, one batched pivot step per column position over the stack,
before any later column exists.  It then allocates the Schur complement,
the rows left below each block's pivots, and builds the later columns one
block's rows at a time, already in that block's pivot order; it applies
the block's pivots to them as X = F L'^-1, formed once per block, and
A22 -= X A12, one product per strip, and copies the rows left below the
pivots into the block's slice of the complement.  It ranks only that
complement, so the rows of the later columns are never held all at once.
A block without a pivot in one of its leading columns sends the dense
instantiation to the kernel above.  The step is taken by input size only:
where the kernel would split the matrix (more than 2^14 entries) and some
column lies past the blocks, since smaller matrices, such as every
dimension-oracle input, run faster on the kernel alone.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .certificate import Verdict
from .combinatorics import count_rows
from .formulas import pattern_col_count
from .pattern import PatternMatrix

MERSENNE61 = (1 << 61) - 1
DEFAULT_PRIME = MERSENNE61

_M64 = (1 << 64) - 1
_M61 = MERSENNE61
_M31 = (1 << 31) - 1
_M30 = (1 << 30) - 1
_M21 = (1 << 21) - 1


# -- seeded value stream ----------------------------------------------------


def seeded_values(seed: int, start: int, count: int, p: int) -> np.ndarray:
    """Nonzero residues for items start, ..., start + count - 1 of stream `seed`.

    Item i is 1 + splitmix64(seed + (i + 1) * gamma) mod (p - 1), the
    counter-based generator of Steele, Lea & Flood (OOPSLA 2014), computed
    for all items at once in wraparound uint64 arithmetic.  The constants
    are np.uint64 so no operand is ever promoted to float64.
    """
    x = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    x *= np.uint64(0x9E3779B97F4A7C15)
    x += np.uint64(seed & _M64)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    x %= np.uint64(p - 1)
    return x + np.uint64(1)


@dataclass(frozen=True, eq=False)
class RandomAssignment:
    """Seeded nonzero values for every variable of a pattern.

    `values[i]` is the value of variable number i as `PatternMatrix.entries()`
    numbers them, in lexicographic (t, s, reduced) order; it is reproducible
    from (seed, p).
    """

    seed: int
    p: int
    values: np.ndarray  # uint64, one value per variable


def random_assignment(pm: PatternMatrix, seed: int, p: int = DEFAULT_PRIME) -> RandomAssignment:
    return RandomAssignment(seed, p, seeded_values(seed, 0, pm.n_vars, p))


# -- matrices ----------------------------------------------------------------

# Largest dense uint64 matrix `instantiate` allocates, in bytes.  The guard
# still counts the whole dense matrix, although a trial that takes the block
# step holds only the blocks' stack, the Schur complement and one block's
# rows of the later columns: `verify` at n=100 peaks at 113 MB RSS, where
# the dense matrix takes 138 MB, at n=150 at 317 MB for 519 MB, and at
# n=192, the largest cube the guard admits, at 548 MB for 991 MB.
_DENSE_LIMIT = 1 << 30


@dataclass
class ModularMatrix:
    """Matrix over F_p, stored dense; zero entries are residue 0."""

    p: int
    data: np.ndarray  # uint64, residues reduced; its shape is the matrix's

    @property
    def n_rows(self) -> int:
        return self.data.shape[0]

    @property
    def n_cols(self) -> int:
        return self.data.shape[1]


def check_dense_size(r: int, dims: tuple[int, ...]) -> None:
    """Refuse the (r, dims) pattern if its dense matrix is over _DENSE_LIMIT.

    The size comes from the closed forms, so callers can refuse a shape
    before building its pattern."""
    n_rows, n_cols = count_rows(r, len(dims)), pattern_col_count(dims, r)
    size = n_rows * n_cols * 8
    if size > _DENSE_LIMIT:
        raise ValueError(
            f"dense {n_rows} x {n_cols} matrix needs {size / 2**20:.0f} MiB, "
            f"over the {_DENSE_LIMIT >> 20} MiB limit"
        )


def _placed(pm: PatternMatrix, assignment: RandomAssignment) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """For each direction in turn, the column numbers of its nonzeros and
    their residues, both (n_rows, n_t - r) as `direction_blocks()` gives
    them; the one placement that `instantiate` and the block step of
    `_pattern_rank` share.  The assignment and the dense size are checked
    on the call, before the caller allocates anything."""
    values, p = assignment.values, assignment.p
    if len(values) != pm.n_vars:
        raise ValueError(
            f"assignment has {len(values)} values but the pattern has "
            f"{pm.n_vars} variables"
        )
    check_dense_size(pm.r, pm.dims)
    values = values % np.uint64(p)
    # One direction's block at a time, so no index array spans all nonzeros.
    return ((cols, values[var]) for cols, var in pm.direction_blocks())


def instantiate(pm: PatternMatrix, assignment: RandomAssignment) -> ModularMatrix:
    """Replace each variable by its assigned residue; zeros stay zero."""
    data = np.zeros((pm.n_rows, pm.n_cols), dtype=np.uint64)
    rows = np.arange(pm.n_rows)[:, None]
    for cols, vals in _placed(pm, assignment):
        data[rows, cols] = vals
    return ModularMatrix(assignment.p, data)


def modular_to_coordinate_list(mm: ModularMatrix) -> str:
    """ASCII export: "nRows nCols nnz" header, then 1-based "i j v" lines."""
    ii, jj = np.nonzero(mm.data)
    items = zip(ii.tolist(), jj.tolist(), mm.data[ii, jj].tolist())
    lines = [f"{mm.n_rows} {mm.n_cols} {len(ii)}"]
    lines += [f"{i + 1} {j + 1} {v}" for i, j, v in items]
    return "\n".join(lines) + "\n"


# -- Mersenne-61 kernels ------------------------------------------------------
#
# Residues are < p = 2^61 - 1, and 2^61 == 1 (mod p) drives the folds.  An
# update first forms its product unreduced, congruent to it mod p and below
# 4p: elementwise from 31/30-bit limbs in uint64, or as a matrix product from
# 21-bit limbs in float64 BLAS.  Subtracting it as a + (4p - acc) < 5p < 2^64
# stays in uint64, so one fold reduces the whole update.  The folds work in
# place on temporaries, with uint64 wraparound, which numpy raises no warning
# for on arrays (on numpy scalars it does, so scalars stay Python ints).

_P = np.uint64(_M61)
_P4 = np.uint64(4 * _M61)

# Columns per trailing-update strip of the rank kernel; its temporaries are
# a few (rows x _STRIP) arrays.
_STRIP = 512

# Rows per tile of `_update`: at every height it takes the rows below its
# pivots this many at a time, so each of its (rows x _STRIP) temporaries
# stays at 1 MiB however tall the matrix is.
_TILE_ROWS = 256

# `_factor` splits a column range wider than _BASE_WIDTH columns with more
# than _BASE_CELLS entries from its first row down, at its midpoint or
# _PANEL columns in, whichever is sooner.  So every L'^-1 it returns, and
# every inner dimension of `_update`, is at most _PANEL.
_BASE_WIDTH = 16
_BASE_CELLS = 1 << 14
_PANEL = 128

# `_lower_inverse` inverts a leaf's L' of up to this many rows by repeated
# squaring, and a larger one by halving.
_SQUARING_ROWS = 32


def _fold61(x: np.ndarray) -> np.ndarray:
    """x mod (2^61 - 1) for a uint64 array x, which it overwrites and returns.

    (x & p) + (x >> 61) < p + 8, and for x < p the wrapped x - p exceeds x,
    so the minimum of the two is the residue."""
    t = x >> np.uint64(61)
    x &= _P
    x += t
    np.subtract(x, _P, out=t)
    return np.minimum(x, t, out=x)


def _sub61(a: np.ndarray, acc: np.ndarray) -> np.ndarray:
    """(a - acc) mod (2^61 - 1) for a < p and acc < 4p, written over `acc`.

    a + (4p - acc) < 5p < 2^64, so it takes one fold."""
    np.subtract(_P4, acc, out=acc)
    acc += a
    return _fold61(acc)


def _mul61(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * y elementwise and broadcasting for x, y < p, unreduced: congruent
    to it mod 2^61 - 1 and below 4p.

    With x = x1 2^31 + x0 and y = y1 2^31 + y0, x y == 2 x1 y1 + mid 2^31
    + x0 y0, since 2^62 == 2.  mid = x1 y0 + x0 y1 < 2^62 is h 2^30 + l, and
    mid 2^31 == h + l 2^31.  As x1, y1 < 2^30 and x0, y0 < 2^31, the sum is
    at most 2(2^30-1)^2 + (2^32-1) + (2^30-1) 2^31 + (2^31-1)^2 < 2^63 - 4
    = 4p.  Pass the smaller operand (a column) as x."""
    x1, x0 = x >> np.uint64(31), x & np.uint64(_M31)
    y1, y0 = y >> np.uint64(31), y & np.uint64(_M31)
    acc = x1 * y0
    t = x0 * y1
    acc += t                                          # mid
    np.right_shift(acc, np.uint64(30), out=t)
    acc &= np.uint64(_M30)
    acc <<= np.uint64(31)
    acc += t                                          # == mid 2^31, < 2^61 + 2^32
    np.multiply(x1 << np.uint64(1), y1, out=t)
    acc += t
    np.multiply(x0, y0, out=t)
    acc += t
    return acc


def _mulmod_m61(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(x * y) mod (2^61 - 1) elementwise, broadcasting, both operands < p."""
    return _fold61(_mul61(x, y))


def _limbs(x: np.ndarray) -> np.ndarray:
    """The left operand of `_matmul61` as 21-bit float64 limbs [x2 | x1 | x0],
    x = x0 + x1 2^21 + x2 2^42."""
    k = x.shape[1]
    if k > 512:
        raise ValueError(f"inner dimension {k} too large for exact float64 matmul")
    m21 = np.uint64(_M21)
    xs = np.empty((x.shape[0], 3 * k))
    xs[:, :k] = x >> np.uint64(42)
    xs[:, k:2 * k] = (x >> np.uint64(21)) & m21
    xs[:, 2 * k:] = x & m21
    return xs


def _spread(y: np.ndarray) -> np.ndarray:
    """The right operand of `_matmul61` as stacked float64 limb rows
    [4y1; 4y2; y0; y1; y2], y = y0 + y1 2^21 + y2 2^42."""
    k = y.shape[0]
    m21 = np.uint64(_M21)
    ys = np.empty((5 * k, y.shape[1]))
    ys[2 * k:3 * k] = y & m21
    ys[3 * k:4 * k] = (y >> np.uint64(21)) & m21
    ys[4 * k:] = y >> np.uint64(42)
    np.multiply(ys[3 * k:], 4.0, out=ys[:2 * k])
    return ys


def _matmul61(xs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y for xs = _limbs(x) and y < p, unreduced: congruent to it mod
    2^61 - 1 and below 2^62.1 < 4p; three float64 matmuls.  A caller that
    multiplies several xs by one y may pass y as _spread(y).

    With y split like x, and since 2^63 == 4 and 2^84 == 4 * 2^21 (mod p),
    the five limb-product levels fold into three, and x @ y == d0 + d1 2^21
    + d2 2^42 with

        d0 = x0 y0 + 4 x1 y2 + 4 x2 y1
        d1 = x0 y1 + x1 y0 + 4 x2 y2
        d2 = x0 y2 + x1 y1 + x2 y0.

    Stacking the limbs of y as Y = [4y1; 4y2; y0; y1; y2] makes each d_j one
    float64 matmul of xs with three consecutive limb rows of Y.  Every term
    is below 2^42 (x2, y2 < 2^19), so an inner dimension of at most 512
    keeps each sum exact (3 * 512 * 2^42 < 2^53)."""
    ys = y if y.dtype == np.float64 else _spread(y)
    k = ys.shape[0] // 5
    d = xs @ ys[:3 * k]                                  # d0 < 2^52
    acc = d.astype(np.uint64)
    t = np.empty_like(acc)
    h = d.view(np.uint64)                   # d is dead from each copyto to the next matmul
    for j, keep in ((1, 40), (2, 19)):
        # d_j 2^(21 j) == (d_j mod 2^keep) 2^(61 - keep) + (d_j >> keep)
        np.matmul(xs, ys[j * k:(j + 3) * k], out=d)
        np.copyto(t, d, casting="unsafe")
        acc += np.right_shift(t, np.uint64(keep), out=h)
        t &= np.uint64((1 << keep) - 1)
        t <<= np.uint64(61 - keep)
        acc += t
    return acc


def _matmul_mod_m61(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact (x @ y) mod (2^61 - 1) for x, y < p, inner dimension at most 512."""
    return _fold61(_matmul61(_limbs(x), y))


# -- rank kernels ----------------------------------------------------------------


def _rank_python(rows: list[list[int]], p: int) -> int:
    """Reference dense elimination over F_p; works for any prime p."""
    rows = [list(r) for r in rows]
    m = len(rows)
    n = len(rows[0]) if m else 0
    rank = 0
    for c in range(n):
        piv = next((i for i in range(rank, m) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c] % p, -1, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(rank + 1, m):
            f = rows[i][c] % p
            if f:
                pr = rows[rank]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], pr)]
        rank += 1
        if rank == m:
            break
    return rank


def _join_inverse(inv1: np.ndarray, inv2: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The inverse mod 2^61-1 of the block triangle [[L1, 0], [C, L2]] from
    inv1 = L1^-1 and inv2 = L2^-1: [[L1^-1, 0], [-L2^-1 C L1^-1, L2^-1]]."""
    g1, g = len(inv1), len(inv1) + len(inv2)
    linv = np.zeros((g, g), dtype=np.uint64)
    linv[:g1, :g1] = inv1
    linv[g1:, g1:] = inv2
    off = _matmul61(_limbs(inv2), _matmul_mod_m61(c, inv1))
    linv[g1:, :g1] = _sub61(np.uint64(0), off)
    return linv


def _lower_inverse(lower: np.ndarray, invs: np.ndarray) -> np.ndarray:
    """L'^-1 mod 2^61-1 for L' = D + N, with N the strictly lower part of
    `lower` and D^-1 = diag(invs).

    Over _SQUARING_ROWS rows, invert the two diagonal halves and join them
    with `_join_inverse`, about two g/2-sized products for g rows per level,
    so O(g^3) in all.  Up to it, L' = D (I + M) with M = D^-1 N nilpotent, so
    L'^-1 = (I - M)(I + M^2)(I + M^4)... D^-1, about 2 log2(g) products."""
    g = len(invs)
    if g > _SQUARING_ROWS:
        h = g // 2
        return _join_inverse(
            _lower_inverse(lower[:h, :h], invs[:h]),
            _lower_inverse(lower[h:, h:], invs[h:]),
            lower[h:, :h],
        )
    m = _mulmod_m61(invs[:, None], np.tril(lower, -1))
    eye = np.eye(g, dtype=np.uint64)
    linv = _sub61(eye, m.copy())                         # I - M
    power, done = m, 2                                   # terms M^0..M^(done-1)
    while done < g:
        power = _matmul_mod_m61(power, power)            # M^done, zero diagonal
        linv = _matmul_mod_m61(linv, eye + power)
        done *= 2
    return _mulmod_m61(invs[None, :], linv)


def _update(
    a: np.ndarray, r0: int, piv_cols: list[int], linv: np.ndarray, c0: int, c1: int
) -> None:
    """Apply the pivots in rows r0, r0 + 1, ... at `piv_cols` to columns c0:c1.

    That is A22 -= F (L'^-1 A12): A12 is the pivot rows' part of the columns,
    L' has the pivot values on its diagonal and the in-place multipliers
    below it, and F is the multiplier block of the rows below.  Each strip
    of _STRIP columns walks the rows below in tiles of _TILE_ROWS, at every
    height, so its temporaries stay a few (_TILE_ROWS x _STRIP) arrays.  Only
    rows with a nonzero row of F change, which skips most rows of
    block-diagonal and unit-vector inputs, and a tile whose rows of F are all
    zero costs one gather; when a tile's changed rows are one contiguous run
    they are a slice, read as a view instead of a gathered copy.  The strip's
    L'^-1 A12 is formed and split into limbs once, when a tile first needs
    it, and each tile subtracts its unreduced product (< 2^62.1) with one
    fold."""
    r1 = r0 + len(piv_cols)
    below = a[r1:]
    for s0 in range(c0, c1, _STRIP):
        s = slice(s0, min(s0 + _STRIP, c1))
        us = None
        for i in range(0, len(below), _TILE_ROWS):
            tile = below[i:i + _TILE_ROWS]
            f = tile[:, piv_cols]
            rows = np.flatnonzero(f.any(axis=1))
            if rows.size == 0:
                continue
            if us is None:
                us = _spread(_fold61(_matmul61(_limbs(linv), a[r0:r1, s])))
            rows = _run(rows)
            tile[rows, s] = _sub61(tile[rows, s], _matmul61(_limbs(f[rows]), us))


def _run(rows: np.ndarray) -> np.ndarray | slice:
    """Sorted row indices as a slice when they are one contiguous run."""
    if rows[-1] - rows[0] + 1 == rows.size:
        return slice(int(rows[0]), int(rows[-1]) + 1)
    return rows


def _factor(a: np.ndarray, r0: int, c0: int, c1: int) -> tuple[list[int], np.ndarray | None]:
    """Eliminate columns c0:c1 of `a` from row r0 down, in place; return the
    pivot columns and L'^-1 for `_update`, or None when no column of the
    leading square lies right of c1 or no row is left below the pivots, so
    nothing here would use it.  Columns past the leading square of a wide
    matrix are the caller's (`_rank61`); c1 must not pass that square.

    Rows are swapped whole, but only columns c0:c1 change; each multiplier
    stays in its pivot column for `_update` to read, and each pivot's own
    entry is overwritten with its inverse.  A large range splits
    at its midpoint, or _PANEL columns in if that is sooner: factor the left
    part, apply its pivots to the right part, then factor the right part
    from the next free row.  L'^-1 of the whole is the block triangle
    [[L1^-1, 0], [-L2^-1 C L1^-1, L2^-1]] of the parts' inverses, with C the
    right pivot rows' multipliers in the left pivot columns.  Small ranges
    are eliminated one column at a time."""
    m, n = a.shape[0], min(a.shape)
    if c1 - c0 > _BASE_WIDTH and (m - r0) * (c1 - c0) > _BASE_CELLS:
        mid = min((c0 + c1) // 2, c0 + _PANEL)
        left, inv1 = _factor(a, r0, c0, mid)
        r1 = r0 + len(left)
        if r1 == m:
            return left, None
        _update(a, r0, left, inv1, mid, c1)
        if c1 == n:
            inv1 = None     # unused from here; free it while the right part recurses
        right, inv2 = _factor(a, r1, mid, c1)
        if inv2 is None:
            return left + right, None
        return left + right, _join_inverse(inv1, inv2, a[r1:r1 + len(right), left])
    rank = r0
    piv_cols = []
    invs = []
    for c in range(c0, c1):
        nz = np.nonzero(a[rank:, c])[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        inv = pow(int(a[rank, c]), -1, _M61)
        invs.append(inv)
        piv_cols.append(c)
        # Scale the pivot row in Python ints: it is short, and no numpy
        # scalar meets the folds' wraparound, which warns on scalars.
        a[rank, c] = inv
        a[rank, c + 1:c1] = [inv * v % _M61 for v in a[rank, c + 1:c1].tolist()]
        if c + 1 < c1 and rank + 1 < m:
            col = a[rank + 1:, c]
            nz = np.nonzero(col)[0]
            if 4 * nz.size >= col.size:
                # Dense column: contiguous update beats gather/scatter
                # (zero factors subtract zero).
                a[rank + 1:, c + 1:c1] = _sub61(
                    a[rank + 1:, c + 1:c1], _mul61(col[:, None], a[rank, c + 1:c1])
                )
            elif nz.size:
                below = rank + 1 + nz
                a[below, c + 1:c1] = _sub61(
                    a[below, c + 1:c1], _mul61(a[below, c][:, None], a[rank, c + 1:c1])
                )
        rank += 1
        if rank == m:
            break
    if c1 == n or rank == m:
        return piv_cols, None
    return piv_cols, _lower_inverse(a[r0:rank, piv_cols], np.array(invs, dtype=np.uint64))


def rank_mod_p(mm: ModularMatrix, overwrite: bool = False) -> int:
    """Rank over F_p by exact Gaussian elimination; deterministic.

    Mod 2^61 - 1 the elimination works in place on a copy of `mm.data`, or,
    with `overwrite`, on `mm.data` itself, which it then leaves eliminated:
    pass it only for a matrix nothing reads afterwards."""
    if mm.n_rows == 0 or mm.n_cols == 0:
        return 0
    if mm.p == MERSENNE61:
        return _rank61(mm.data if overwrite else mm.data.copy())
    return _rank_python(mm.data.tolist(), mm.p)


def _rank61(a: np.ndarray) -> int:
    """Rank mod 2^61 - 1 of `a`, which it eliminates in place.

    A wide matrix is first factored on its leading square alone: when that
    reaches full row rank, the columns past it are never touched.  Only
    when it falls short are its pivots applied to them; the rows left below
    the pivots are then ranked on those columns."""
    m, n = a.shape
    piv_cols = _factor(a, 0, 0, min(m, n))[0]
    rank = len(piv_cols)
    if rank == m or n <= m:
        return rank
    _apply_pivots(a, piv_cols, m, n)
    return rank + _rank61(a[rank:, m:])


def _apply_pivots(a: np.ndarray, piv_cols: list[int], c0: int, c1: int) -> None:
    """Apply the eliminated pivots in rows 0, 1, ... of `a` at `piv_cols` to
    columns c0:c1, in order and _PANEL at a time, each group's L'^-1 rebuilt
    from its multipliers and the pivot inverses on its diagonal."""
    for i0 in range(0, len(piv_cols), _PANEL):
        cols = piv_cols[i0:i0 + _PANEL]
        lower = a[i0:i0 + len(cols), cols]
        _update(a, i0, cols, _lower_inverse(lower, np.diagonal(lower)), c0, c1)


def _rank_blocks(stack: np.ndarray, later_rows: Callable[[np.ndarray], Iterable[np.ndarray]]) -> int | None:
    """Rank mod 2^61 - 1 of the matrix whose first columns are the blocks of
    `stack` down the diagonal and whose other columns are given block by
    block: block i, of shape (h, width), is rows i h:(i+1) h by columns
    i width:(i+1) width.  `later_rows(order)` yields, for each block i in
    turn, its h rows of the later columns, taken in the row order order[i];
    `_rank_blocks` may overwrite each before asking for the next.  The stack
    is eliminated in place.  Returns None, having asked for no later rows,
    if some block has no pivot in one of its first g = min(h, width) columns.

    All blocks are eliminated together by `_eliminate_blocks` before any
    later row exists.  Then each block's rows arrive already in its pivot
    order; its pivots are applied to them by `_apply_block` and the h - g
    rows left below the pivots are copied into the Schur complement, the
    blocks * (h - g) rows that alone are ranked past the blocks.  So the
    peak holds the complement, one block's rows and the kernel workspace."""
    blocks, h, width = stack.shape
    g = min(h, width)
    order = _eliminate_blocks(stack, g)
    if order is None:
        return None
    if g == h:
        return blocks * h
    left = h - g
    complement = None
    for i, rows in enumerate(later_rows(order)):
        _apply_block(stack[i], rows, g)
        if complement is None:
            complement = np.empty((blocks * left, rows.shape[1]), dtype=np.uint64)
        complement[i * left:(i + 1) * left] = rows[g:]
    del rows                            # the last block's buffer, not needed by the rank
    return blocks * g + _rank61(complement)


def _apply_block(block: np.ndarray, rows: np.ndarray, g: int) -> None:
    """Apply the g pivots of an eliminated block to `rows`, its rows' later
    columns, in place and _PANEL pivots at a time, as `_apply_pivots` does.

    For each group, F is the multipliers of the rows below it and L' its
    pivot triangle, with the pivot inverses on the diagonal; X = F L'^-1 is
    formed once, and then A22 -= X A12 strip by strip, one product each."""
    for c0 in range(0, g, _PANEL):
        c1 = min(c0 + _PANEL, g)
        lower = block[c0:c1, c0:c1]
        x = _matmul_mod_m61(block[c1:, c0:c1], _lower_inverse(lower, np.diagonal(lower)))
        _subtract_product(rows[c1:], x, rows[c0:c1])


def _subtract_product(below: np.ndarray, x: np.ndarray, top: np.ndarray) -> None:
    """below -= x @ top mod 2^61 - 1, in place, for an inner dimension of at
    most 512.  Each strip of _STRIP columns of `top` is split into limbs
    once and `below` is taken _TILE_ROWS rows at a time, so the temporaries
    stay a few (_TILE_ROWS x _STRIP) arrays."""
    xs = _limbs(x)
    for s0 in range(0, below.shape[1], _STRIP):
        s = slice(s0, s0 + _STRIP)
        ys = _spread(top[:, s])
        for i in range(0, len(below), _TILE_ROWS):
            tile = below[i:i + _TILE_ROWS, s]
            tile[...] = _sub61(tile, _matmul61(xs[i:i + _TILE_ROWS], ys))


def _eliminate_blocks(stack: np.ndarray, g: int) -> np.ndarray | None:
    """Eliminate the first g columns of every (h, width) block of `stack`
    together, in place; return each block's row order, as indices of its
    rows before, or None if some block has no pivot in one of those columns.

    One batched step per column position: each block takes its first
    nonzero at or below the diagonal as the pivot, as `_factor`'s leaf does,
    and leaves the same layout: the pivot entry becomes its inverse, the
    pivot row right of it is scaled, and each row below keeps its
    multiplier in the pivot column."""
    blocks, h = stack.shape[:2]
    order = np.tile(np.arange(h), (blocks, 1))
    every = np.arange(blocks)
    for c in range(g):
        found = stack[:, c:, c] != 0
        piv = found.argmax(axis=1)
        if not found[every, piv].all():
            return None
        piv += c
        swap = np.flatnonzero(piv != c)
        if swap.size:
            to = piv[swap]
            stack[swap, c], stack[swap, to] = stack[swap, to], stack[swap, c]
            order[swap, c], order[swap, to] = order[swap, to], order[swap, c]
        invs = np.array([pow(v, -1, _M61) for v in stack[:, c, c].tolist()], dtype=np.uint64)
        stack[:, c, c] = invs
        row = stack[:, c, c + 1:]
        row[...] = _mulmod_m61(invs[:, None], row)
        below = stack[:, c + 1:, c + 1:]
        below[...] = _sub61(below, _mul61(stack[:, c + 1:, c, None], row[:, None, :]))
    return order


# -- verification operations ---------------------------------------------------


def _pattern_rank(pm: PatternMatrix, seed: int, p: int) -> int:
    """Rank of `pm` instantiated at the seeded assignment (seed, p).

    The rank owns the matrix: it eliminates it in place, and neither it nor
    the assignment outlives the call.  By the entry rule, direction 1's
    columns are block diagonal: column (1, m, s) meets only the rows with
    j_1 = m, which in lexicographic order are the m-th run of n_rows / r
    rows (relabelling [r] keeps a row admissible, so every m has as many).
    So mod 2^61 - 1 the trial instantiates direction 1 alone, as the stack
    of those r blocks of n_1 - r columns, and `_rank_blocks` eliminates it
    before directions 2..k are placed; `_later_blocks` then builds the
    columns past the blocks one block's rows at a time.  No dense matrix,
    and no matrix of all rows of the later columns, is ever allocated.  A
    block without a pivot sends the dense matrix to the generic kernel.  The
    step is taken only where `_factor` would split the matrix (over
    _BASE_CELLS entries) and some column lies past the blocks; smaller
    matrices are faster on the generic kernel alone."""
    assignment = random_assignment(pm, seed, p)
    blocks, width = pm.r, pm.dims[0] - pm.r
    if (p == MERSENNE61 and pm.n_rows * pm.n_cols > _BASE_CELLS
            and blocks >= 2 and 0 < blocks * width < pm.n_cols):
        placed = _placed(pm, assignment)
        stack = next(placed)[1].reshape(blocks, -1, width)
        rank = _rank_blocks(stack, lambda order: _later_blocks(pm, placed, order))
        if rank is not None:
            return rank
    return rank_mod_p(instantiate(pm, assignment), overwrite=True)


def _later_blocks(
    pm: PatternMatrix, placed: Iterator[tuple[np.ndarray, np.ndarray]], order: np.ndarray
) -> Iterator[np.ndarray]:
    """For each of direction 1's r blocks in turn, its n_rows / r rows of
    the columns past the blocks, block i's taken in the row order order[i],
    from `placed`, the placement of directions 2..k.  By the entry rule,
    block i's rows are the i-th run of n_rows / r.

    The directions are placed on the first step and let go when the last
    block has been taken, so the caller ranks its complement without them.
    Every block is built in the same buffer, which the caller may overwrite
    before asking for the next."""
    h, c0 = pm.n_rows // pm.r, pm.r * (pm.dims[0] - pm.r)
    later = list(placed)
    rows = np.empty((h, pm.n_cols - c0), dtype=np.uint64)
    slots = np.arange(h)[:, None]
    for i, block_order in enumerate(order):
        take = i * h + block_order
        rows.fill(0)
        for cols, vals in later:
            rows[slots, cols[take] - c0] = vals[take]
        yield rows


def verify_generic_rank(
    pm: PatternMatrix,
    expected: int,
    trials: int = 3,
    p: int = DEFAULT_PRIME,
    base_seed: int = 0,
) -> Verdict:
    """Instantiate at seeds base_seed, base_seed+1, ... and test whether some
    trial reaches `expected` rank.  One success is conclusive; the search
    stops there.  Failures only report the maximum rank seen."""
    if trials < 1:
        raise ValueError("need at least one trial")
    ranks: list[int] = []
    for i in range(trials):
        seed = base_seed + i
        rank = _pattern_rank(pm, seed, p)
        ranks.append(rank)
        if rank >= expected:
            return Verdict(
                True,
                f"rank {rank} >= {expected} at seed {seed} (trial ranks {ranks})",
            )
    return Verdict(
        False,
        f"no trial reached rank {expected}; ranks {ranks} "
        f"(max {max(ranks)}) over seeds {base_seed}..{base_seed + trials - 1}",
    )


# -- dimension oracle -----------------------------------------------------------


def subspace_dimension_oracle(
    dims: tuple[int, ...],
    r: int,
    p: int = DEFAULT_PRIME,
    seed: int = 0,
) -> int:
    """Dimension of the tangent-space image inside F_p^(n_1*...*n_k) at a
    seeded random point, as a rank of the pattern matrix.

    The image is spanned by unit vectors on every coordinate except the
    admissible tuples of [r]^k, plus one generic slice vector per column
    (t, m, s).  The excluded coordinates are exactly the pattern's rows, and
    slice vector (t, m, s) restricted to them is pattern column (t, m, s).
    So the dimension is prod(n_i) - n_rows + rank(instantiate(pm)).
    """
    k = len(dims)
    if k < 3:
        raise ValueError(f"order k must be at least 3, got {k}")
    if not 1 <= r <= min(dims):
        raise ValueError(f"need 1 <= r <= min(dims), got r={r}, dims={dims}")
    check_dense_size(r, dims)
    pm = PatternMatrix(r, dims)
    return math.prod(dims) - pm.n_rows + _pattern_rank(pm, seed, p)


# -- primality (CLI input validation) --------------------------------------------


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all 64-bit integers."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True
