"""Exact linear algebra over a prime field for numeric verification.

Certificates prove generic full row rank symbolically; this module sanity
checks them numerically by instantiating patterns at seeded random field
points and running exact Gaussian elimination mod p.  A trial reaching the
expected rank is conclusive (any specialization lower-bounds the generic
rank); trials below it are inconclusive and only reported.

The default prime is the Mersenne prime 2^61 - 1: residues fit in machine
words, and the per-trial false-negative probability is bounded by
(#rows)/p, which is negligible at desk scale.  Every rank mod 2^61 - 1 runs
through one blocked elimination kernel.  It factors panels of columns one
column at a time, with 31-bit limbs keeping elementwise products inside
uint64.  The trailing update is a matrix product taken as three float64
BLAS calls on 21-bit limbs.  It runs in column strips of fixed width, so
peak memory is about the matrix, its working copy and a few strip-sized
temporaries.  It skips rows whose multipliers in the panel are all zero,
which most rows of block-diagonal and unit-vector inputs are.  Other primes
use the plain Python elimination that tests also use as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product

import numpy as np

from .certificate import Certificate, Verdict
from .combinatorics import is_admissible
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

    `values[i]` is the value of variable number i, in the lexicographic
    (t, s, reduced) order of `PatternMatrix.variables`; it is reproducible
    from (seed, p).
    """

    seed: int
    p: int
    values: np.ndarray  # uint64, one value per variable


def random_assignment(pm: PatternMatrix, seed: int, p: int = DEFAULT_PRIME) -> RandomAssignment:
    return RandomAssignment(seed, p, seeded_values(seed, 0, len(pm.variables), p))


# -- matrices ----------------------------------------------------------------


@dataclass
class ModularMatrix:
    """Matrix over F_p, stored dense; zero entries are residue 0."""

    n_rows: int
    n_cols: int
    p: int
    data: np.ndarray  # uint64, shape (n_rows, n_cols), residues reduced


def instantiate(pm: PatternMatrix, assignment: RandomAssignment) -> ModularMatrix:
    """Replace each variable by its assigned residue; zeros stay zero."""
    values, p = assignment.values, assignment.p
    if len(values) != len(pm.variables):
        raise ValueError(
            f"assignment has {len(values)} values but the pattern has "
            f"{len(pm.variables)} variables"
        )
    data = np.zeros((pm.n_rows, pm.n_cols), dtype=np.uint64)
    data[pm.entry_rows, pm.entry_cols] = (values % np.uint64(p))[pm.entry_vars]
    return ModularMatrix(pm.n_rows, pm.n_cols, p, data)


def modular_to_coordinate_list(mm: ModularMatrix) -> str:
    """ASCII export: "nRows nCols nnz" header, then 1-based "i j v" lines."""
    ii, jj = np.nonzero(mm.data)
    items = zip(ii.tolist(), jj.tolist(), mm.data[ii, jj].tolist())
    lines = [f"{mm.n_rows} {mm.n_cols} {len(ii)}"]
    lines += [f"{i + 1} {j + 1} {v}" for i, j, v in items]
    return "\n".join(lines) + "\n"


# -- Mersenne-61 kernels ------------------------------------------------------
#
# All values stay < 2^61.  Elementwise products are formed from 31/30-bit
# limbs so every intermediate fits in uint64; matrix products use 21-bit
# limbs in float64 BLAS.  2^61 == 1 (mod p) drives the foldings.

# Columns per trailing-update strip of the rank kernel; its temporaries are
# a few (rows x _STRIP) arrays.
_STRIP = 512


def _fold61(x: np.ndarray) -> np.ndarray:
    x = (x & _M61) + (x >> np.uint64(61))
    return np.where(x >= _M61, x - _M61, x)


def _mulmod_m61(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(x * y) mod (2^61 - 1) elementwise, broadcasting, both operands < p.

    Pass the smaller operand (a scalar or a column) as x: its high limb is
    the one shifted."""
    x1, x0 = x >> np.uint64(31), x & np.uint64(_M31)
    y1, y0 = y >> np.uint64(31), y & np.uint64(_M31)
    hi2 = (x1 << np.uint64(1)) * y1                   # 2 * x1*y1 < 2^61
    mid = x1 * y0 + x0 * y1                           # < 2^62
    midr = (mid >> np.uint64(30)) + ((mid & np.uint64(_M30)) << np.uint64(31))
    low = x0 * y0                                     # < 2^62
    lowr = (low & np.uint64(_M61)) + (low >> np.uint64(61))
    return _fold61(hi2 + midr + lowr)                 # sum < 2^63


def _submod_m61(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(x - y) mod (2^61 - 1) for x, y < p elementwise."""
    return _fold61(x + (np.uint64(_M61) - y))


def _matmul_mod_m61(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact (x @ y) mod (2^61 - 1) with three float64 matmuls.

    Split both operands into 21-bit limbs, x = x0 + x1 2^21 + x2 2^42.
    Since 2^63 == 4 and 2^84 == 4 * 2^21 (mod p), the five limb-product
    levels fold into three, and x @ y == d0 + d1 2^21 + d2 2^42 with

        d0 = x0 y0 + 4 x1 y2 + 4 x2 y1
        d1 = x0 y1 + x1 y0 + 4 x2 y2
        d2 = x0 y2 + x1 y1 + x2 y0.

    Stacking the limbs as X = [x2|x1|x0] and Y = [4y1; 4y2; y0; y1; y2]
    makes each d_j one float64 matmul of X with three consecutive limb rows
    of Y.  Every term is below 2^42 (x2, y2 < 2^19), so an inner dimension
    of at most 512 keeps each sum exact (3 * 512 * 2^42 < 2^53).
    """
    k = x.shape[1]
    if k > 512:
        raise ValueError(f"inner dimension {k} too large for exact float64 matmul")
    m21 = np.uint64(_M21)
    xs = np.empty((x.shape[0], 3 * k))
    xs[:, :k] = x >> np.uint64(42)
    xs[:, k:2 * k] = (x >> np.uint64(21)) & m21
    xs[:, 2 * k:] = x & m21
    y1 = ((y >> np.uint64(21)) & m21).astype(np.float64)
    y2 = (y >> np.uint64(42)).astype(np.float64)
    ys = np.concatenate([4.0 * y1, 4.0 * y2, (y & m21).astype(np.float64), y1, y2])
    d = xs @ ys[:3 * k]                                  # d0 < 2^52
    acc = d.astype(np.uint64)
    t = np.empty_like(acc)
    for j, keep in ((1, 40), (2, 19)):
        # d_j 2^(21 j) == (d_j mod 2^keep) 2^(61 - keep) + (d_j >> keep)
        np.matmul(xs, ys[j * k:(j + 3) * k], out=d)
        np.copyto(t, d, casting="unsafe")
        acc += t >> np.uint64(keep)
        t &= np.uint64((1 << keep) - 1)
        t <<= np.uint64(61 - keep)
        acc += t
    return _fold61(acc)                                  # acc < 2^62.1


# -- rank kernels ----------------------------------------------------------------


def _rank_python(rows: list[list[int]], p: int, reverse_cols: bool = False) -> int:
    """Reference dense elimination over F_p; works for any prime p."""
    rows = [list(r) for r in rows]
    m = len(rows)
    n = len(rows[0]) if m else 0
    cols = range(n - 1, -1, -1) if reverse_cols else range(n)
    rank = 0
    for c in cols:
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


def _rank_m61_blocked(a: np.ndarray, panel: int = 128) -> int:
    """Rank mod 2^61-1 by blocked Gaussian elimination.

    Each panel of `panel` columns is factored column by column; the
    multipliers stay in place in the pivot columns (never revisited) and are
    read back for the trailing update A22 -= F (L'^-1 A12), where F is the
    multiplier block of the rows below the panel's pivot rows.  The update
    runs in strips of _STRIP columns, so its temporaries scale with the
    strip, and it touches only rows with a nonzero row of F; that skips most
    rows of block-diagonal and unit-vector inputs."""
    a = a.copy()
    m, n = a.shape
    rank = 0
    c0 = 0
    while c0 < n and rank < m:
        c1 = min(c0 + panel, n)
        g0 = rank
        piv_cols: list[int] = []
        invs: list[np.uint64] = []
        for c in range(c0, c1):
            nz = np.nonzero(a[rank:, c])[0]
            if nz.size == 0:
                continue
            piv = rank + int(nz[0])
            if piv != rank:
                a[[rank, piv]] = a[[piv, rank]]
            inv = np.uint64(pow(int(a[rank, c]), -1, _M61))
            invs.append(inv)
            piv_cols.append(c)
            a[rank, c:c1] = _mulmod_m61(inv, a[rank, c:c1])
            if c + 1 < c1 and rank + 1 < m:
                col = a[rank + 1:, c]
                nz = np.nonzero(col)[0]
                if 4 * nz.size >= col.size:
                    # Dense column: contiguous update beats gather/scatter
                    # (zero factors subtract zero).
                    a[rank + 1:, c + 1:c1] = _submod_m61(
                        a[rank + 1:, c + 1:c1],
                        _mulmod_m61(col[:, None], a[rank, c + 1:c1]),
                    )
                elif nz.size:
                    below = rank + 1 + nz
                    a[below[:, None], np.arange(c + 1, c1)[None, :]] = _submod_m61(
                        a[below, c + 1:c1],
                        _mulmod_m61(a[below, c][:, None], a[rank, c + 1:c1]),
                    )
            rank += 1
            if rank == m:
                break
        # Only rows below whose multipliers in this panel are not all zero
        # change; the pivot rows' trailing entries are never read again.
        f = a[rank:, piv_cols]
        rows = rank + np.flatnonzero(f.any(axis=1))
        if rows.size and c1 < n:
            f = f[rows - rank]
            # Invert L', the lower triangular matrix with the saved pivot
            # values on the diagonal and the in-place multipliers below it,
            # by forward substitution one row at a time.
            g = rank - g0
            lower = a[g0:rank, piv_cols]
            linv = np.zeros((g, g), dtype=np.uint64)
            for i in range(g):
                e = np.zeros(g, dtype=np.uint64)
                e[i] = 1
                if i:
                    acc = _matmul_mod_m61(lower[i : i + 1, :i], linv[:i])[0]
                    e = _submod_m61(e, acc)
                linv[i] = _mulmod_m61(invs[i], e)
            for s0 in range(c1, n, _STRIP):
                s = slice(s0, s0 + _STRIP)
                u = _matmul_mod_m61(linv, a[g0:rank, s])
                a[rows, s] = _submod_m61(a[rows, s], _matmul_mod_m61(f, u))
        c0 = c1
    return rank


def rank_mod_p(mm: ModularMatrix) -> int:
    """Rank over F_p by exact Gaussian elimination; deterministic."""
    if mm.n_rows == 0 or mm.n_cols == 0:
        return 0
    if mm.p == MERSENNE61:
        return _rank_m61_blocked(mm.data)
    return _rank_python(mm.data.tolist(), mm.p)


# -- verification operations ---------------------------------------------------


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
        mm = instantiate(pm, random_assignment(pm, seed, p))
        rank = rank_mod_p(mm)
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


def _certificate_columns(pm: PatternMatrix, cert: Certificate) -> list[int]:
    cols: list[int] = []
    for st in cert.steps:
        for c in st.cols:
            cols.append(pm.col_pos[c])
    return sorted(cols)


def minor_determinant_check(
    pm: PatternMatrix,
    cert: Certificate,
    p: int = DEFAULT_PRIME,
    seed: int = 0,
    assignment: RandomAssignment | None = None,
) -> Verdict:
    """Evaluate the square minor on all rows and the certificate's crossed
    columns at a seeded random point; ok iff it has full rank, that is, a
    nonzero determinant.

    `assignment` overrides the seeded values (negative controls)."""
    cols = _certificate_columns(pm, cert)
    if len(cols) != pm.n_rows:
        return Verdict(
            False,
            f"certificate crosses {len(cols)} columns but the pattern has "
            f"{pm.n_rows} rows; minor is not square",
        )
    if len(set(cols)) != len(cols):
        return Verdict(False, "certificate columns are not pairwise distinct")
    if assignment is None:
        assignment = random_assignment(pm, seed, p)
    mm = instantiate(pm, assignment)
    minor = ModularMatrix(pm.n_rows, pm.n_rows, p, mm.data[:, cols])
    rank = rank_mod_p(minor)
    if rank < pm.n_rows:
        return Verdict(
            False, f"minor is singular mod {p} at seed {seed}: rank {rank} < {pm.n_rows}"
        )
    return Verdict(True, f"minor has full rank {rank} mod {p}")


def count_monomial_terms(
    entries: list[list[str | None]],
    monomial: dict[str, int],
) -> int:
    """Number of permutation terms of the symbolic determinant equal to the
    given monomial (a multiset of variable names with powers)."""
    size = len(entries)
    if any(len(row) != size for row in entries):
        raise ValueError("matrix must be square")
    target = sorted(
        name for name, power in monomial.items() for _ in range(power)
    )
    if len(target) != size:
        return 0
    count = 0
    for perm in permutations(range(size)):
        names = []
        for i, j in enumerate(perm):
            e = entries[i][j]
            if e is None:
                break
            names.append(e)
        else:
            if sorted(names) == target:
                count += 1
    return count


def brute_force_uniqueness(pm: PatternMatrix, cert: Certificate) -> Verdict:
    """Expand the certificate's square minor over all permutations and check
    the certificate monomial arises from exactly one of them (coefficient
    +-1, no cancellation).  Factorial cost; bounded at 8 rows."""
    if pm.n_rows > 8:
        raise ValueError(f"{pm.n_rows} rows exceed the factorial expansion bound of 8")
    cols = _certificate_columns(pm, cert)
    if len(cols) != pm.n_rows:
        return Verdict(False, "certificate minor is not square")
    entries: list[list[str | None]] = []
    for p_row in pm.rows:
        row = []
        for j in cols:
            v = pm.entry(p_row, pm.cols[j])
            row.append(None if v is None else v.label)
        entries.append(row)
    monomial = {v.label: power for v, power in cert.monomial}
    count = count_monomial_terms(entries, monomial)
    if count == 1:
        return Verdict(True, "monomial appears in exactly one permutation term")
    return Verdict(False, f"monomial appears in {count} permutation terms, want 1")


# -- dimension oracle -----------------------------------------------------------


def subspace_dimension_oracle(
    dims: tuple[int, ...],
    r: int,
    p: int = DEFAULT_PRIME,
    seed: int = 0,
) -> int:
    """Rank of an explicit spanning set for the tangent-space image inside
    F_p^(n_1*...*n_k): unit vectors outside the [r]^k block and on its
    diagonal, unit vectors on the inadmissible [r]^k coordinates, and one
    generic slice vector per (direction, block layer, slot).

    Desk-scale only: the ambient dimension is materialized.
    """
    k = len(dims)
    if k < 3:
        raise ValueError(f"order k must be at least 3, got {k}")
    if not 1 <= r <= min(dims):
        raise ValueError(f"need 1 <= r <= min(dims), got r={r}, dims={dims}")
    ambient = 1
    for n in dims:
        ambient *= n
    if ambient > 5000:
        raise ValueError(f"ambient dimension {ambient} exceeds the desk-scale bound")

    def coord_index(c: tuple[int, ...]) -> int:
        idx = 0
        for v, n in zip(c, dims):
            idx = idx * n + (v - 1)
        return idx

    unit_coords = []
    for c in product(*(range(1, n + 1) for n in dims)):
        inside = all(v <= r for v in c)
        if not inside or not is_admissible(c):
            unit_coords.append(c)

    slice_vectors = []
    reduced_grid = list(product(range(1, r + 1), repeat=k - 1))
    stream = 0
    for t in range(1, k + 1):
        for s in range(1, dims[t - 1] - r + 1):
            values = seeded_values(seed, stream, len(reduced_grid), p)
            stream += len(reduced_grid)
            for m in range(1, r + 1):
                vec = np.zeros(ambient, dtype=np.uint64)
                for w, val in zip(reduced_grid, values):
                    c = w[: t - 1] + (m,) + w[t - 1:]
                    vec[coord_index(c)] = val
                slice_vectors.append(vec)

    rows = np.zeros((len(unit_coords) + len(slice_vectors), ambient), dtype=np.uint64)
    for i, c in enumerate(unit_coords):
        rows[i, coord_index(c)] = 1
    for i, vec in enumerate(slice_vectors):
        rows[len(unit_coords) + i] = vec
    mm = ModularMatrix(rows.shape[0], ambient, p, rows)
    return rank_mod_p(mm)


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
