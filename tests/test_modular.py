import random
import tracemalloc
from itertools import product

import numpy as np
import pytest

from subrank.certificate import find_certificate, validate
from subrank.combinatorics import count_rows, is_admissible
from subrank import modular
from subrank.formulas import dim_C_r, generic_subrank
from subrank.modular import (
    MERSENNE61,
    ModularMatrix,
    RandomAssignment,
    _PANEL,
    _STRIP,
    _fold61,
    _limbs,
    _lower_inverse,
    _matmul61,
    _matmul_mod_m61,
    _mul61,
    _mulmod_m61,
    _pattern_rank,
    _rank_blocks,
    _rank_python,
    _sub61,
    _update,
    instantiate,
    is_prime,
    modular_to_coordinate_list,
    random_assignment,
    rank_mod_p,
    seeded_values,
    subspace_dimension_oracle,
    verify_generic_rank,
)
from subrank.pattern import build_pattern

from reference_minor import brute_force_uniqueness, count_monomial_terms, minor_determinant_check


def reference_seeded_value(seed, index, p):
    """Item `index` of stream `seed`: scalar splitmix64 on Python ints."""
    m64 = (1 << 64) - 1
    x = (seed + (index + 1) * 0x9E3779B97F4A7C15) & m64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & m64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & m64
    x ^= x >> 31
    return 1 + x % (p - 1)


def reference_lower_inverse(lower: np.ndarray, invs: np.ndarray) -> np.ndarray:
    """L'^-1 mod 2^61-1 by forward substitution, one row and one small matrix
    product at a time, for L' with diagonal 1 / invs and the strictly lower
    part of `lower` below it."""
    p = MERSENNE61
    g = len(invs)
    linv = np.zeros((g, g), dtype=np.uint64)
    for i in range(g):
        e = [0] * g
        e[i] = 1
        if i:
            acc = _matmul_mod_m61(lower[i : i + 1, :i], linv[:i])[0].tolist()
            e = [(x - y) % p for x, y in zip(e, acc)]
        linv[i] = [int(invs[i]) * x % p for x in e]
    return linv


def squaring_lower_inverse(lower: np.ndarray, invs: np.ndarray) -> np.ndarray:
    """L'^-1 mod 2^61-1 by repeated squaring alone, as `_lower_inverse` takes
    it for every size up to its squaring threshold: L' = D (I + M) with
    M = D^-1 N nilpotent, so L'^-1 = (I - M)(I + M^2)(I + M^4)... D^-1."""
    g = len(invs)
    m = _mulmod_m61(invs[:, None], np.tril(lower, -1))
    eye = np.eye(g, dtype=np.uint64)
    linv = _sub61(eye, m.copy())                         # I - M
    power, done = m, 2                                   # terms M^0..M^(done-1)
    while done < g:
        power = _matmul_mod_m61(power, power)            # M^done, zero diagonal
        linv = _matmul_mod_m61(linv, eye + power)
        done *= 2
    return _mulmod_m61(invs[None, :], linv)


def blocked_rank(a: np.ndarray, overwrite: bool = False) -> int:
    """Rank mod 2^61-1 of `a` by the blocked kernel, through `rank_mod_p`;
    `a` is left unchanged unless `overwrite`."""
    return rank_mod_p(ModularMatrix(MERSENNE61, a), overwrite)


def split_at_most(monkeypatch, width):
    """Make `_factor` split every column range it can: at most `width`
    columns left of each split, and small inputs split too."""
    monkeypatch.setattr(modular, "_PANEL", width)
    monkeypatch.setattr(modular, "_BASE_CELLS", 0)


def reference_update(a: np.ndarray, g: int, linv: np.ndarray, cols: list[int]) -> list[list[int]]:
    """The rows of `a` below its g pivot rows on columns `cols` after the
    update A22 - F (L'^-1 A12) mod 2^61-1, with F = a[g:, :g] and
    A12 = a[:g, cols], evaluated in Python ints."""
    p = MERSENNE61
    rows, li = a.tolist(), linv.tolist()
    u = [[sum(li[i][l] * rows[l][c] for l in range(g)) % p for c in cols] for i in range(g)]
    return [[(row[c] - sum(row[i] * u[i][j] for i in range(g))) % p
             for j, c in enumerate(cols)] for row in rows[g:]]


def strip_edges(c0: int, c1: int) -> list[int]:
    """The first and last column of each of `_update`'s strips of c0:c1."""
    return sorted({c for s0 in range(c0, c1, _STRIP) for c in (s0, min(s0 + _STRIP, c1) - 1)})


def random_entry(rng: random.Random) -> int:
    p = MERSENNE61
    return rng.choice((1, p - 1, p - 1, rng.randrange(1, p)))


def unit_and_block_diagonal(rng: random.Random, m: int, n: int) -> list[list[int]]:
    """Two rows in three are unit vectors; every third row is one short
    diagonal block."""
    rows = []
    for i in range(m):
        row = [0] * n
        if i % 3:
            row[rng.randrange(n)] = random_entry(rng)
        else:
            lo = (i * 5) % n
            for j in range(lo, min(lo + 6, n)):
                row[j] = random_entry(rng)
        rows.append(row)
    return rows


def reference_subspace_dimension_oracle(
    dims: tuple[int, ...],
    r: int,
    p: int = MERSENNE61,
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
    mm = ModularMatrix(p, rows)
    return rank_mod_p(mm)


class TestAssignments:
    def test_reproducible_and_nonzero(self):
        pm = build_pattern(4, (6, 6, 6))
        a1 = random_assignment(pm, seed=7)
        a2 = random_assignment(pm, seed=7)
        assert a1.values.dtype == np.uint64
        assert len(a1.values) == pm.n_vars
        assert np.array_equal(a1.values, a2.values)
        assert all(1 <= v < MERSENNE61 for v in a1.values.tolist())

    def test_seeds_differ(self):
        pm = build_pattern(4, (6, 6, 6))
        a1 = random_assignment(pm, seed=0)
        a2 = random_assignment(pm, seed=1)
        assert not np.array_equal(a1.values, a2.values)

    def test_stream_is_stable(self):
        # Frozen so assignments stay reproducible across releases.
        assert seeded_values(0, 0, 2, MERSENNE61).tolist() == [
            153307352162749886, 1042757494553273851,
        ]
        assert seeded_values(1, 0, 1, MERSENNE61).tolist() == [1227844342346046666]

    @pytest.mark.parametrize("seed", [0, 1, 7, -5, 2**70 + 3, 12345678901234567890])
    @pytest.mark.parametrize("p", [MERSENNE61, 2, 3, 10**9 + 7, 2**64 - 59])
    def test_stream_matches_scalar_reference(self, seed, p):
        for start, count in ((0, 500), (1000, 50), (3, 0)):
            got = seeded_values(seed, start, count, p)
            assert got.dtype == np.uint64 and got.shape == (count,)
            want = [reference_seeded_value(seed, i, p) for i in range(start, start + count)]
            assert got.tolist() == want


class TestInstantiate:
    def test_empty_pattern(self):
        pm = build_pattern(2, (3, 3, 3))
        mm = instantiate(pm, random_assignment(pm, 0))
        assert (mm.n_rows, mm.n_cols) == (0, 6)

    def test_all_ones_assignment_row_sums(self):
        pm = build_pattern(4, (6, 6, 6))
        ones = RandomAssignment(seed=0, p=MERSENNE61, values=np.ones(pm.n_vars, np.uint64))
        mm = instantiate(pm, ones)
        assert mm.data.sum(axis=1).tolist() == [6] * 24

    def test_missing_variable_rejected(self):
        pm = build_pattern(4, (6, 6, 6))
        n = pm.n_vars
        for size in (n - 1, n + 1):
            values = np.ones(size, np.uint64)
            with pytest.raises(ValueError, match=f"has {size} values but the pattern has {n} "):
                instantiate(pm, RandomAssignment(seed=0, p=MERSENNE61, values=values))

    def test_dense_size_guard(self):
        pm = build_pattern(24, (200, 200, 200))  # 12144 x 12672, 1.15 GiB
        with pytest.raises(ValueError, match=r"12144 x 12672 matrix needs 1174 MiB, "
                                             r"over the 1024 MiB limit"):
            instantiate(pm, random_assignment(pm, 0))

    def test_matrices_differ_between_seeds(self):
        pm = build_pattern(4, (6, 6, 6))
        m0 = instantiate(pm, random_assignment(pm, 0))
        m1 = instantiate(pm, random_assignment(pm, 1))
        assert not np.array_equal(m0.data, m1.data)

    @pytest.mark.parametrize("dims, r", [
        ((6, 7, 8), 4), ((9, 9, 9), 5), ((5, 5, 6, 7), 3), ((4, 5, 4, 6), 4),
        ((4, 4, 4, 5, 6), 3),
    ])
    def test_direction_scatter_matches_entries(self, dims, r):
        # `instantiate` scatters one direction's block at a time; the matrix
        # must equal one scatter of every entry `entries()` lists.
        pm = build_pattern(r, dims)
        assignment = random_assignment(pm, 3)
        rows, cols, var = pm.entries()
        want = np.zeros((pm.n_rows, pm.n_cols), dtype=np.uint64)
        want[rows, cols] = assignment.values[var]
        got = instantiate(pm, assignment).data
        assert got.dtype == np.uint64 and np.array_equal(got, want)
        assert np.count_nonzero(got) == pm.nnz

    def test_coordinate_export(self):
        pm = build_pattern(3, (4, 4, 4))
        mm = instantiate(pm, random_assignment(pm, 0))
        lines = modular_to_coordinate_list(mm).strip().split("\n")
        assert lines[0] == f"6 9 {pm.nnz}"
        assert len(lines) == 1 + pm.nnz
        i, j, v = lines[1].split()
        assert int(i) >= 1 and int(j) >= 1 and 0 < int(v) < MERSENNE61


class TestRank:
    def test_identity_and_zero(self):
        eye = ModularMatrix(MERSENNE61, np.eye(5, dtype=np.uint64))
        assert rank_mod_p(eye) == 5
        zero = ModularMatrix(MERSENNE61, np.zeros((4, 6), dtype=np.uint64))
        assert rank_mod_p(zero) == 0

    @pytest.mark.parametrize("p", [MERSENNE61, 7])
    @pytest.mark.parametrize("shape", [(0, 5), (3, 0)])
    def test_empty_matrix_shape_comes_from_its_data(self, shape, p):
        mm = ModularMatrix(p, np.zeros(shape, dtype=np.uint64))
        assert (mm.n_rows, mm.n_cols) == shape
        assert rank_mod_p(mm) == 0

    def test_square_example_is_full_rank(self):
        pm = build_pattern(4, (6, 6, 6))
        mm = instantiate(pm, random_assignment(pm, 0))
        assert rank_mod_p(mm) == 24

    def test_pivot_orders_agree_on_random_sparse(self, monkeypatch):
        split_at_most(monkeypatch, 16)
        rng = random.Random(99)
        p = MERSENNE61
        for _ in range(200):
            m = rng.randrange(1, 41)
            n = rng.randrange(1, 41)
            rows = [[0] * n for _ in range(m)]
            for _ in range(rng.randrange(0, 3 * max(m, n))):
                rows[rng.randrange(m)][rng.randrange(n)] = rng.randrange(p)
            fwd = _rank_python(rows, p)
            rev = _rank_python([row[::-1] for row in rows], p)
            arr = np.array(rows, dtype=np.uint64)
            assert fwd == rev == blocked_rank(arr)

    def test_blocked_kernel_agrees_with_reference(self, monkeypatch):
        rng = random.Random(2024)
        p = MERSENNE61

        def entry():
            return random_entry(rng)

        def product_rank_deficient(m, n, k):
            left = [[entry() for _ in range(k)] for _ in range(m)]
            right = [[entry() for _ in range(n)] for _ in range(k)]
            return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*right)]
                    for row in left]

        def dense(m, n, density):
            return [[entry() if rng.random() < density else 0 for _ in range(n)]
                    for _ in range(m)]

        cases = [
            dense(45, 37, 0.5),                            # several panels
            dense(30, 70, 0.2),
            [[p - 1] * 40 for _ in range(20)],             # every entry p - 1
            dense(24, _STRIP + 29, 0.3),                   # a partial last strip
            dense(12, 2 * _STRIP + 3, 0.05),
            unit_and_block_diagonal(rng, 60, 50),
            unit_and_block_diagonal(rng, 40, _STRIP + 5),
            product_rank_deficient(40, 36, 11),
            product_rank_deficient(26, _STRIP + 9, 19),
        ]
        for rows in cases:
            want = _rank_python(rows, p)
            arr = np.array(rows, dtype=np.uint64)
            for width in (4, 9, 128):
                split_at_most(monkeypatch, width)
                assert blocked_rank(arr) == blocked_rank(arr.copy(), overwrite=True) == want
        assert _rank_python(cases[2], p) == 1
        assert _rank_python(cases[7], p) == 11

    @pytest.mark.parametrize("g", [1, 2, 31, 32, 33, 64, 100, 128])
    def test_lower_inverse_matches_row_by_row_reference(self, g):
        p = MERSENNE61
        rng = np.random.default_rng(g)
        lower = rng.integers(0, p, size=(g, g), dtype=np.uint64)
        invs = rng.integers(1, p, size=g, dtype=np.uint64)
        assert (_lower_inverse(lower, invs) == reference_lower_inverse(lower, invs)).all()
        top = np.full((g, g), p - 1, dtype=np.uint64)
        assert (_lower_inverse(top, top[0]) == reference_lower_inverse(top, top[0])).all()

    @pytest.mark.parametrize("g", [1, 2, 17, 64, 127, 128])
    def test_lower_inverse_matches_squaring_reference(self, g, monkeypatch):
        p = MERSENNE61
        rng = np.random.default_rng(100 + g)
        lower = rng.integers(0, p, size=(g, g), dtype=np.uint64)
        invs = rng.integers(1, p, size=g, dtype=np.uint64)
        want = squaring_lower_inverse(lower, invs)
        assert (_lower_inverse(lower, invs) == want).all()
        monkeypatch.setattr(modular, "_SQUARING_ROWS", 1)        # halve down to 1 x 1
        assert (_lower_inverse(lower, invs) == want).all()

    def test_wide_rank_deficient_square_matches_reference(self, monkeypatch):
        # A wide matrix is factored on its leading square first; when that
        # falls short of full row rank, its pivots are applied to the later
        # columns and the rows left are ranked there.  Its transpose is tall,
        # so it takes the one-pass path and is an independent second kernel.
        p = MERSENNE61
        rng = np.random.default_rng(31)

        def dense(m, n):
            return rng.integers(0, p, size=(m, n), dtype=np.uint64)

        outcomes = []
        for case in range(300):
            m = int(rng.integers(2, 21))
            n = int(rng.integers(m + 1, 3 * m + 2))
            a = dense(m, n)
            kind = case % 3
            if kind == 0:           # the square is a low-rank product
                k = int(rng.integers(0, m))
                a[:, :m] = _matmul_mod_m61(dense(m, k), dense(k, m)) if k else 0
            elif kind == 1:         # zeroed column runs in the square
                for _ in range(int(rng.integers(1, 4))):
                    lo = int(rng.integers(0, m))
                    a[:, lo:lo + int(rng.integers(1, m + 1))] = 0
            else:                   # low rank overall, so the later columns fall short too
                k = int(rng.integers(0, m))
                a = _matmul_mod_m61(dense(m, k), dense(k, n)) if k else a * 0
            want = _rank_python(a.tolist(), p)
            assert _rank_python(a[:, :m].tolist(), p) < m
            outcomes.append(want == m)
            with monkeypatch.context() as mp:
                split_at_most(mp, int(rng.integers(2, 9)))
                assert blocked_rank(a) == blocked_rank(a.copy(), overwrite=True) == want
                assert blocked_rank(np.ascontiguousarray(a.T)) == want
        # The later columns make up the rank in some cases and not in others.
        assert 50 < sum(outcomes) < 250

    def test_rank_across_tile_edges_matches_reference(self, monkeypatch):
        # With 7-row tiles and small panels every update walks many tiles.
        # Rows that are zero on a leading column block keep zero multipliers
        # there, and a run of 8 to 20 of them straddles a tile edge, so tiles
        # are skipped whole, gathered and sliced.
        monkeypatch.setattr(modular, "_TILE_ROWS", 7)
        p = MERSENNE61
        rng = np.random.default_rng(71)
        for case in range(100):
            m = int(rng.integers(20, 81))
            n = int(m * (0.6, 1.0, 1.5)[case % 3])          # tall, square, wide
            a = rng.integers(0, p, size=(m, n), dtype=np.uint64)
            a[rng.random((m, n)) > 0.15] = 0
            for _ in range(int(rng.integers(1, 4))):
                lo = int(rng.integers(0, m))
                a[lo:lo + int(rng.integers(8, 21)), :int(rng.integers(1, n + 1))] = 0
            with monkeypatch.context() as mp:
                split_at_most(mp, int(rng.integers(2, 17)))
                assert blocked_rank(a) == _rank_python(a.tolist(), p)

    def test_saturated_wide_trial_never_touches_columns_past_square(self, monkeypatch):
        # At (64,64,64) r=13 the rank reaches the 1716 rows within the first
        # 1716 of 1989 columns, so no factor range or update reaches past them.
        reached = []
        factor, update = modular._factor, modular._update

        def spy_factor(a, r0, c0, c1):
            reached.append(c1)
            return factor(a, r0, c0, c1)

        def spy_update(a, r0, piv_cols, linv, c0, c1):
            reached.append(c1)
            return update(a, r0, piv_cols, linv, c0, c1)

        monkeypatch.setattr(modular, "_factor", spy_factor)
        monkeypatch.setattr(modular, "_update", spy_update)
        pm = build_pattern(13, (64, 64, 64))
        mm = instantiate(pm, random_assignment(pm, 0))
        right = mm.data[:, pm.n_rows:].copy()
        assert (pm.n_rows, pm.n_cols) == (1716, 1989)
        assert rank_mod_p(mm, overwrite=True) == pm.n_rows
        assert reached and max(reached) == pm.n_rows
        # Rows are swapped whole, so the later columns hold a permutation of
        # their rows, and nothing else.
        assert sorted(map(tuple, mm.data[:, pm.n_rows:].tolist())) == sorted(
            map(tuple, right.tolist()))

    def test_panel_splits_at_midpoint_by_shape_rule(self, monkeypatch):
        # A range splits while it is wider than 16 columns and has more than
        # 2^14 entries from its first row down, at its midpoint or 128
        # columns in; the right part starts at the row after the left part's
        # pivots.
        calls = []
        factor = modular._factor

        def recording(a, r0, c0, c1):
            calls.append((r0, c0, c1))
            return factor(a, r0, c0, c1)

        monkeypatch.setattr(modular, "_factor", recording)
        rng = np.random.default_rng(5)
        a = rng.integers(1, MERSENNE61, size=(600, 45), dtype=np.uint64)
        assert blocked_rank(a) == 45
        assert calls == [(0, 0, 45), (0, 0, 22), (22, 22, 45)]   # odd width rounds down
        calls.clear()
        a = rng.integers(1, MERSENNE61, size=(600, 128), dtype=np.uint64)
        assert blocked_rank(a) == 128
        assert calls == [
            (0, 0, 128),
            (0, 0, 64), (0, 0, 32), (0, 0, 16), (16, 16, 32),
            (32, 32, 64), (32, 32, 48), (48, 48, 64),          # 568 x 32 splits
            (64, 64, 128), (64, 64, 96), (64, 64, 80), (80, 80, 96),
            (96, 96, 128),                                     # 504 x 32 does not
        ]
        # Wider than two panels: the first split is 128 columns in, and no
        # range with columns right of it is wider than 128.
        calls.clear()
        a = rng.integers(1, MERSENNE61, size=(600, 300), dtype=np.uint64)
        assert blocked_rank(a) == 300
        assert calls[:2] == [(0, 0, 300), (0, 0, 128)]
        assert (128, 128, 300) in calls
        assert all(c1 - c0 <= 128 for _, c0, c1 in calls if c1 < 300)

    def test_recursive_panel_agrees_with_reference(self, monkeypatch):
        p = MERSENNE61
        rng = np.random.default_rng(2025)

        def dense(m, n):
            return rng.integers(0, p, size=(m, n), dtype=np.uint64)

        def product(m, n, k):
            return _matmul_mod_m61(dense(m, k), dense(k, n))

        def zero_bands(a, *bands):
            for lo, hi in bands:
                a[:, lo:hi] = 0
            return a

        # About 150 x 200: the matrix splits once, at column 100.
        for a in [
            dense(150, 200),
            product(150, 200, 90),
            zero_bands(dense(150, 200), (50, 80), (180, 200)),
            zero_bands(dense(150, 200), (0, 64)),
            zero_bands(dense(150, 200), (0, 100)),               # no pivot in the left half
        ]:
            want = _rank_python(a.tolist(), p)
            assert blocked_rank(a) == blocked_rank(a.copy(), overwrite=True) == want
        # Wider than the rows: they run out inside the left half.
        with monkeypatch.context() as mp:
            split_at_most(mp, 512)
            a = dense(60, 700)
            assert blocked_rank(a) == _rank_python(a.tolist(), p) == 60

        # Larger inputs split at several depths; 16-column parts never split.
        cases = [
            product(600, 700, 450),
            zero_bands(dense(400, 500), (20, 44), (56, 72), (120, 136), (180, 200)),
            zero_bands(dense(400, 500), (128, 192), (200, 208)),
            np.array(unit_and_block_diagonal(random.Random(4), 400, 300), dtype=np.uint64),
        ]
        ranks = [blocked_rank(a) for a in cases]
        assert ranks == [blocked_rank(a.copy(), overwrite=True) for a in cases]
        split_at_most(monkeypatch, 16)
        assert ranks == [blocked_rank(a) for a in cases]
        assert ranks[:3] == [450, 400, 400]

    def test_factor_returns_inverse_exactly_when_used(self, monkeypatch):
        # `_factor` returns L'^-1 unless no column of the leading square lies
        # right of its range or its pivots use up the rows.  L'^-1 has
        # diagonal 1 / pivot, so it
        # must equal the row-by-row inverse of its own diagonal's inverses
        # and the multipliers left below the pivots.
        p = MERSENNE61
        rng = np.random.default_rng(9)
        depth = [0]
        composed_at = set()
        seen = {"none": 0, "inverse": 0}
        factor = modular._factor

        def checking(a, r0, c0, c1):
            depth[0] += 1
            piv_cols, linv = factor(a, r0, c0, c1)
            depth[0] -= 1
            g = len(piv_cols)
            if c1 == min(a.shape) or r0 + g == a.shape[0]:
                assert linv is None
                seen["none"] += 1
                return piv_cols, linv
            assert linv.shape == (g, g)
            invs = np.diagonal(linv).copy()
            lower = a[r0:r0 + g, piv_cols]
            assert (linv == reference_lower_inverse(lower, invs)).all()
            seen["inverse"] += 1
            if g and c1 - c0 > modular._BASE_WIDTH:
                composed_at.add(depth[0])
            return piv_cols, linv

        monkeypatch.setattr(modular, "_factor", checking)
        split_at_most(monkeypatch, 64)
        left = rng.integers(0, p, size=(300, 120), dtype=np.uint64)
        right = rng.integers(0, p, size=(120, 400), dtype=np.uint64)
        a = _matmul_mod_m61(left, right)                 # rank 120, columns right
        assert blocked_rank(a) == _rank_python(a.tolist(), p) == 120
        assert len(composed_at) >= 3
        for a in [
            rng.integers(0, p, size=(200, 90), dtype=np.uint64),     # columns run out
            rng.integers(0, p, size=(70, 200), dtype=np.uint64),     # rows run out
            np.array(unit_and_block_diagonal(random.Random(3), 90, 80), dtype=np.uint64),
        ]:
            assert blocked_rank(a) == _rank_python(a.tolist(), p)
        assert seen["none"] and seen["inverse"]

    def test_recursive_panel_on_instantiated_patterns(self):
        # Full row rank at 504 x 621; full column rank at 504 x 405.
        for n, want in ((32, 504), (24, 405)):
            pm = build_pattern(9, (n, n, n))
            assert min(pm.n_rows, pm.n_cols) == want
            assert rank_mod_p(instantiate(pm, random_assignment(pm, 0))) == want

    def test_limb_matmul_is_exact_at_inner_bound(self):
        p = MERSENNE61
        x = [[p - 1] * 512 for _ in range(3)]
        y = [[p - 1] * 4 for _ in range(512)]
        got = _matmul_mod_m61(np.array(x, dtype=np.uint64), np.array(y, dtype=np.uint64))
        want = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*y)] for row in x]
        assert got.tolist() == want == [[512] * 4] * 3
        with pytest.raises(ValueError, match="inner dimension"):
            _matmul_mod_m61(np.zeros((1, 513), dtype=np.uint64),
                            np.zeros((513, 1), dtype=np.uint64))

    def test_small_prime_path(self):
        rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
        mm = ModularMatrix(7, np.array(rows, dtype=np.uint64))
        assert rank_mod_p(mm) == 2

    def test_square_example_via_independent_elimination_orders(self, monkeypatch):
        pm = build_pattern(4, (6, 6, 6))
        mm = instantiate(pm, random_assignment(pm, 0))
        rows = mm.data.tolist()
        assert _rank_python(rows, MERSENNE61) == 24
        assert _rank_python([row[::-1] for row in rows], MERSENNE61) == 24
        split_at_most(monkeypatch, 7)
        assert blocked_rank(mm.data) == 24


def block_layout(rng: np.random.Generator, blocks: int, h: int, width: int, extra: int) -> np.ndarray:
    """A seeded (blocks h) x (blocks width + extra) matrix whose first blocks
    width columns are block diagonal, as `_rank_blocks` expects: block i is
    rows i h:(i+1) h by columns i width:(i+1) width, and every entry of the
    blocks and of the later columns is a random residue."""
    a = np.zeros((blocks * h, blocks * width + extra), dtype=np.uint64)
    for i in range(blocks):
        a[i * h:(i + 1) * h, i * width:(i + 1) * width] = rng.integers(
            0, MERSENNE61, size=(h, width), dtype=np.uint64)
    a[:, blocks * width:] = rng.integers(0, MERSENNE61, size=(blocks * h, extra), dtype=np.uint64)
    return a


def spy_block_step(monkeypatch) -> dict[str, list]:
    """Record what each `_eliminate_blocks` call returned (None: a block had
    no pivot) and a copy of every matrix `_rank61` ranks, as it was passed,
    in call order."""
    seen = {"eliminated": [], "ranked": []}
    eliminate, rank61 = modular._eliminate_blocks, modular._rank61

    def spy_eliminate(stack, g):
        order = eliminate(stack, g)
        seen["eliminated"].append(order)
        return order

    def spy_rank61(a):
        seen["ranked"].append(a.copy())
        return rank61(a)

    monkeypatch.setattr(modular, "_eliminate_blocks", spy_eliminate)
    monkeypatch.setattr(modular, "_rank61", spy_rank61)
    return seen


def cube_shapes(n: int) -> list[tuple[tuple[int, ...], int]]:
    """(dims, r) of the cube n at r = Q and at the overshoot r = Q + 1, where
    the pattern has rows."""
    q = generic_subrank((n, n, n)).q
    return [((n, n, n), r) for r in (q, q + 1) if 1 <= r <= n and count_rows(r, 3)]


class TestBlockStep:
    # Direction 1's columns of a pattern are block diagonal, so a rank trial
    # eliminates those blocks together and ranks only their Schur complement.
    # Every rank must equal the generic kernel's, and `_rank_python`'s where
    # the matrix is small.

    @pytest.mark.parametrize("r, dims", [
        (4, (6, 6, 6)), (6, (14, 16, 18)), (5, (9, 7, 8)), (3, (8, 8, 8, 8)),
        (3, (4, 5, 6, 7)), (2, (5, 3, 4, 3, 6)), (4, (30, 8, 8)), (13, (64, 64, 64)),
    ])
    def test_direction_one_is_block_diagonal(self, r, dims):
        # Column (1, m, s) meets only the rows with j_1 = m, and those are the
        # m-th run of n_rows / r rows; every other direction lies past them.
        pm = build_pattern(r, dims)
        h, width = pm.n_rows // r, dims[0] - r
        assert h * r == pm.n_rows
        blocks = pm.direction_blocks()
        cols, _ = next(blocks)
        block = np.arange(pm.n_rows) // h
        assert np.array_equal(cols, block[:, None] * width + np.arange(width))
        assert all((c >= r * width).all() for c, _ in blocks)

    @pytest.mark.parametrize("n", range(3, 25))
    def test_cubes_match_generic_kernel(self, n, monkeypatch):
        seen = spy_block_step(monkeypatch)
        for dims, r in cube_shapes(n):
            pm = build_pattern(r, dims)
            for seed in range(3):
                a = instantiate(pm, random_assignment(pm, seed)).data
                want = modular._rank61(a.copy())
                if pm.n_rows * pm.n_cols <= 60 * 105:
                    assert _rank_python(a.tolist(), MERSENNE61) == want
                seen["eliminated"].clear()
                assert _rank_blocks(a, r, n - r) == want
                # Seeded values give every block a pivot in every column.
                assert [order is None for order in seen["eliminated"]] == [False]

    @pytest.mark.parametrize("r, dims", [(3, (8, 8, 8, 8)), (6, (14, 16, 18))])
    def test_order_four_and_non_cube_match_generic_kernel(self, r, dims, monkeypatch):
        seen = spy_block_step(monkeypatch)
        pm = build_pattern(r, dims)
        for seed in range(3):
            a = instantiate(pm, random_assignment(pm, seed)).data
            want = modular._rank61(a.copy())
            if seed == 0:
                assert _rank_python(a.tolist(), MERSENNE61) == want
            assert _rank_blocks(a, r, dims[0] - r) == want == pm.n_rows
        assert len(seen["eliminated"]) == 3 and all(o is not None for o in seen["eliminated"])

    def test_all_ones_falls_back(self, monkeypatch):
        # Every block is all ones, of rank 1, so no block finds a second
        # pivot and the whole matrix goes to the generic kernel.
        seen = spy_block_step(monkeypatch)
        pm = build_pattern(5, (12, 12, 12))
        ones = RandomAssignment(0, MERSENNE61, np.ones(pm.n_vars, dtype=np.uint64))
        a = instantiate(pm, ones).data
        want = _rank_python(a.tolist(), MERSENNE61)
        assert _rank_blocks(a, 5, 7) == want < pm.n_rows
        assert seen["eliminated"] == [None]
        assert seen["ranked"][0].shape == (pm.n_rows, pm.n_cols)

    @pytest.mark.parametrize("dependent", [False, True])
    def test_block_without_pivot_falls_back(self, dependent, monkeypatch):
        # Block 2 has no pivot in its column 3: the column is zero, or twice
        # its column 1, which leaves no pivot only once column 1 is
        # eliminated.
        seen = spy_block_step(monkeypatch)
        rng = np.random.default_rng(3 + dependent)
        blocks, h, width = 4, 9, 5
        a = block_layout(rng, blocks, h, width, 12)
        rows, c = slice(2 * h, 3 * h), 2 * width + 3
        a[rows, c] = _mulmod_m61(a[rows, c - 2], np.uint64(2)) if dependent else 0
        want = _rank_python(a.tolist(), MERSENNE61)
        before = a.copy()
        assert _rank_blocks(a, blocks, width) == want
        assert seen["eliminated"] == [None]
        # The generic kernel ranked the matrix as it was given.
        assert np.array_equal(seen["ranked"][0], before)

    @pytest.mark.parametrize("row, col", [(0, 18), (119, 0), (50, 30)])
    def test_nonzero_outside_blocks_skips_step(self, row, col, monkeypatch):
        # (14,14,14) r=6 has six 20 x 8 blocks; one nonzero off them, in
        # their columns, and the matrix is not block diagonal.
        seen = spy_block_step(monkeypatch)
        pm = build_pattern(6, (14, 14, 14))
        a = instantiate(pm, random_assignment(pm, 0)).data
        assert a[row, col] == 0 and row // 20 != col // 8
        a[row, col] = 12345
        want = modular._rank61(a.copy())
        before = a.copy()
        seen["ranked"].clear()
        assert _rank_blocks(a, 6, 8) == want
        assert seen["eliminated"] == []
        assert np.array_equal(seen["ranked"][0], before)

    def test_wide_blocks_are_full_row_rank(self, monkeypatch):
        # Blocks wider than tall reach g = h pivots each: full row rank, and
        # nothing is left to rank past them, whatever the later columns hold.
        seen = spy_block_step(monkeypatch)
        rng = np.random.default_rng(11)
        a = block_layout(rng, 3, 4, 7, 5)
        a[:, 21:] = 0
        assert _rank_python(a.tolist(), MERSENNE61) == 12
        assert _rank_blocks(a, 3, 7) == 12
        assert seen["ranked"] == []
        pm = build_pattern(4, (30, 8, 8))                # 24 rows in blocks of 6 x 26
        a = instantiate(pm, random_assignment(pm, 0)).data
        want = _rank_python(a.tolist(), MERSENNE61)
        assert _rank_blocks(a, 4, 26) == want == 24
        assert [o is None for o in seen["eliminated"]] == [False, False]

    def test_random_layouts_match_reference(self, monkeypatch):
        # Sparse blocks put pivots below the diagonal, so rows are swapped
        # and later columns must follow them; some blocks lose a pivot and
        # fall back.  Later columns of low rank leave complements short of
        # full rank.  Later columns that are each block's own columns times
        # a matrix leave a zero complement, but only if every row keeps its
        # later part through the swaps and the eliminated blocks are used.
        seen = spy_block_step(monkeypatch)
        p = MERSENNE61
        rng = np.random.default_rng(57)
        swapped = fell_back = short = spanned = 0
        for case in range(300):
            blocks, h, width = (int(x) for x in rng.integers(1, (5, 10, 9)))
            extra = int(rng.integers(1, 14))
            a = block_layout(rng, blocks, h, width, extra)
            w = blocks * width
            a[:, :w][rng.random((blocks * h, w)) < (0.1, 0.4, 0.7)[case % 3]] = 0
            if case % 4 == 0:
                k = int(rng.integers(0, 3))
                a[:, w:] = _matmul_mod_m61(
                    rng.integers(0, p, size=(blocks * h, k), dtype=np.uint64),
                    rng.integers(0, p, size=(k, extra), dtype=np.uint64)) if k else 0
            elif case % 4 == 1:
                for i in range(blocks):
                    a[i * h:(i + 1) * h, w:] = _matmul_mod_m61(
                        a[i * h:(i + 1) * h, i * width:(i + 1) * width],
                        rng.integers(0, p, size=(width, extra), dtype=np.uint64))
            want = _rank_python(a.tolist(), p)
            seen["eliminated"].clear()
            with monkeypatch.context() as mp:
                split_at_most(mp, int(rng.integers(2, 9)))
                assert _rank_blocks(a, blocks, width) == want
            order = seen["eliminated"][0] if seen["eliminated"] else None
            fell_back += order is None
            moved = order is not None and (order != np.arange(h)).any()
            swapped += moved
            short += want < min(a.shape)
            spanned += moved and case % 4 == 1 and h > width
        assert swapped > 30 and fell_back > 30 and short > 30 and spanned > 5

    def test_trials_take_the_step_by_size_only(self, monkeypatch):
        # Only where `_factor` would split (over 2^14 entries) and some column
        # lies past the blocks: the (6,6,6) warm-up, the five dim-oracle
        # matrices and (40,7,7) r=7 (no later column) stay on the generic
        # kernel; so does any other prime.
        taken = []
        rank_blocks = modular._rank_blocks

        def spy(a, blocks, width):
            taken.append(a.shape)
            return rank_blocks(a, blocks, width)

        monkeypatch.setattr(modular, "_rank_blocks", spy)
        generic = [(4, (6, 6, 6)), (6, (10, 10, 10)), (6, (12, 12, 12)), (5, (6, 8, 10)),
                   (3, (4, 4, 4, 4)), (3, (6, 6, 6, 6)), (7, (40, 7, 7))]
        for r, dims in generic:
            pm = build_pattern(r, dims)
            assert _pattern_rank(pm, 0, MERSENNE61) == modular._rank61(
                instantiate(pm, random_assignment(pm, 0)).data)
        assert taken == []
        for r, dims in [(6, (14, 14, 14)), (9, (32, 32, 32)), (3, (8, 8, 8, 8))]:
            pm = build_pattern(r, dims)
            assert _pattern_rank(pm, 0, MERSENNE61) == pm.n_rows
        assert taken == [(120, 144), (504, 621)]
        monkeypatch.setattr(modular, "_BASE_CELLS", 0)
        pm, p = build_pattern(4, (7, 7, 7)), 1_000_003
        want = _rank_python(instantiate(pm, random_assignment(pm, 0, p)).data.tolist(), p)
        assert _pattern_rank(pm, 0, p) == want
        assert len(taken) == 2


P = MERSENNE61

# Residues at the edges of the 31/30-bit limb split: 0, 1 and p - 1, each
# limb at its maximum (2^31 - 1 is a full low limb, p - 2^31 - 1 has a full
# low limb under the largest-but-one high limb), and neighbours.
EDGE = [0, 1, 2, (1 << 31) - 1, 1 << 31, P - (1 << 31) - 1, P - (1 << 31), P - 2, P - 1]


class TestFusedArithmetic:
    def test_fold_reduces_every_uint64(self):
        xs = [0, 1, P - 1, P, P + 1, 2 * P, 1 << 62, 4 * P, 5 * P - 1, (1 << 64) - 1]
        x = np.array(xs, dtype=np.uint64)
        assert _fold61(x).tolist() == [v % P for v in xs]

    def test_products_at_residue_bounds(self):
        # Column x row, as the leaf calls it: every unreduced product is
        # congruent and below 4p, and (p-1)^2 goes past 3p.
        col, row = np.array(EDGE, dtype=np.uint64)[:, None], np.array(EDGE, dtype=np.uint64)
        acc = _mul61(col, row).tolist()
        for x, accs in zip(EDGE, acc):
            for y, v in zip(EDGE, accs):
                assert v < 4 * P and v % P == x * y % P
        assert acc[-1][-1] > 3 * P
        want = [[x * y % P for y in EDGE] for x in EDGE]
        assert _mulmod_m61(col, row).tolist() == want
        assert _mulmod_m61(row[:, None], col[:, 0]).tolist() == want

    @pytest.mark.parametrize("a", [0, 1, P - 1])
    def test_fused_subtract_at_residue_bounds(self, a):
        col, row = np.array(EDGE, dtype=np.uint64)[:, None], np.array(EDGE, dtype=np.uint64)
        target = np.full((len(EDGE), len(EDGE)), a, dtype=np.uint64)
        got = _sub61(target, _mul61(col, row))
        assert got.tolist() == [[(a - x * y) % P for y in EDGE] for x in EDGE]
        assert (target == a).all()

    @pytest.mark.parametrize("linv_entry", [None, P - 1])
    def test_strip_update_at_accumulator_maximum(self, linv_entry):
        # 128 pivots, the most `_update` gets: the float64 products have
        # inner dimension 3 * 128.  With every entry p - 1 and L'^-1 = I, the
        # strip product F (L'^-1 A12) is unreduced at its largest.
        g, below, w = _PANEL, 3, 5
        a = np.full((g + below, g + w), P - 1, dtype=np.uint64)
        if linv_entry is None:
            linv = np.eye(g, dtype=np.uint64)
        else:
            linv = np.full((g, g), linv_entry, dtype=np.uint64)
        rows = a.tolist()
        li = linv.tolist()
        u = [[sum(li[i][l] * rows[l][g + j] for l in range(g)) % P for j in range(w)]
             for i in range(g)]
        want = [[(rows[g + r][g + j] - sum(rows[g + r][i] * u[i][j] for i in range(g))) % P
                 for j in range(w)] for r in range(below)]
        acc = _matmul61(_limbs(a[g:, :g]), np.array(u, dtype=np.uint64))
        assert all(v < 4 * P and v % P == (P - 1 - x) % P
                   for v, x in zip(acc.ravel().tolist(), np.array(want).ravel().tolist()))
        _update(a, 0, list(range(g)), linv, g, g + w)
        assert a[g:, g:].tolist() == want
        assert (a[:g] == P - 1).all() and (a[g:, :g] == P - 1).all()

    def test_tiled_update_is_byte_identical(self, monkeypatch):
        # `_update` walks the rows below its pivots in tiles of _TILE_ROWS at
        # every height.  Here the changed rows skip every third row of the
        # first half and run unbroken in the second, so tiles are gathered
        # and sliced; every tiling leaves the same array as one block, and
        # that array is A22 - F (L'^-1 A12) at each strip edge.
        rng = np.random.default_rng(17)
        g, m, n = 40, 600, 1300
        c0, c1 = g + 5, n - 7
        a = rng.integers(0, P, size=(m, n), dtype=np.uint64)
        a[g:300:3, :g] = 0
        linv = np.tril(rng.integers(0, P, size=(g, g), dtype=np.uint64))
        results = []
        for tile in (1000, 256, 33, 1):         # one block, then tiles
            monkeypatch.setattr(modular, "_TILE_ROWS", tile)
            b = a.copy()
            _update(b, 0, list(range(g)), linv, c0, c1)
            results.append(b)
        assert not np.array_equal(results[0], a)
        for b in results[1:]:
            assert np.array_equal(b, results[0])
        unchanged = results[0] == a
        assert unchanged[:, :c0].all() and unchanged[:, c1:].all()
        assert unchanged[g:300:3].all() and not unchanged[g + 1, c0:c1].any()
        edges = strip_edges(c0, c1)
        assert results[0][g:, edges].tolist() == reference_update(a, g, linv, edges)

    @pytest.mark.parametrize("case", ["short", "zero tile", "no change"])
    def test_update_at_default_tiles_matches_reference(self, case):
        # At the default 256-row tiles: a 300-row matrix, whose 260 rows below
        # the pivots end in a 4-row tile; a tile whose rows of F are all zero,
        # which is left byte-identical; and an update that changes no row.
        rng = np.random.default_rng(18)
        g, m, n = 40, 300 if case == "short" else 600, 700
        c0, c1 = g + 3, n
        a = rng.integers(0, P, size=(m, n), dtype=np.uint64)
        zero_f = np.zeros(m, dtype=bool)         # rows below with a zero row of F
        if case == "zero tile":
            zero_f[g + 256:g + 512] = True
        elif case == "no change":
            zero_f[g:] = True
        a[zero_f, :g] = 0
        linv = np.tril(rng.integers(0, P, size=(g, g), dtype=np.uint64))
        b = a.copy()
        _update(b, 0, list(range(g)), linv, c0, c1)
        unchanged = b == a
        assert unchanged[:, :c0].all() and unchanged[:g].all() and unchanged[zero_f].all()
        changed = ~zero_f
        changed[:g] = False
        assert not unchanged[changed, c0:].all(axis=1).any()
        edges = strip_edges(c0, c1)
        assert b[g:, edges].tolist() == reference_update(a, g, linv, edges)

    def test_products_leave_operands_unchanged(self):
        rng = np.random.default_rng(11)
        x = rng.integers(0, P, size=(40, 128), dtype=np.uint64)
        y = rng.integers(0, P, size=(128, 30), dtype=np.uint64)
        xc, yc = x.copy(), y.copy()
        _matmul_mod_m61(x, y)
        _mulmod_m61(x[:, :1], y[0])
        assert (x == xc).all() and (y == yc).all()
        pm = build_pattern(9, (24, 24, 24))
        mm = instantiate(pm, random_assignment(pm, 0))
        data = mm.data.copy()
        assert rank_mod_p(mm) == rank_mod_p(mm) == 405
        assert (mm.data == data).all()
        assert rank_mod_p(mm, overwrite=True) == 405

    def test_every_product_operand_is_reduced(self, monkeypatch):
        # The bounds of `_mul61` and `_matmul61` hold only for operands below
        # p, so the kernel must fold each one before it multiplies.
        calls = []

        def checked(f):
            def wrapped(*operands):
                for v in operands:
                    assert v.dtype != np.uint64 or int(v.max(initial=0)) < P
                calls.append(f.__name__)
                return f(*operands)
            return wrapped

        for name in ("_mul61", "_limbs", "_matmul61"):
            monkeypatch.setattr(modular, name, checked(getattr(modular, name)))
        split_at_most(monkeypatch, 32)
        rng = np.random.default_rng(12)
        left = rng.integers(0, P, size=(150, 90), dtype=np.uint64)
        right = rng.integers(0, P, size=(90, 200), dtype=np.uint64)
        assert blocked_rank(_matmul_mod_m61(left, right)) == 90
        assert {"_mul61", "_limbs", "_matmul61"} <= set(calls)


class TestVerifyGenericRank:
    def test_square_example(self):
        pm = build_pattern(4, (6, 6, 6))
        verdict = verify_generic_rank(pm, 24, trials=3, base_seed=0)
        assert verdict.ok
        assert "rank 24" in verdict.detail

    def test_degree_six(self):
        pm = build_pattern(3, (4, 4, 4))
        assert verify_generic_rank(pm, 6).ok

    def test_too_few_columns_cannot_verify(self):
        pm = build_pattern(5, (6, 6, 6))
        verdict = verify_generic_rank(pm, 60, trials=2)
        assert not verdict.ok
        assert "max 15" in verdict.detail

    def test_trials_must_be_positive(self):
        pm = build_pattern(3, (4, 4, 4))
        with pytest.raises(ValueError):
            verify_generic_rank(pm, 6, trials=0)

    def test_trial_eliminates_its_matrix_in_place(self):
        # The trial holds its dense matrix once: a working copy of it would
        # add a whole matrix to the peak (4.3 times the matrix with one).
        pm = build_pattern(10, (40, 40, 40))
        dense = pm.n_rows * pm.n_cols * 8
        tracemalloc.start()
        try:
            verdict = verify_generic_rank(pm, pm.n_rows, trials=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.ok
        assert peak < 3.5 * dense


    def test_tall_trial_workspace_is_bounded(self):
        # The update works in 256-row tiles at every height, so one trial at
        # (64,64,64) r=13 holds its 26 MiB matrix and a workspace of a few
        # MiB: one strip of L'^-1 A12 in limbs (2.5 MiB) and a tile's
        # temporaries (1 MiB each).  Whole-height strips held 18 MiB more.
        pm = build_pattern(13, (64, 64, 64))
        dense = pm.n_rows * pm.n_cols * 8
        tracemalloc.start()
        try:
            verdict = verify_generic_rank(pm, pm.n_rows, trials=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.ok
        assert peak < dense + 10 * 2**20


class TestPinnedTrials:
    # Trial details and oracle values as the kernel gave them before its
    # arithmetic was fused; any inexact step would change a rank.
    @pytest.mark.parametrize("dims, r, detail", [
        ((12, 12, 12), 5, "rank 60 >= 60 at seed 0 (trial ranks [60])"),
        ((8, 8, 8, 8), 3, "rank 54 >= 54 at seed 0 (trial ranks [54])"),
        ((24, 24, 24), 9,
         "no trial reached rank 504; ranks [405, 405, 405] (max 405) over seeds 0..2"),
    ])
    def test_verify_detail(self, dims, r, detail):
        pm = build_pattern(r, dims)
        assert verify_generic_rank(pm, pm.n_rows, trials=3, base_seed=0).detail == detail

    @pytest.mark.parametrize("dims, r, dim", [
        ((10, 10, 10), 6, 952),
        ((12, 12, 12), 6, 1716),
        ((6, 8, 10), 5, 465),
        ((4, 4, 4, 4), 3, 214),
        ((6, 6, 6, 6), 3, 1278),
    ])
    def test_oracle_values(self, dims, r, dim):
        assert subspace_dimension_oracle(dims, r) == dim == dim_C_r(dims, r).dim


class TestMinorDeterminant:
    def test_worked_example_certificate_minor(self):
        pm = build_pattern(4, (6, 6, 6))
        cert = find_certificate(pm)
        for seed in range(3):
            assert minor_determinant_check(pm, cert, seed=seed).ok

    def test_zeroed_row_kills_determinant(self):
        pm = build_pattern(4, (6, 6, 6))
        cert = find_certificate(pm)
        base = random_assignment(pm, 0)
        values = base.values.copy()
        entry_rows, _, entry_vars = pm.entries()
        values[entry_vars[entry_rows == 0]] = 0  # every variable of row 0
        zeroed = RandomAssignment(seed=0, p=MERSENNE61, values=values)
        verdict = minor_determinant_check(pm, cert, assignment=zeroed)
        assert not verdict.ok

    def test_assignment_prime_and_seed_are_used(self):
        pm = build_pattern(4, (6, 6, 6))
        cert = find_certificate(pm)
        mod3 = minor_determinant_check(pm, cert, assignment=random_assignment(pm, 0, 3))
        assert not mod3.ok
        assert "mod 3 " in mod3.detail and "rank 22 < 24" in mod3.detail
        ones = RandomAssignment(seed=5, p=MERSENNE61, values=np.ones(pm.n_vars, np.uint64))
        verdict = minor_determinant_check(pm, cert, assignment=ones)
        assert not verdict.ok
        assert "at seed 5:" in verdict.detail

    def test_empty_minor_ok_by_convention(self):
        pm = build_pattern(2, (3, 3, 3))
        cert = find_certificate(pm)
        assert minor_determinant_check(pm, cert).ok

    def test_non_square_reported(self):
        pm = build_pattern(4, (6, 6, 6))
        cert = find_certificate(pm)
        truncated = cert.__class__(
            r=cert.r, dims=cert.dims, steps=cert.steps[:-1], monomial=cert.monomial
        )
        verdict = minor_determinant_check(pm, truncated)
        assert not verdict.ok
        assert "square" in verdict.detail

    def test_succeeds_wherever_validate_does_on_grid_sample(self):
        from itertools import product

        grid = []
        for r in range(3, 7):
            for dims in product(range(r, r + 5), repeat=3):
                if sum(dims) >= r * r + 2:
                    grid.append((r, dims))
        for r, dims in grid[::9]:
            pm = build_pattern(r, dims)
            cert = find_certificate(pm)
            assert validate(pm, cert).ok
            for seed in range(3):
                verdict = minor_determinant_check(pm, cert, seed=seed)
                assert verdict.ok, f"r={r}, dims={dims}, seed={seed}: {verdict.detail}"


class TestBruteForceUniqueness:
    CROSS_OUT_MATRIX = [
        ["a1", None, "a3", None],
        [None, "a2", "a1", None],
        [None, "a3", None, "a4"],
        ["a4", None, None, "a2"],
    ]

    def test_worked_four_by_four(self):
        assert count_monomial_terms(self.CROSS_OUT_MATRIX, {"a1": 2, "a2": 1, "a3": 1}) == 1

    def test_other_monomials_of_the_example(self):
        assert count_monomial_terms(self.CROSS_OUT_MATRIX, {"a2": 1, "a3": 1, "a4": 2}) == 1
        assert count_monomial_terms(self.CROSS_OUT_MATRIX, {"a1": 1, "a2": 1, "a3": 1, "a4": 1}) == 0

    def test_one_by_one(self):
        assert count_monomial_terms([["a1"]], {"a1": 1}) == 1

    def test_certificate_minor_is_unique(self):
        pm = build_pattern(3, (4, 4, 4))
        cert = find_certificate(pm)
        verdict = brute_force_uniqueness(pm, cert)
        assert verdict.ok, verdict.detail

    def test_agrees_with_validate_on_all_micro_instances(self):
        # Certificate-regime patterns with at most 8 rows are exactly r <= 3.
        from itertools import product

        checked = 0
        for dims in product(range(3, 7), repeat=3):
            pm = build_pattern(3, dims)
            if pm.n_cols < pm.n_rows:
                continue
            cert = find_certificate(pm)
            assert validate(pm, cert).ok
            assert brute_force_uniqueness(pm, cert).ok
            checked += 1
        assert checked > 50
        empty = build_pattern(2, (3, 3, 3))
        cert = find_certificate(empty)
        assert validate(empty, cert).ok
        assert brute_force_uniqueness(empty, cert).ok

    def test_size_bound(self):
        pm = build_pattern(4, (6, 6, 6))
        cert = find_certificate(pm)
        with pytest.raises(ValueError, match="bound"):
            brute_force_uniqueness(pm, cert)


class TestSubspaceOracle:
    def test_cube_three(self):
        assert subspace_dimension_oracle((3, 3, 3), 3) == 21

    def test_asymmetric(self):
        assert subspace_dimension_oracle((4, 3, 3), 3) == 33

    def test_rank_one_is_full(self):
        assert subspace_dimension_oracle((2, 2, 2), 1) == 8

    def test_seed_independence(self):
        for seed in (0, 1, 2):
            assert subspace_dimension_oracle((4, 3, 3), 3, seed=seed) == 33

    def test_past_old_ambient_bound(self):
        # 64,000 ambient coordinates: the spanning-set oracle refused these.
        for r, want in ((5, 64000), (11, 63967)):
            assert dim_C_r((40, 40, 40), r).dim == want
            assert subspace_dimension_oracle((40, 40, 40), r) == want

    def test_matches_spanning_set_reference(self):
        grid = [(dims, r)
                for k, top in ((3, 6), (4, 4), (5, 3))
                for dims in product(range(1, top + 1), repeat=k)
                if dims == tuple(sorted(dims, reverse=True))
                for r in range(1, min(dims) + 1)]
        # Patterns without rows, and one without columns.
        assert {((2, 2, 2), 1), ((3, 3, 3), 2), ((3, 3, 3), 3)} <= set(grid)
        assert len(grid) == 210
        for dims, r in grid:
            for seed in (0, 1):
                want = reference_subspace_dimension_oracle(dims, r, seed=seed)
                assert subspace_dimension_oracle(dims, r, seed=seed) == want, (dims, r, seed)

    @pytest.mark.parametrize("p", [10**9 + 7, 3])
    @pytest.mark.parametrize("dims, r", [((4, 3, 3), 3), ((5, 5, 5), 4), ((4, 4, 4, 4), 3)])
    def test_matches_reference_at_other_primes(self, dims, r, p):
        want = reference_subspace_dimension_oracle(dims, r, p)
        assert subspace_dimension_oracle(dims, r, p) == want

    def test_order_below_three_rejected(self):
        with pytest.raises(ValueError, match="order k must be at least 3, got 2"):
            subspace_dimension_oracle((3, 3), 1)


class TestIsPrime:
    def test_known_values(self):
        assert is_prime(MERSENNE61)
        assert is_prime(2) and is_prime(3) and is_prime(10**9 + 7)
        assert not is_prime(1)
        assert not is_prime(MERSENNE61 - 1)
        assert not is_prime(561)  # Carmichael
        assert not is_prime(2**61 + 1)
