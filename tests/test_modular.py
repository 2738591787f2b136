import random

import numpy as np
import pytest

from subrank.certificate import find_certificate, scripted_certificate, validate
from subrank.modular import (
    MERSENNE61,
    ModularMatrix,
    RandomAssignment,
    _STRIP,
    _matmul_mod_m61,
    _rank_m61_blocked,
    _rank_python,
    brute_force_uniqueness,
    count_monomial_terms,
    instantiate,
    is_prime,
    minor_determinant_check,
    modular_to_coordinate_list,
    random_assignment,
    rank_mod_p,
    seeded_values,
    subspace_dimension_oracle,
    verify_generic_rank,
)
from subrank.pattern import build_pattern

from worked_example import WORKED_EXAMPLE_SCRIPT


def reference_seeded_value(seed, index, p):
    """Item `index` of stream `seed`: scalar splitmix64 on Python ints."""
    m64 = (1 << 64) - 1
    x = (seed + (index + 1) * 0x9E3779B97F4A7C15) & m64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & m64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & m64
    x ^= x >> 31
    return 1 + x % (p - 1)


class TestAssignments:
    def test_reproducible_and_nonzero(self):
        pm = build_pattern(4, (6, 6, 6))
        a1 = random_assignment(pm, seed=7)
        a2 = random_assignment(pm, seed=7)
        assert a1.values.dtype == np.uint64
        assert len(a1.values) == len(pm.variables)
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
        ones = RandomAssignment(seed=0, p=MERSENNE61, values=np.ones(len(pm.variables), np.uint64))
        mm = instantiate(pm, ones)
        assert mm.data.sum(axis=1).tolist() == [6] * 24

    def test_missing_variable_rejected(self):
        pm = build_pattern(4, (6, 6, 6))
        n = len(pm.variables)
        for size in (n - 1, n + 1):
            values = np.ones(size, np.uint64)
            with pytest.raises(ValueError, match=f"has {size} values but the pattern has {n} "):
                instantiate(pm, RandomAssignment(seed=0, p=MERSENNE61, values=values))

    def test_matrices_differ_between_seeds(self):
        pm = build_pattern(4, (6, 6, 6))
        m0 = instantiate(pm, random_assignment(pm, 0))
        m1 = instantiate(pm, random_assignment(pm, 1))
        assert not np.array_equal(m0.data, m1.data)

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
        eye = ModularMatrix(5, 5, MERSENNE61, np.eye(5, dtype=np.uint64))
        assert rank_mod_p(eye) == 5
        zero = ModularMatrix(4, 6, MERSENNE61, np.zeros((4, 6), dtype=np.uint64))
        assert rank_mod_p(zero) == 0

    def test_square_example_is_full_rank(self):
        pm = build_pattern(4, (6, 6, 6))
        mm = instantiate(pm, random_assignment(pm, 0))
        assert rank_mod_p(mm) == 24

    def test_pivot_orders_agree_on_random_sparse(self):
        rng = random.Random(99)
        p = MERSENNE61
        for _ in range(200):
            m = rng.randrange(1, 41)
            n = rng.randrange(1, 41)
            rows = [[0] * n for _ in range(m)]
            for _ in range(rng.randrange(0, 3 * max(m, n))):
                rows[rng.randrange(m)][rng.randrange(n)] = rng.randrange(p)
            fwd = _rank_python(rows, p)
            rev = _rank_python(rows, p, reverse_cols=True)
            arr = np.array(rows, dtype=np.uint64)
            assert fwd == rev == _rank_m61_blocked(arr, panel=16)

    def test_blocked_kernel_agrees_with_reference(self):
        rng = random.Random(2024)
        p = MERSENNE61

        def entry():
            return rng.choice((1, p - 1, p - 1, rng.randrange(1, p)))

        def product_rank_deficient(m, n, k):
            left = [[entry() for _ in range(k)] for _ in range(m)]
            right = [[entry() for _ in range(n)] for _ in range(k)]
            return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*right)]
                    for row in left]

        def unit_and_block_diagonal(m, n):
            rows = []
            for i in range(m):
                row = [0] * n
                if i % 3:
                    row[rng.randrange(n)] = entry()       # unit-vector row
                else:
                    lo = (i * 5) % n                      # one short diagonal block
                    for j in range(lo, min(lo + 6, n)):
                        row[j] = entry()
                rows.append(row)
            return rows

        def dense(m, n, density):
            return [[entry() if rng.random() < density else 0 for _ in range(n)]
                    for _ in range(m)]

        cases = [
            dense(45, 37, 0.5),                            # several panels
            dense(30, 70, 0.2),
            [[p - 1] * 40 for _ in range(20)],             # every entry p - 1
            dense(24, _STRIP + 29, 0.3),                   # a partial last strip
            dense(12, 2 * _STRIP + 3, 0.05),
            unit_and_block_diagonal(60, 50),
            unit_and_block_diagonal(40, _STRIP + 5),
            product_rank_deficient(40, 36, 11),
            product_rank_deficient(26, _STRIP + 9, 19),
        ]
        for rows in cases:
            want = _rank_python(rows, p)
            arr = np.array(rows, dtype=np.uint64)
            for panel in (4, 9, 128):
                assert _rank_m61_blocked(arr, panel=panel) == want
        assert _rank_python(cases[2], p) == 1
        assert _rank_python(cases[7], p) == 11

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
        mm = ModularMatrix(3, 3, 7, np.array(rows, dtype=np.uint64))
        assert rank_mod_p(mm) == 2

    def test_square_example_via_independent_elimination_orders(self):
        pm = build_pattern(4, (6, 6, 6))
        mm = instantiate(pm, random_assignment(pm, 0))
        rows = mm.data.tolist()
        assert _rank_python(rows, MERSENNE61) == 24
        assert _rank_python(rows, MERSENNE61, reverse_cols=True) == 24
        assert _rank_m61_blocked(mm.data, panel=7) == 24


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


class TestMinorDeterminant:
    def test_worked_example_certificate_minor(self):
        pm = build_pattern(4, (6, 6, 6))
        cert = scripted_certificate(pm, WORKED_EXAMPLE_SCRIPT)
        for seed in range(3):
            assert minor_determinant_check(pm, cert, seed=seed).ok

    def test_zeroed_row_kills_determinant(self):
        pm = build_pattern(4, (6, 6, 6))
        cert = find_certificate(pm)
        base = random_assignment(pm, 0)
        values = base.values.copy()
        row = pm.rows[0]
        for t in (1, 2, 3):
            for s in (1, 2):
                values[pm.var_pos[pm.entry(row, (t, row[t - 1], s))]] = 0
        zeroed = RandomAssignment(seed=0, p=MERSENNE61, values=values)
        verdict = minor_determinant_check(pm, cert, assignment=zeroed)
        assert not verdict.ok

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

    def test_desk_scale_guard(self):
        with pytest.raises(ValueError, match="desk-scale"):
            subspace_dimension_oracle((40, 40, 40), 5)


class TestIsPrime:
    def test_known_values(self):
        assert is_prime(MERSENNE61)
        assert is_prime(2) and is_prime(3) and is_prime(10**9 + 7)
        assert not is_prime(1)
        assert not is_prime(MERSENNE61 - 1)
        assert not is_prime(561)  # Carmichael
        assert not is_prime(2**61 + 1)
