"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is budgeted to finish well within ten minutes on a
laptop-class machine.
"""

import math
import time
from itertools import product

from subrank.certificate import find_certificate, validate
from subrank.combinatorics import count_rows, enumerate_rows, is_admissible
from subrank.formulas import classify, dim_C_r, generic_subrank, pattern_col_count
from subrank.modular import (
    MERSENNE61,
    rank_mod_p,
    instantiate,
    random_assignment,
    subspace_dimension_oracle,
    verify_generic_rank,
)
from subrank.pattern import Variable, build_pattern

from reference_minor import brute_force_uniqueness, count_monomial_terms, reference_entry
from worked_example import WORKED_EXAMPLE_SPOT_CHECKS, worked_example_monomial

CUBE = lambda n: (n, n, n)  # noqa: E731


def test_criterion_1_closed_form_table():
    start = time.time()
    for n in range(1, 101):
        want = min(n, math.isqrt(3 * n - 2))
        assert generic_subrank(CUBE(n)).q == want, f"Q({n}) mismatch"
    elapsed = time.time() - start
    assert elapsed < 1.0, f"closed-form table took {elapsed:.2f}s"
    print(f"ACCEPTANCE 1 closed-form-table: PASS ({elapsed*1000:.0f} ms for n <= 100)")


def test_criterion_2_constructive_verification_desk_scale():
    start = time.time()
    spot_values = [50, 64, 100]
    for n in list(range(3, 41)) + spot_values:
        r = generic_subrank(CUBE(n)).q
        pm = build_pattern(r, CUBE(n))
        cert = find_certificate(pm)
        verdict = validate(pm, cert)
        assert verdict.ok, f"n={n}: validator rejected: {verdict.detail}"
        expected = r * (r - 1) * (r - 2)
        assert cert.degree == expected == pm.n_rows
        rank_verdict = verify_generic_rank(pm, expected, trials=3, p=MERSENNE61, base_seed=0)
        assert rank_verdict.ok, f"n={n}: {rank_verdict.detail}"
    elapsed = time.time() - start
    assert elapsed < 600, f"desk-scale verification took {elapsed:.0f}s > 10 min"
    print(
        "ACCEPTANCE 2 constructive-verification: PASS "
        f"(n = 3..40 and spots {spot_values}, {elapsed:.0f} s)"
    )


def test_criterion_3_worked_example_replay():
    pm = build_pattern(4, (6, 6, 6))
    assert (pm.n_rows, pm.n_cols) == (24, 24)
    assert len(WORKED_EXAMPLE_SPOT_CHECKS) >= 12
    for row, col, want in WORKED_EXAMPLE_SPOT_CHECKS:
        got = reference_entry(pm, row, col)
        if want is None:
            assert got is None, f"expected zero at {row}, {col}, got {got}"
        else:
            assert got == Variable(*want), f"mismatch at {row}, {col}"

    cert = find_certificate(pm)
    assert validate(pm, cert).ok
    assert cert.degree == 24
    assert cert.monomial == worked_example_monomial()
    squared = {
        (v.t, v.s, v.reduced) for v, power in cert.monomial if power == 2
    }
    assert squared == {(1, 1, (2, 3)), (1, 2, (1, 2))}
    print("ACCEPTANCE 3 worked-example-replay: PASS "
          f"({len(WORKED_EXAMPLE_SPOT_CHECKS)} spot positions, exact 24-factor monomial)")


def test_criterion_4_asymmetric_shape_grid():
    start = time.time()
    instances = 0
    for r in range(3, 7):
        for dims in product(range(r, r + 5), repeat=3):
            if sum(dims) < r * r + 2:
                continue
            pm = build_pattern(r, dims)
            cert = find_certificate(pm)
            verdict = validate(pm, cert)
            assert verdict.ok, f"r={r}, dims={dims}: {verdict.detail}"
            expected = r * (r - 1) * (r - 2)
            rank_verdict = verify_generic_rank(pm, expected, trials=3)
            assert rank_verdict.ok, f"r={r}, dims={dims}: {rank_verdict.detail}"
            instances += 1
    assert instances >= 100, f"grid produced only {instances} instances"
    print(f"ACCEPTANCE 4 asymmetric-shapes: PASS ({instances} instances, "
          f"{time.time()-start:.0f} s)")


def test_criterion_5_higher_order():
    # k=4, r=2, dims (3,3,3,3): 6x8 pattern, full row rank, Q = 2.
    pm = build_pattern(2, (3, 3, 3, 3))
    assert count_rows(2, 4) == pm.n_rows == 6
    assert pm.n_cols == 8
    cert = find_certificate(pm)
    assert validate(pm, cert).ok
    assert verify_generic_rank(pm, 6, trials=3).ok
    assert generic_subrank((3, 3, 3, 3)).q == 2

    # k=4, r=3: the row-count value 3^4 - 4*9 + 3*3 = 54, cross-checked by
    # brute-force enumeration; at dims (7,7,7,7) the matrix is 54x48, so the
    # 54 is its row count (full row rank is impossible there, see criterion 6
    # logic), and the instantiated matrix attains the maximum possible rank 48.
    assert count_rows(3, 4) == 54 == 3**4 - 4 * 9 + 3 * 3
    brute = [p for p in product(range(1, 4), repeat=4) if is_admissible(p)]
    assert len(brute) == 54
    assert enumerate_rows(3, 4) == brute

    pm7 = build_pattern(3, (7, 7, 7, 7))
    assert (pm7.n_rows, pm7.n_cols) == (54, 48)
    mm = instantiate(pm7, random_assignment(pm7, 0))
    assert rank_mod_p(mm) == 48  # columns independent: r exceeds Q = 2

    # On the nearest shape where r=3 is feasible the rank 54 is attained.
    pm8 = build_pattern(3, (8, 8, 8, 8))
    assert (pm8.n_rows, pm8.n_cols) == (54, 60)
    assert generic_subrank((8, 8, 8, 8)).q == 3
    cert8 = find_certificate(pm8)
    assert validate(pm8, cert8).ok
    assert verify_generic_rank(pm8, 54, trials=3).ok
    print("ACCEPTANCE 5 higher-order: PASS (k=4: r=2 rank 6 verified; "
          "row count 54 = 3^4-4*9+3*3 verified, rank 54 attained at (8,8,8,8))")


def test_criterion_6_converse_regime():
    for n in range(3, 41):
        q = generic_subrank(CUBE(n)).q
        r = q + 1
        assert r <= n
        rows = count_rows(r, 3)
        cols = pattern_col_count(CUBE(n), r)
        assert cols < rows, f"n={n}, r={r}: {cols} columns vs {rows} rows"
        assert not classify(CUBE(n), r).certificate_regime
    print("ACCEPTANCE 6 converse-regime: PASS (columns < rows at r = Q+1 for n = 3..40)")


def test_criterion_7_dimension_formula():
    start = time.time()
    pairs = 0
    shapes = {tuple(sorted(dims, reverse=True))
              for dims in product(range(1, 7), repeat=3)}
    shapes |= {(3, 3, 3), (4, 3, 3)}
    for dims in sorted(shapes):
        q = generic_subrank(dims).q
        for r in range(q + 1, min(dims) + 1):
            want = dim_C_r(dims, r)
            assert want.regime == "formula"
            for seed in (0, 1):
                got = subspace_dimension_oracle(dims, r, seed=seed)
                assert got == want.dim, f"dims={dims}, r={r}, seed={seed}: {got} != {want.dim}"
            pairs += 1
    assert dim_C_r((3, 3, 3), 3).dim == 21
    assert dim_C_r((4, 3, 3), 3).dim == 33
    assert pairs >= 10
    print(f"ACCEPTANCE 7 dimension-formula: PASS ({pairs} (shape, r) pairs, "
          f"2 seeds each, {time.time()-start:.0f} s)")


def test_criterion_8_monomial_uniqueness_micro():
    pm = build_pattern(3, (4, 4, 4))
    cert = find_certificate(pm)
    assert validate(pm, cert).ok
    verdict = brute_force_uniqueness(pm, cert)
    assert verdict.ok, verdict.detail

    cross_out = [
        ["a1", None, "a3", None],
        [None, "a2", "a1", None],
        [None, "a3", None, "a4"],
        ["a4", None, None, "a2"],
    ]
    assert count_monomial_terms(cross_out, {"a1": 2, "a2": 1, "a3": 1}) == 1
    print("ACCEPTANCE 8 monomial-uniqueness-micro: PASS "
          "(6x6 minor expansion and 4x4 worked example)")
