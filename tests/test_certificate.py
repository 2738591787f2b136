import hashlib
from types import SimpleNamespace

import pytest

from subrank import certificate
from subrank.certificate import (
    Certificate,
    Step,
    TooFewColumnsError,
    Verdict,
    _cross_block,
    certificate_from_json,
    certificate_to_json,
    check_certificate_size,
    find_certificate,
    validate,
)
from subrank.combinatorics import count_rows, maximal_uncrossed_block
from subrank.pattern import Variable, build_pattern

from reference_crossing import scripted_certificate
from reference_index import reference_validate
from reference_orbits import orbit_of
from worked_example import WORKED_EXAMPLE_SCRIPT, worked_example_monomial


class TestFindCertificate:
    def test_square_example(self):
        pm = build_pattern(4, (6, 6, 6))
        cert = find_certificate(pm)
        assert cert.degree == 24
        assert any(power == 2 for _, power in cert.monomial)
        assert validate(pm, cert).ok

    def test_empty_instance(self):
        pm = build_pattern(2, (3, 3, 3))
        cert = find_certificate(pm)
        assert cert.steps == ()
        assert cert.degree == 0
        assert validate(pm, cert).ok

    def test_degree_six_over_six_by_nine(self):
        pm = build_pattern(3, (4, 4, 4))
        assert (pm.n_rows, pm.n_cols) == (6, 9)
        cert = find_certificate(pm)
        assert cert.degree == 6
        assert validate(pm, cert).ok

    def test_too_few_columns_rejected(self):
        pm = build_pattern(5, (6, 6, 6))
        with pytest.raises(TooFewColumnsError, match="15 columns < 60 rows"):
            find_certificate(pm)

    def test_deterministic(self):
        pm = build_pattern(4, (7, 6, 6))
        assert find_certificate(pm) == find_certificate(pm)

    @pytest.mark.parametrize(
        "r,dims",
        [
            (3, (4, 4, 4)), (3, (7, 4, 3)), (4, (8, 6, 4)), (4, (6, 6, 6)),
            (5, (9, 9, 9)), (6, (13, 13, 12)), (2, (3, 3, 3, 3)),
            (2, (6, 2, 4, 3)), (3, (8, 8, 8, 8)), (2, (4, 4, 4, 4, 4)),
        ],
    )
    def test_search_and_validation_across_shapes(self, r, dims):
        pm = build_pattern(r, dims)
        cert = find_certificate(pm)
        assert cert.degree == count_rows(r, len(dims)) == pm.n_rows
        verdict = validate(pm, cert)
        assert verdict.ok, verdict.detail

    def test_order_four_r2_grid(self):
        from itertools import product

        checked = 0
        for dims in product(range(2, 7), repeat=4):
            if 2 * (sum(dims) - 8) < 6:
                continue
            pm = build_pattern(2, dims)
            cert = find_certificate(pm)
            verdict = validate(pm, cert)
            assert verdict.ok, f"dims={dims}: {verdict.detail}"
            assert cert.degree == 6
            checked += 1
        assert checked > 500

    def test_step_rows_partition_and_columns_disjoint(self):
        pm = build_pattern(4, (8, 6, 5))
        cert = find_certificate(pm)
        rows = [p for st in cert.steps for p in st.rows]
        cols = [c for st in cert.steps for c in st.cols]
        assert len(rows) == len(set(rows)) == pm.n_rows
        assert len(cols) == len(set(cols))
        for st in cert.steps:
            assert len(st.rows) == len(st.cols) == st.multiplicity

    # Each (seed, direction) probed costs one maximal block, and the crossed
    # block is not recomputed.  The search probes directions 1..t for the seed
    # of a block it crosses in direction t: 11 probes for the worked example's
    # five blocks, and 147 for the 63 blocks at n=400.
    @pytest.mark.parametrize("r, dims, probes", [
        (4, (6, 6, 6), sum(t for t, _, _ in WORKED_EXAMPLE_SCRIPT)),
        (34, (400, 400, 400), 147),
    ])
    def test_one_maximality_computation_per_probe(self, monkeypatch, r, dims, probes):
        calls = []
        maximal = certificate.maximal_uncrossed_block

        def spy(o, t, crossed, r, k):
            calls.append((o.canonical, t))
            return maximal(o, t, crossed, r, k)

        monkeypatch.setattr(certificate, "maximal_uncrossed_block", spy)
        find_certificate(build_pattern(r, dims))
        assert len(set(calls)) == len(calls) == probes


class TestCrossBlock:
    def test_fifteen_rows_and_columns(self):
        crossed = set()
        block = maximal_uncrossed_block(orbit_of((1, 2, 4), 5), 1, crossed, 5, 3)
        assert block.size == 3
        steps = _cross_block(5, block, [1, 2, 3], crossed)
        assert sum(st.multiplicity for st in steps) == 15
        assert len({p for st in steps for p in st.rows}) == 15
        assert len({c for st in steps for c in st.cols}) == 15
        assert crossed == {o.canonical for o in block.orbits}

    def test_worked_example_first_block(self):
        crossed = set()
        block = maximal_uncrossed_block(orbit_of((1, 2, 3), 4), 1, crossed, 4, 3)
        assert block.size == 2
        steps = _cross_block(4, block, [1, 2], crossed)
        assert len({p for st in steps for p in st.rows}) == 8
        assert len({c for st in steps for c in st.cols}) == 8
        powers = sorted(st.multiplicity for st in steps)
        assert powers == [1, 1, 1, 1, 2, 2]
        # The search crosses this block first, in the same steps.
        assert tuple(steps) == find_certificate(build_pattern(4, (6, 6, 6))).steps[:len(steps)]

    def test_matches_reference_crossing(self):
        from itertools import combinations_with_replacement, product

        from subrank.formulas import classify, generic_subrank
        from reference_crossing import reference_certificate

        grid = (
            list(product(range(2, 11), repeat=3))
            + list(combinations_with_replacement(range(2, 7), 4))
            + list(combinations_with_replacement(range(2, 5), 5))
        )
        shapes = [(r, dims) for dims in grid for r in range(1, min(dims) + 1)
                  if classify(dims, r).certificate_regime]
        shapes += [(generic_subrank((n, n, n)).q, (n, n, n)) for n in range(11, 41)]
        assert len(shapes) == 2461
        for r, dims in shapes:
            pm = build_pattern(r, dims)
            assert find_certificate(pm) == reference_certificate(pm), (r, dims)


class TestScriptedCertificate:
    """The worked example's block order, replayed by the reference crossing."""

    def test_script_reproduces_worked_example_monomial(self):
        pm = build_pattern(4, (6, 6, 6))
        cert = scripted_certificate(pm, WORKED_EXAMPLE_SCRIPT)
        assert validate(pm, cert).ok
        assert cert.degree == 24
        assert cert.monomial == worked_example_monomial()

    def test_search_agrees_with_worked_example_script(self):
        pm = build_pattern(4, (6, 6, 6))
        assert find_certificate(pm) == scripted_certificate(pm, WORKED_EXAMPLE_SCRIPT)


def single_mutations(cert):
    """(description, certificate) for each one-edit change of `cert`.

    A step edit recomputes the monomial from the edited steps, so only the
    replay of the steps can catch it."""
    def with_steps(steps):
        monomial = tuple(sorted((st.variable, st.multiplicity) for st in steps))
        return Certificate(cert.r, cert.dims, tuple(steps), monomial)

    steps = list(cert.steps)
    for i, st in enumerate(steps):
        before, after = steps[:i], steps[i + 1:]
        yield f"drop step {i}", with_steps(before + after)
        yield f"append a copy of step {i}", with_steps(steps + [st])
        yield f"drop a row of step {i}", with_steps(
            before + [Step(st.variable, st.rows[1:], st.cols)] + after)
        yield f"drop a column of step {i}", with_steps(
            before + [Step(st.variable, st.rows, st.cols[1:])] + after)
    for j, (v, power) in enumerate(cert.monomial):
        monomial = cert.monomial[:j] + ((v, power + 1),) + cert.monomial[j + 1:]
        yield f"raise the power of {v}", Certificate(cert.r, cert.dims, cert.steps, monomial)


class TestValidate:
    def make_valid(self):
        pm = build_pattern(4, (6, 6, 6))
        return pm, find_certificate(pm)

    def test_inflated_multiplicity_fails_at_that_step(self):
        pm, cert = self.make_valid()
        idx = 3
        st = cert.steps[idx]
        extra_row = next(p for p in pm.rows if p not in st.rows)
        extra_col = next(c for c in pm.cols if c not in st.cols)
        tampered_step = Step(
            variable=st.variable,
            rows=st.rows + (extra_row,),
            cols=st.cols + (extra_col,),
        )
        steps = cert.steps[:idx] + (tampered_step,) + cert.steps[idx + 1:]
        bad = Certificate(r=cert.r, dims=cert.dims, steps=steps, monomial=cert.monomial)
        verdict = validate(pm, bad)
        assert not verdict.ok
        assert verdict.first_failing_step == idx
        assert verdict.detail

    def test_swapped_row_fails_at_that_step(self):
        # Same multiplicity, one declared row replaced by a live row that the
        # step's variable does not occupy.
        pm, cert = self.make_valid()
        idx = 0
        st = cert.steps[idx]
        other = next(p for s in cert.steps[idx + 1:] for p in s.rows)
        tampered = Step(st.variable, (other,) + st.rows[1:], st.cols)
        bad = Certificate(cert.r, cert.dims, (tampered,) + cert.steps[1:], cert.monomial)
        verdict = validate(pm, bad)
        assert verdict == Verdict(False, "declared rows of step 0 do not match", 0)
        assert reference_validate(pm, bad) == verdict

    def test_unknown_variable_fails(self):
        pm, cert = self.make_valid()
        st = cert.steps[0]
        for v in [
            Variable(1, 7, (2, 3)),  # s beyond n_t - r
            Variable(0, 1, (2, 3)),  # t = 0
            Variable(4, 1, (2, 3)),  # t = k + 1
            Variable(1, 0, (2, 3)),  # s = 0
            Variable(1, 1, (2,)),  # reduced tuple too short
            Variable(1, 1, (2, 3, 1)),  # reduced tuple too long
            Variable(1, 1, (2, 5)),  # coordinate outside [r]
            Variable(2, 1, (0, 3)),  # coordinate outside [r]
            Variable(1, 1, (1, 1)),  # no m makes (m, 1, 1) admissible
        ]:
            steps = (Step(v, st.rows, st.cols),) + cert.steps[1:]
            bad = Certificate(cert.r, cert.dims, steps, cert.monomial)
            verdict = validate(pm, bad)
            assert not verdict.ok
            assert verdict.detail == f"unknown variable {v}"
            assert verdict.first_failing_step == 0
            assert reference_validate(pm, bad) == verdict

    def test_reads_only_the_parameters_and_row_count(self):
        pm, cert = self.make_valid()
        params = SimpleNamespace(r=pm.r, k=pm.k, dims=pm.dims, n_rows=pm.n_rows)
        assert validate(params, cert) == validate(pm, cert)
        for _, bad in single_mutations(cert):
            assert validate(params, bad) == validate(pm, bad)

    def test_truncated_certificate_fails(self):
        pm, cert = self.make_valid()
        bad = Certificate(cert.r, cert.dims, cert.steps[:-1], cert.monomial[:-1])
        verdict = validate(pm, bad)
        assert not verdict.ok

    def test_wrong_shape_fails(self):
        pm, cert = self.make_valid()
        other = build_pattern(4, (7, 6, 6))
        assert not validate(other, cert).ok

    @pytest.mark.parametrize("r,dims", [(4, (6, 6, 6)), (3, (8, 8, 8, 8)), (5, (9, 9, 9))])
    def test_every_single_mutation_rejected(self, r, dims):
        pm = build_pattern(r, dims)
        cert = find_certificate(pm)
        assert validate(pm, cert).ok
        mutants = list(single_mutations(cert))
        assert len(mutants) == 4 * len(cert.steps) + len(cert.monomial)
        assert [name for name, bad in mutants if validate(pm, bad).ok] == []
        # The replay through the row and column indexes, collision check
        # included, gives the same verdict, message and failing step.
        for name, bad in [("none", cert)] + mutants:
            assert reference_validate(pm, bad) == validate(pm, bad), name

    def test_monomial_mismatch_fails(self):
        pm, cert = self.make_valid()
        (v0, p0), rest = cert.monomial[0], cert.monomial[1:]
        bad = Certificate(cert.r, cert.dims, cert.steps, ((v0, p0 + 1),) + rest)
        verdict = validate(pm, bad)
        assert not verdict.ok


class TestCertificateJson:
    def test_round_trip(self):
        pm = build_pattern(4, (6, 6, 6))
        cert = find_certificate(pm)
        again = certificate_from_json(certificate_to_json(cert))
        assert again == cert
        assert validate(pm, again).ok

    def test_round_trip_empty(self):
        pm = build_pattern(2, (3, 3, 3))
        cert = find_certificate(pm)
        assert certificate_from_json(certificate_to_json(cert)) == cert

    @pytest.mark.parametrize(
        "r,dims,digest",
        [
            (4, (7, 6, 6), "9068ba573799287dc20a08c99f3f622f237bb647ce4c60e0ded884621c948c44"),
            (3, (8, 8, 8, 8), "cf8b2fccbd3959820bc52b5e069ec21429616d8268839f729aa1853b545a2a08"),
            (6, (13, 13, 12), "fcb9ed6d2b2bca8b93c8410232b77018f309984c2d34eef0b68776980e2a758c"),
            (2, (4, 4, 4, 4, 4), "f1a9d2bf6ac6c3b238934dcb55aff9b6e6a799de4111142fe7c23402e6769c9a"),
        ],
    )
    def test_search_output_is_byte_stable(self, r, dims, digest):
        # Pinned so the search output cannot drift with how occurrences are found.
        text = certificate_to_json(find_certificate(build_pattern(r, dims)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("text", [
        "[]",
        "{}",
        '{"r": 3, "dims": [4, 4, 4], "steps": [{"var": 7, "rows": [], "cols": []}],'
        ' "monomial": []}',
    ])
    def test_malformed_structure_rejected(self, text):
        with pytest.raises(ValueError, match="malformed certificate JSON"):
            certificate_from_json(text)


class TestCertificateSize:
    @pytest.mark.parametrize("r, dims", [
        (4, (6, 6, 6)),
        (3, (8, 8, 8, 8)),
        (34, (400, 400, 400)),
        (54, (1000, 1000, 1000)),
        (77, (2000, 2000, 2000)),
    ])
    def test_documented_shapes_admitted(self, r, dims):
        check_certificate_size(r, dims)

    def test_limit_is_on_the_closed_form_row_count(self):
        assert count_rows(173, 3) == 5088276
        with pytest.raises(ValueError, match="5088276 rows, over the 524288"):
            check_certificate_size(173, (10000, 10000, 10000))
        # 82 * 81 * 80 = 531,360 rows is the first cube r refused.
        check_certificate_size(81, (81, 81, 81))
        with pytest.raises(ValueError, match="531360 rows"):
            check_certificate_size(82, (82, 82, 82))
