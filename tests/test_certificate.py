import pytest

from subrank.certificate import (
    Certificate,
    CrossState,
    Step,
    TooFewColumnsError,
    certificate_from_json,
    certificate_to_json,
    cross_block,
    find_certificate,
    scripted_certificate,
    validate,
)
from subrank.combinatorics import (
    Block,
    count_rows,
    maximal_uncrossed_block,
    orbit_of,
)
from subrank.pattern import Variable, build_pattern

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


class TestCrossBlock:
    def test_fifteen_rows_and_columns(self):
        pm = build_pattern(5, (8, 6, 6))
        state = CrossState(pm)
        block = maximal_uncrossed_block(orbit_of((1, 2, 4), 5), 1, set(), 5, 3)
        assert block.size == 3
        steps = cross_block(pm, state, block, [1, 2, 3])
        assert sum(st.multiplicity for st in steps) == 15
        assert len(state.crossed_row_idx) == 15
        assert len(state.crossed_col_idx) == 15

    def test_worked_example_first_block(self):
        pm = build_pattern(4, (6, 6, 6))
        state = CrossState(pm)
        block = maximal_uncrossed_block(orbit_of((1, 2, 3), 4), 1, set(), 4, 3)
        assert block.size == 2
        steps = cross_block(pm, state, block, [1, 2])
        assert len(state.crossed_row_idx) == 8
        assert len(state.crossed_col_idx) == 8
        powers = sorted(st.multiplicity for st in steps)
        assert powers == [1, 1, 1, 1, 2, 2]

    def test_empty_block(self):
        pm = build_pattern(4, (6, 6, 6))
        state = CrossState(pm)
        assert cross_block(pm, state, Block(direction=1, orbits=()), []) == []

    def test_slot_count_must_match(self):
        pm = build_pattern(4, (6, 6, 6))
        state = CrossState(pm)
        block = maximal_uncrossed_block(orbit_of((1, 2, 3), 4), 1, set(), 4, 3)
        with pytest.raises(ValueError, match="slots"):
            cross_block(pm, state, block, [1])


class TestScriptedCertificate:
    def test_script_reproduces_worked_example_monomial(self):
        pm = build_pattern(4, (6, 6, 6))
        cert = scripted_certificate(pm, WORKED_EXAMPLE_SCRIPT)
        assert validate(pm, cert).ok
        assert cert.degree == 24
        assert cert.monomial == worked_example_monomial()

    def test_search_agrees_with_worked_example_script(self):
        pm = build_pattern(4, (6, 6, 6))
        assert find_certificate(pm) == scripted_certificate(pm, WORKED_EXAMPLE_SCRIPT)

    def test_empty_script_on_empty_pattern(self):
        pm = build_pattern(2, (3, 3, 3))
        cert = scripted_certificate(pm, [])
        assert cert.steps == ()
        assert validate(pm, cert).ok

    def test_repeated_orbit_rejected_with_index(self):
        pm = build_pattern(4, (6, 6, 6))
        script = [(1, (1, 2, 3), [1, 2]), (2, (2, 3, 4), [1])]
        with pytest.raises(ValueError, match="step 1"):
            scripted_certificate(pm, script)


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

    def test_unknown_variable_fails(self):
        pm, cert = self.make_valid()
        st = cert.steps[0]
        steps = (Step(Variable(1, 7, (2, 3)), st.rows, st.cols),) + cert.steps[1:]
        bad = Certificate(cert.r, cert.dims, steps, cert.monomial)
        assert not validate(pm, bad).ok

    def test_truncated_certificate_fails(self):
        pm, cert = self.make_valid()
        bad = Certificate(cert.r, cert.dims, cert.steps[:-1], cert.monomial[:-1])
        verdict = validate(pm, bad)
        assert not verdict.ok

    def test_wrong_shape_fails(self):
        pm, cert = self.make_valid()
        other = build_pattern(4, (7, 6, 6))
        assert not validate(other, cert).ok

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

    @pytest.mark.parametrize("text", [
        "[]",
        "{}",
        '{"r": 3, "dims": [4, 4, 4], "steps": [{"var": 7, "rows": [], "cols": []}],'
        ' "monomial": []}',
    ])
    def test_malformed_structure_rejected(self, text):
        with pytest.raises(ValueError, match="malformed certificate JSON"):
            certificate_from_json(text)
