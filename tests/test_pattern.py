import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from subrank.combinatorics import count_rows, enumerate_rows
from subrank.modular import instantiate, modular_to_coordinate_list, random_assignment
from subrank.pattern import (
    Variable,
    build_pattern,
    occurrences,
    parse_variable,
    pattern_to_coordinate_list,
)

from reference_formats import parse_coordinate_list, pattern_from_json, pattern_to_json
from reference_index import PatternIndex
from reference_minor import reference_entry


def reference_entries(r, dims):
    """Per-entry loop over the entry rule: (rows, cols, vars, variables).

    Variables are numbered in order of first appearance, then renumbered
    into lexicographic (t, s, reduced) order.
    """
    k = len(dims)
    rows = enumerate_rows(r, k)
    col_pos = {
        c: j
        for j, c in enumerate(
            (t, m, s)
            for t in range(1, k + 1)
            for m in range(1, r + 1)
            for s in range(1, dims[t - 1] - r + 1)
        )
    }
    entry_rows, entry_cols, entry_vars = [], [], []
    var_pos, variables = {}, []
    for i, p in enumerate(rows):
        for t in range(1, k + 1):
            reduced = p[: t - 1] + p[t:]
            for s in range(1, dims[t - 1] - r + 1):
                v = Variable(t=t, s=s, reduced=reduced)
                if v not in var_pos:
                    var_pos[v] = len(variables)
                    variables.append(v)
                entry_rows.append(i)
                entry_cols.append(col_pos[(t, p[t - 1], s)])
                entry_vars.append(var_pos[v])
    order = sorted(range(len(variables)), key=lambda vi: variables[vi])
    rank_of = [0] * len(order)
    for new, old in enumerate(order):
        rank_of[old] = new
    return (
        entry_rows,
        entry_cols,
        [rank_of[vi] for vi in entry_vars],
        tuple(variables[old] for old in order),
    )


class TestBuild:
    def test_square_example_shape(self):
        pm = build_pattern(4, (6, 6, 6))
        assert (pm.n_rows, pm.n_cols) == (24, 24)
        assert pm.nnz == 144

    def test_empty_pattern(self):
        pm = build_pattern(2, (3, 3, 3))
        assert (pm.n_rows, pm.n_cols) == (0, 6)
        assert pm.nnz == 0

    def test_stores_only_its_parameters(self):
        pm = build_pattern(4, (6, 6, 6))
        assert vars(pm) == {"r": 4, "dims": (6, 6, 6), "k": 3}
        assert len(pm.rows) == pm.n_rows and len(pm.cols) == pm.n_cols

    def test_rejects_r_above_min_dim(self):
        with pytest.raises(ValueError):
            build_pattern(4, (6, 3, 6))

    @pytest.mark.parametrize(
        "r,dims",
        [
            (3, (4, 4, 4)), (3, (7, 5, 3)), (4, (9, 4, 6)), (5, (9, 9, 9)),
            (6, (9, 8, 7)), (2, (3, 3, 3, 3)), (3, (4, 5, 3, 6)), (2, (9, 2, 5, 4)),
            (1, (1, 1, 1)), (4, (4, 4, 4)),
        ],
    )
    def test_row_and_column_counts(self, r, dims):
        pm = build_pattern(r, dims)
        k = len(dims)
        assert pm.n_rows == count_rows(r, k)
        assert pm.n_cols == r * sum(n - r for n in dims)
        assert pm.nnz == pm.n_rows * sum(n - r for n in dims)

    def test_rows_and_cols_lexicographic(self):
        pm = build_pattern(4, (6, 5, 7))
        assert list(pm.rows) == sorted(pm.rows)
        assert list(pm.cols) == sorted(pm.cols)

    def test_deterministic(self):
        a = build_pattern(4, (6, 6, 6))
        b = build_pattern(4, (6, 6, 6))
        (a_rows, a_cols, a_vars), (b_rows, b_cols, b_vars) = a.entries(), b.entries()
        assert np.array_equal(a_rows, b_rows)
        assert np.array_equal(a_cols, b_cols)
        assert np.array_equal(a_vars, b_vars)
        assert a.n_vars == b.n_vars
        assert [reference_entry(a, p, c) for p in a.rows for c in a.cols] == [
            reference_entry(b, p, c) for p in b.rows for c in b.cols
        ]

    @pytest.mark.parametrize(
        "r,dims",
        [
            (4, (6, 6, 6)), (5, (7, 9, 6)), (4, (9, 4, 6)), (1, (1, 1, 1)),
            (1, (3, 1, 2)), (2, (3, 3, 3)), (2, (9, 2, 5, 4)), (3, (4, 5, 3, 6)),
            (3, (3, 4, 5, 3)), (3, (4, 3, 5, 4, 3)),
        ],
    )
    def test_entries_match_reference_loop(self, r, dims):
        pm = build_pattern(r, dims)
        rows, cols, vars_, variables = reference_entries(r, dims)
        got = pm.entries()
        for array, want in zip(got, (rows, cols, vars_)):
            assert array.dtype.kind == "i"
            assert array.tolist() == want
        assert pm.n_vars == len(variables)
        index = PatternIndex(pm)
        occ = [[] for _ in variables]
        for i, j, vi in zip(rows, cols, vars_):
            assert reference_entry(pm, index.rows[i], index.cols[j]) == variables[vi]
            occ[vi].append((i, j))
        assert [index.var_occ(v) for v in variables] == occ
        assert [sorted(occurrences(pm, v)) for v in variables] == [
            [(index.rows[i], index.cols[j]) for i, j in o] for o in occ
        ]


class TestDerivedCounts:
    @pytest.mark.parametrize("k,max_dim", [(3, 9), (4, 6), (5, 4), (6, 3)])
    def test_closed_forms_match_entries(self, k, max_dim):
        for dims in itertools.combinations_with_replacement(range(1, max_dim + 1), k):
            for r in range(1, dims[0] + 1):
                pm = build_pattern(r, dims)
                rows, _, vars_ = pm.entries()
                assert pm.nnz == len(rows), (r, dims)
                n_used = vars_.max() + 1 if len(vars_) else 0
                assert pm.n_vars == len(np.unique(vars_)) == n_used, (r, dims)

    def test_build_does_not_grow_with_nnz(self):
        # The (200,200,200) r=24 pattern has 6.4M nonzeros, 147 MiB as three
        # int64 arrays; building it keeps only the row and column indexes.
        tracemalloc.start()
        try:
            pm = build_pattern(24, (200, 200, 200))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pm.nnz == 6412032
        assert peak < 16 << 20


class TestEntries:
    def test_worked_example_positions(self):
        pm = build_pattern(4, (6, 6, 6))
        assert reference_entry(pm, (1, 2, 3), (1, 1, 1)) == Variable(1, 1, (2, 3))
        assert reference_entry(pm, (1, 2, 3), (2, 2, 1)) == Variable(2, 1, (1, 3))
        assert reference_entry(pm, (2, 1, 3), (3, 3, 1)) == Variable(3, 1, (2, 1))
        assert reference_entry(pm, (1, 2, 3), (1, 2, 1)) is None

    @pytest.mark.parametrize("p,c", [
        ((1, 2, 3), (0, 1, 1)),  # t = 0
        ((1, 2, 3), (4, 1, 1)),  # t = k + 1
        ((1, 2, 3), (1, 5, 1)),  # m outside [r]
        ((1, 2, 3), (1, 1, 3)),  # s beyond n_t - r
        ((1, 2), (1, 1, 1)),  # row too short
        ((1, 2, 3, 4), (1, 1, 1)),  # row too long
        ((1, 2, 5), (1, 1, 1)),  # coordinate outside [r]
        ((1, 1, 2), (1, 1, 1)),  # row not admissible
    ])
    def test_position_outside_the_matrix_raises(self, p, c):
        pm = build_pattern(4, (6, 6, 6))
        with pytest.raises(KeyError, match="outside the matrix"):
            reference_entry(pm, p, c)

    def test_variable_at_most_once_per_row_and_column(self):
        for r, dims in [(4, (6, 6, 6)), (3, (5, 4, 4)), (2, (4, 3, 3, 3))]:
            pm = build_pattern(r, dims)
            seen_rows = set()
            seen_cols = set()
            for i, j, vi in zip(*pm.entries()):
                assert (i, vi) not in seen_rows
                assert (j, vi) not in seen_cols
                seen_rows.add((i, vi))
                seen_cols.add((j, vi))

    def test_column_index_agrees_with_entries(self):
        pm = build_pattern(3, (5, 4, 4))
        rows = np.array(pm.rows)
        cols = np.array(pm.cols)
        entry_rows, entry_cols, entry_vars = pm.entries()
        t, m = cols[entry_cols, 0], cols[entry_cols, 1]
        assert np.array_equal(rows[entry_rows, t - 1], m)
        variables = reference_entries(3, (5, 4, 4))[3]
        assert [variables[vi].t for vi in entry_vars.tolist()] == t.tolist()

    def test_one_nonzero_per_row_and_slot_pair(self):
        pm = build_pattern(3, (5, 4, 4))
        per_row = {}
        cols = pm.cols
        for i, j, _ in zip(*pm.entries()):
            t, _, s = cols[j]
            key = (i, t, s)
            assert key not in per_row
            per_row[key] = j
        assert len(per_row) == pm.n_rows * sum(n - 3 for n in (5, 4, 4))


class TestOccurrences:
    def test_each_variable_twice_at_r4(self):
        pm = build_pattern(4, (6, 6, 6))
        occ = occurrences(pm, Variable(1, 1, (2, 3)))
        assert occ == {((1, 2, 3), (1, 1, 1)), ((4, 2, 3), (1, 4, 1))}
        for v in reference_entries(4, (6, 6, 6))[3]:
            assert len(occurrences(pm, v)) == 2

    def test_blocks_example_occurrences_at_r5(self):
        pm = build_pattern(5, (7, 6, 6))
        occ = occurrences(pm, Variable(1, 1, (2, 4)))
        assert {row for row, _ in occ} == {(1, 2, 4), (3, 2, 4), (5, 2, 4)}
        assert len({col for _, col in occ}) == 3

    @pytest.mark.parametrize("r", range(3, 8))
    def test_k3_occurrence_count_is_r_minus_2(self, r):
        pm = build_pattern(r, (r + 1, r + 1, r + 1))
        for v in reference_entries(r, (r + 1, r + 1, r + 1))[3]:
            occ = occurrences(pm, v)
            assert len(occ) == r - 2
            assert len({row for row, _ in occ}) == r - 2
            assert len({col for _, col in occ}) == r - 2

    def test_unknown_variable_empty(self):
        pm = build_pattern(4, (6, 6, 6))
        for v in [
            Variable(1, 9, (2, 3)),  # s beyond n_t - r
            Variable(0, 1, (2, 3)),  # t = 0
            Variable(4, 1, (2, 3)),  # t = k + 1
            Variable(1, 0, (2, 3)),  # s = 0
            Variable(1, 1, (2,)),  # reduced tuple too short
            Variable(1, 1, (2, 3, 1)),  # reduced tuple too long
            Variable(1, 1, (2, 5)),  # coordinate outside [r]
            Variable(2, 1, (0, 3)),  # coordinate outside [r]
            Variable(1, 1, (1, 1)),  # no m makes (m, 1, 1) admissible
        ]:
            assert occurrences(pm, v) == set(), v


class TestVariableLabels:
    def test_label_round_trip(self):
        for v in [Variable(1, 1, (2, 3)), Variable(3, 12, (4, 1)), Variable(2, 1, (1, 3, 2))]:
            assert parse_variable(v.label) == v

    def test_label_format(self):
        assert Variable(1, 2, (3, 4)).label == "a^{1,2}_{3,4}"

    def test_malformed_labels_rejected(self):
        for bad in ["a^{1,2}_{}", "a^{1}_{2,3}", "b^{1,1}_{2,3}", "a^{1,1}_{2,}"]:
            with pytest.raises(ValueError):
                parse_variable(bad)


class TestSerialization:
    def test_coordinate_list_empty_pattern(self):
        pm = build_pattern(2, (3, 3, 3))
        text = pattern_to_coordinate_list(pm)
        assert text == "0 6 0\n"

    def test_coordinate_list_square_example(self):
        pm = build_pattern(4, (6, 6, 6))
        text = pattern_to_coordinate_list(pm)
        lines = text.strip().split("\n")
        assert lines[0] == "24 24 144"
        assert len(lines) == 145
        n_rows, n_cols, entries = parse_coordinate_list(text)
        assert (n_rows, n_cols, len(entries)) == (24, 24, 144)
        rows, cols, vars_, variables = reference_entries(4, (6, 6, 6))
        want = {(i, j, variables[vi]) for i, j, vi in zip(rows, cols, vars_)}
        assert set(entries) == want

    def test_json_round_trip(self):
        for r, dims in [(4, (6, 6, 6)), (2, (3, 3, 3)), (3, (5, 4, 4)), (2, (3, 3, 3, 3))]:
            pm = build_pattern(r, dims)
            again = pattern_from_json(pattern_to_json(pm))
            assert again == pm
            assert again.rows == pm.rows
            assert again.cols == pm.cols
            assert np.array_equal(again.entries()[2], pm.entries()[2])

    def test_json_rejects_tampered_entries(self):
        import json

        pm = build_pattern(3, (4, 4, 4))
        wrong_var = json.loads(pattern_to_json(pm))
        wrong_var["entries"][0]["var"] = "a^{1,1}_{3,3}"
        duplicated = json.loads(pattern_to_json(pm))
        duplicated["entries"].append(duplicated["entries"][0])
        for doc in [wrong_var, duplicated]:
            with pytest.raises(ValueError):
                pattern_from_json(json.dumps(doc))

    @pytest.mark.parametrize("text", [
        '{"r": 3}',
        "[]",
        '{"r": 3, "dims": [4, 4, 4], "rows": 5, "cols": [], "entries": []}',
    ])
    def test_json_malformed_structure_rejected(self, text):
        with pytest.raises(ValueError, match="malformed pattern JSON"):
            pattern_from_json(text)

    @pytest.mark.parametrize("text", ["", "\n"])
    def test_coordinate_list_without_header_rejected(self, text):
        with pytest.raises(ValueError, match="missing header"):
            parse_coordinate_list(text)

    @pytest.mark.parametrize("line", [
        "0 1 a^{1,1}_{2,3}",  # row 0
        "3 1 a^{1,1}_{2,3}",  # row nRows + 1
        "1 0 a^{1,1}_{2,3}",  # column 0
        "2 4 a^{1,1}_{2,3}",  # column nCols + 1
        "5 9 a^{1,1}_{2,3}",  # both outside
    ])
    def test_coordinate_list_index_out_of_range_rejected(self, line):
        with pytest.raises(ValueError, match="outside the 2 x 3 matrix"):
            parse_coordinate_list(f"2 3 1\n{line}\n")

    def test_exports_are_byte_stable(self):
        # Digests of outputs written by the per-entry builder this one replaced.
        def digest(text):
            return hashlib.sha256(text.encode()).hexdigest()

        pm = build_pattern(5, (7, 6, 6))
        values = modular_to_coordinate_list(instantiate(pm, random_assignment(pm, 3)))
        assert digest(pattern_to_json(build_pattern(4, (6, 6, 6)))) == (
            "c0cd7f934f3d672ef6ed0dcc937e39324eb00d607b7a70f96f54914d372ce354"
        )
        assert digest(pattern_to_coordinate_list(build_pattern(3, (4, 5, 3, 6)))) == (
            "d3ff58ff7b43d490846080fe3c95f24dc655f625ce722543da1e139cc6e38710"
        )
        assert digest(values) == (
            "e4240c3d7b99c97b1a8763f59c8af94a1ab7e9dacb63226c76c8e9cad44a022d"
        )
