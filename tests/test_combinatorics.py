from dataclasses import fields
from itertools import permutations, product

import pytest

from subrank.combinatorics import (
    Block,
    Orbit,
    act,
    all_orbits,
    count_rows,
    enumerate_rows,
    is_admissible,
    maximal_uncrossed_block,
)

from reference_orbits import block_intersection_count, orbit_of


def brute_force_rows(r, k):
    """Independent filter: no value may occupy k-1 or more coordinates."""
    out = []
    for p in product(range(1, r + 1), repeat=k):
        if max(p.count(v) for v in set(p)) <= k - 2:
            out.append(p)
    return out


def reference_orbit_of(p, r):
    """(canonical, members) of p's orbit found by search: all r shifts,
    named by the smallest, listed from it in shift order."""
    members = [act(a, p, r) for a in range(r)]
    assert len(set(members)) == r
    canonical = min(members)
    start = members.index(canonical)
    return canonical, tuple(members[(start + a) % r] for a in range(r))


def reference_all_orbits(r, k):
    """(canonical, members) of each orbit, in order of first appearance
    among the sorted rows."""
    seen = set()
    orbits = []
    for p in enumerate_rows(r, k):
        if p not in seen:
            canonical, members = reference_orbit_of(p, r)
            seen.update(members)
            orbits.append((canonical, members))
    return orbits


FREE_GRID = [(r, k) for r in range(1, 8) for k in (3, 4, 5)]


class TestEnumerateRows:
    def test_r3_k3_is_permutations(self):
        assert enumerate_rows(3, 3) == sorted(permutations((1, 2, 3)))

    def test_r4_k3_matches_worked_example(self):
        rows = enumerate_rows(4, 3)
        assert len(rows) == 24
        assert rows[:3] == [(1, 2, 3), (1, 2, 4), (1, 3, 2)]
        assert rows[-1] == (4, 3, 2)

    def test_r2_k3_empty(self):
        assert enumerate_rows(2, 3) == []

    def test_r2_k4_brute_force(self):
        rows = enumerate_rows(2, 4)
        assert rows == brute_force_rows(2, 4)
        assert len(rows) == 6
        assert all(p.count(1) == 2 and p.count(2) == 2 for p in rows)

    def test_lexicographic_order(self):
        rows = enumerate_rows(5, 3)
        assert rows == sorted(rows)

    @pytest.mark.parametrize("r", range(1, 8))
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_count_matches_enumeration(self, r, k):
        assert count_rows(r, k) == len(enumerate_rows(r, k)) == len(brute_force_rows(r, k))

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            enumerate_rows(0, 3)
        with pytest.raises(ValueError):
            enumerate_rows(3, 2)


class TestCountRows:
    def test_known_values(self):
        assert count_rows(4, 3) == 24
        assert count_rows(2, 3) == 0
        assert count_rows(2, 4) == 6
        assert count_rows(3, 4) == 54


class TestAction:
    def test_basic_shift(self):
        assert act(1, (1, 2, 3), 3) == (2, 3, 1)

    def test_worked_example_orbit_row(self):
        assert act(1, (1, 2, 4), 5) == (2, 3, 5)

    def test_identity(self):
        for p in enumerate_rows(4, 3):
            assert act(0, p, 4) == p

    def test_composition_and_bijection(self):
        rows = enumerate_rows(5, 3)
        for a in range(5):
            image = {act(a, p, 5) for p in rows}
            assert image == set(rows)
            for b in range(5):
                for p in rows[::7]:
                    assert act(a, act(b, p, 5), 5) == act(a + b, p, 5)


class TestOrbits:
    def test_worked_example_orbit_table(self):
        o = orbit_of((1, 2, 4), 5)
        assert o.canonical == (1, 2, 4)
        assert set(o.members) == {(1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)}

    def test_r3_orbit(self):
        o = orbit_of((2, 3, 1), 3)
        assert o.canonical == (1, 2, 3)
        assert set(o.members) == {(1, 2, 3), (2, 3, 1), (3, 1, 2)}

    @pytest.mark.parametrize("r,k", FREE_GRID)
    def test_action_is_free(self, r, k):
        for p in enumerate_rows(r, k):
            assert len(set(orbit_of(p, r).members)) == r

    @pytest.mark.parametrize("r,k", FREE_GRID)
    def test_orbit_of_matches_reference_search(self, r, k):
        for p in enumerate_rows(r, k):
            got = orbit_of(p, r)
            assert (got.canonical, got.members) == reference_orbit_of(p, r)
            assert got.canonical[0] == 1
            assert got.size == len(got.members) == r

    @pytest.mark.parametrize("r,k", FREE_GRID)
    def test_all_orbits_matches_reference_search(self, r, k):
        got = [(o.canonical, o.members) for o in all_orbits(r, k)]
        assert got == reference_all_orbits(r, k)

    @pytest.mark.parametrize("r,k", [(4, 3), (5, 3), (6, 3), (2, 4), (3, 4)])
    def test_orbits_partition(self, r, k):
        orbits = all_orbits(r, k)
        members = [p for o in orbits for p in o.members]
        assert len(members) == len(set(members)) == count_rows(r, k)
        assert [o.canonical for o in orbits] == sorted(o.canonical for o in orbits)

    def test_rejects_inadmissible(self):
        with pytest.raises(ValueError):
            orbit_of((1, 1, 2), 3)

    def test_orbit_is_its_name(self):
        assert [f.name for f in fields(Orbit)] == ["canonical", "r"]
        assert Orbit((1, 2, 4), 5) == orbit_of((3, 4, 1), 5)


class TestBlocks:
    def test_worked_example_one_block_of_size_three(self):
        o = orbit_of((1, 2, 4), 5)
        b = maximal_uncrossed_block(o, 1, set(), 5, 3)
        assert b.size == 3
        got = {x.canonical for x in b.orbits}
        want = {orbit_of(p, 5).canonical for p in [(1, 2, 4), (3, 2, 4), (5, 2, 4)]}
        assert got == want

    def test_crossed_orbit_shrinks_block(self):
        o = orbit_of((1, 2, 4), 5)
        crossed = {orbit_of((3, 2, 4), 5).canonical}
        b = maximal_uncrossed_block(o, 1, crossed, 5, 3)
        assert b.size == 2

    def test_final_example_block_of_size_one(self):
        o = orbit_of((1, 2, 4), 4)
        crossed = {orbit_of((1, 3, 4), 4).canonical}
        b = maximal_uncrossed_block(o, 2, crossed, 4, 3)
        assert b.size == 1
        assert b.orbits[0].canonical == (1, 2, 4)

    @pytest.mark.parametrize("r", [3, 4, 5, 6])
    def test_k3_uncrossed_blocks_have_size_r_minus_2(self, r):
        for o in all_orbits(r, 3):
            for t in (1, 2, 3):
                assert maximal_uncrossed_block(o, t, set(), r, 3).size == r - 2

    def test_block_members_differ_only_in_direction(self):
        for r, k in [(5, 3), (3, 4)]:
            for o in all_orbits(r, k):
                for t in range(1, k + 1):
                    b = maximal_uncrossed_block(o, t, set(), r, k)
                    for o1 in b.orbits:
                        for o2 in b.orbits:
                            p1 = o1.members[0]
                            hits = [
                                p2 for p2 in o2.members
                                if all(p1[i] == p2[i] for i in range(k) if i != t - 1)
                            ]
                            assert len(hits) == 1

    def test_rejects_crossed_seed(self):
        o = orbit_of((1, 2, 3), 4)
        with pytest.raises(ValueError):
            maximal_uncrossed_block(o, 1, {(1, 2, 3)}, 4, 3)


class TestBlockIntersection:
    def test_shared_orbit_counted_once(self):
        o = orbit_of((1, 2, 3), 4)
        b1 = maximal_uncrossed_block(o, 1, set(), 4, 3)
        b2 = maximal_uncrossed_block(o, 2, set(), 4, 3)
        assert block_intersection_count(b1, b2) == 1

    def test_disjoint_blocks(self):
        b1 = Block(direction=1, orbits=(orbit_of((1, 2, 3), 4),))
        b2 = Block(direction=2, orbits=(orbit_of((1, 2, 4), 4),))
        assert block_intersection_count(b1, b2) == 0

    def test_equal_directions_rejected(self):
        b = Block(direction=1, orbits=(orbit_of((1, 2, 3), 4),))
        with pytest.raises(ValueError):
            block_intersection_count(b, b)

    @pytest.mark.parametrize("r,k", [(4, 3), (5, 3), (6, 3), (3, 4), (4, 4)])
    def test_at_most_one_shared_orbit_exhaustive(self, r, k):
        orbits = all_orbits(r, k)
        for o1 in orbits:
            for o2 in orbits:
                for t1 in range(1, k + 1):
                    for t2 in range(t1 + 1, k + 1):
                        b1 = maximal_uncrossed_block(o1, t1, set(), r, k)
                        b2 = maximal_uncrossed_block(o2, t2, set(), r, k)
                        assert block_intersection_count(b1, b2) <= 1


def test_is_admissible_spot_checks():
    assert is_admissible((1, 2, 3))
    assert not is_admissible((1, 1, 2))
    assert not is_admissible((2, 2, 2))
    assert is_admissible((1, 1, 2, 2))
    assert not is_admissible((1, 1, 1, 2))
