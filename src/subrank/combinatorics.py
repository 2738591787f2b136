"""Admissible row tuples, the cyclic shift action, orbits and blocks.

Rows of the pattern matrix are k-tuples over [r] in which no single value
occupies k-1 or more of the k coordinates (for k=3: three pairwise distinct
entries).  The simultaneous cyclic shift by a != 0 (mod r) moves every
coordinate, the first one included, so the r shifts of a row have r
distinct first coordinates: the action is free, rows group into orbits of
size exactly r, and each orbit has exactly one member whose first
coordinate is 1.  That member, also the orbit's lexicographically smallest,
names the orbit.  A t-block collects orbits whose members differ only in
coordinate t; blocks are the crossing unit of the certificate search.

Indices are 1-based throughout; residue 0 of the shift maps back to r.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product


def is_admissible(coords: tuple[int, ...]) -> bool:
    """True if no value occupies k-1 or more of the k coordinates."""
    k = len(coords)
    for v in set(coords):
        if sum(1 for c in coords if c == v) >= k - 1:
            return False
    return True


def enumerate_rows(r: int, k: int) -> list[tuple[int, ...]]:
    """All admissible k-tuples over [r], in lexicographic order.

    Empty for small r (e.g. r <= 2, k = 3); that is a legal degenerate
    instance, not an error.
    """
    if r < 1:
        raise ValueError(f"r must be positive, got {r}")
    if k < 3:
        raise ValueError(f"order k must be at least 3, got {k}")
    return [p for p in product(range(1, r + 1), repeat=k) if is_admissible(p)]


def count_rows(r: int, k: int) -> int:
    """Closed-form size of the admissible row set: r^k - k*r^2 + (k-1)*r."""
    if r < 1:
        raise ValueError(f"r must be positive, got {r}")
    if k < 3:
        raise ValueError(f"order k must be at least 3, got {k}")
    return max(0, r**k - k * r**2 + (k - 1) * r)


def act(a: int, p: tuple[int, ...], r: int) -> tuple[int, ...]:
    """Shift every coordinate of p by a, cyclically within [r]."""
    return tuple((c - 1 + a) % r + 1 for c in p)


@dataclass(frozen=True)
class Orbit:
    """Cyclic-shift orbit of a row tuple; always has exactly r members.

    `canonical` is the member whose first coordinate is 1 (the
    lexicographically smallest); `members[a]` is its shift by a, derived
    on each access.
    """

    canonical: tuple[int, ...]
    r: int

    @property
    def members(self) -> tuple[tuple[int, ...], ...]:
        return tuple(act(a, self.canonical, self.r) for a in range(self.r))

    @property
    def size(self) -> int:
        return self.r


@dataclass(frozen=True)
class Block:
    """A t-block: orbits whose members differ only in coordinate t.

    `orbits` is sorted by canonical representative; the first orbit serves
    as the deterministic base for sweep order during crossing.
    """

    direction: int
    orbits: tuple[Orbit, ...]

    @property
    def size(self) -> int:
        return len(self.orbits)


def maximal_uncrossed_block(
    o: Orbit,
    t: int,
    crossed: set[tuple[int, ...]],
    r: int,
    k: int,
) -> Block:
    """Maximal t-block through o among orbits not in `crossed`.

    `crossed` holds canonical representatives of crossed orbits.  The
    block's orbits are those of the admissible tuples q that differ from
    o's name only in coordinate t; q's orbit is named by its shift by
    1 - q[0], so only uncrossed orbits are built.
    """
    if not 1 <= t <= k:
        raise ValueError(f"direction t={t} out of range [1, {k}]")
    if o.canonical in crossed:
        raise ValueError(f"orbit of {o.canonical} is already crossed")
    p = o.canonical
    family = (p[: t - 1] + (x,) + p[t:] for x in range(1, r + 1))
    names = sorted(act(1 - q[0], q, r) for q in family if is_admissible(q))
    orbits = tuple(Orbit(canonical=n, r=r) for n in names if n not in crossed)
    return Block(direction=t, orbits=orbits)


def all_orbits(r: int, k: int) -> list[Orbit]:
    """Orbits partitioning the admissible row set, sorted by canonical:
    one per admissible row whose first coordinate is 1."""
    names = ((1, *q) for q in product(range(1, r + 1), repeat=k - 1))
    return [Orbit(canonical=p, r=r) for p in names if is_admissible(p)]
