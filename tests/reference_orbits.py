"""Orbit and block helpers that only the tests use.

The certificate search names orbits by their first-coordinate-1 member
and never needs an orbit from an arbitrary member, nor a count of the
orbits two blocks share.  The tests keep both: `orbit_of` to name the
orbits of the worked examples and of a block-order script, and
`block_intersection_count` to check that blocks of different directions
share at most one orbit.
"""

from subrank.combinatorics import Orbit, act, is_admissible


def orbit_of(p, r):
    """Orbit of p under the simultaneous cyclic shift.

    The shift by 1 - p[0] is the one member whose first coordinate is 1;
    the shifts of that member by 0..r-1 have distinct first coordinates,
    so they are the r distinct members in order.
    """
    if not is_admissible(p):
        raise ValueError(f"{p} is not an admissible row tuple")
    if any(c < 1 or c > r for c in p):
        raise ValueError(f"{p} has coordinates outside [1, {r}]")
    return Orbit(canonical=act(1 - p[0], p, r), r=r)


def block_intersection_count(b1, b2):
    """Number of orbits shared by a t1-block and a t2-block, t1 != t2."""
    if b1.direction == b2.direction:
        raise ValueError("blocks must have different directions")
    c1 = {o.canonical for o in b1.orbits}
    c2 = {o.canonical for o in b2.orbits}
    return len(c1 & c2)
