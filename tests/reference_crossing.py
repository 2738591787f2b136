"""Reference block crossing that tracks every crossed row and column index.

This is the search as first written: each step sweeps the variable's
occurrences through the row and column indexes of `PatternIndex.var_occ`
and keeps those whose indexes are not yet crossed, checked against global
sets.  `find_certificate` derives the same steps from each block alone;
the tests hold the two to equal certificates.  `scripted_certificate`
replays a prescribed block order, such as the worked example's, through
the same index sweep, so a script is checked by code that shares nothing
with the package's crossing.
"""

from subrank.certificate import Certificate, CrossingStuckError, Step
from subrank.combinatorics import all_orbits, maximal_uncrossed_block
from subrank.pattern import Variable

from reference_index import PatternIndex
from reference_orbits import orbit_of


def _cross_block(index, crossed_rows, crossed_cols, crossed_orbits, block, slots):
    t, r = block.direction, index.pm.r
    cols = {index.col_pos[(t, m, s)] for s in slots for m in range(1, r + 1)}
    assert not cols & crossed_cols
    block_rows = [p for o in block.orbits for p in o.members]
    block_idx = {index.row_pos[p] for p in block_rows}
    steps = []
    for s in slots:
        for rep in block.orbits[0].members:
            v = Variable(t=t, s=s, reduced=rep[: t - 1] + rep[t:])
            live = [
                (i, j) for i, j in index.var_occ(v)
                if i not in crossed_rows and j not in crossed_cols
            ]
            if not live:
                continue
            if any(i not in block_idx or j not in cols for i, j in live):
                raise CrossingStuckError(f"occurrences of {v} escape the block")
            crossed_rows.update(i for i, _ in live)
            crossed_cols.update(j for _, j in live)
            steps.append(Step(
                variable=v,
                rows=tuple(sorted(index.rows[i] for i, _ in live)),
                cols=tuple(sorted(index.cols[j] for _, j in live)),
            ))
        if any(index.cols[j][2] == s and j not in crossed_cols for j in cols):
            raise CrossingStuckError(f"slot {s} of direction {t} left columns uncrossed")
    if any(index.row_pos[p] not in crossed_rows for p in block_rows):
        raise CrossingStuckError("block rows left uncrossed")
    crossed_orbits.update(o.canonical for o in block.orbits)
    return steps


def reference_certificate(pm):
    """The certificate `find_certificate` returns, by the global-index sweep."""
    index = PatternIndex(pm)
    crossed_rows, crossed_cols, crossed_orbits = set(), set(), set()
    remaining = {t: list(range(1, pm.dims[t - 1] - pm.r + 1)) for t in range(1, pm.k + 1)}
    steps = []
    for seed in all_orbits(pm.r, pm.k):
        if seed.canonical in crossed_orbits:
            continue
        for t in range(1, pm.k + 1):
            block = maximal_uncrossed_block(seed, t, crossed_orbits, pm.r, pm.k)
            if block.size <= len(remaining[t]):
                break
        else:
            raise CrossingStuckError(f"no direction can absorb the blocks through {seed.canonical}")
        slots, remaining[t] = remaining[t][: block.size], remaining[t][block.size:]
        steps += _cross_block(index, crossed_rows, crossed_cols, crossed_orbits, block, slots)
    return _certificate(pm, steps)


def scripted_certificate(pm, script):
    """Cross the blocks of `script` in order: each entry is (direction, any
    member of the seed orbit, slots), and its block is the maximal uncrossed
    one through that orbit."""
    index = PatternIndex(pm)
    crossed_rows, crossed_cols, crossed_orbits = set(), set(), set()
    steps = []
    for t, member, slots in script:
        block = maximal_uncrossed_block(orbit_of(member, pm.r), t, crossed_orbits, pm.r, pm.k)
        assert block.size == len(slots)
        steps += _cross_block(index, crossed_rows, crossed_cols, crossed_orbits, block, slots)
    return _certificate(pm, steps)


def _certificate(pm, steps):
    monomial = tuple(sorted((st.variable, st.multiplicity) for st in steps))
    return Certificate(r=pm.r, dims=pm.dims, steps=tuple(steps), monomial=monomial)
