"""Crossing-out certificates of generic full row rank.

A certificate is an ordered sequence of variable-crossing steps whose
product is a unique row monomial: step i crosses all still-live
occurrences of its variable, and those occurrences sit in pairwise
distinct rows and columns.  A matrix admitting such a monomial of degree
equal to its row count has generically full row rank.

The search crosses whole blocks of orbits at a time: it walks the orbits
once in canonical order, and for each one not yet crossed finds the maximal
uncrossed t-block through it for each direction t and crosses the first
block that still fits into the unused column slots of its direction.
A counting argument guarantees such a direction exists whenever the matrix
has at least as many columns as rows, so running out of choices indicates
an implementation bug, not a bad input.

`find_certificate` is the only builder, and it crosses each block as soon
as it has proved it maximal.  A block's steps follow from the block alone.
Its rows outside its own orbits are crossed, because it is maximal
uncrossed, and its slots are free, so a variable's live occurrences are
its block rows not yet crossed by this block, in columns not yet used in
the step's slot.  The search therefore keeps only the crossed orbits and
the free slots, as locals.  `validate` shares none of this: it replays
each step on the (row tuple, column triple) positions that the entry
rule, `occurrences`, gives its variable.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass

from .combinatorics import Block, act, all_orbits, count_rows, maximal_uncrossed_block
from .pattern import PatternMatrix, Variable, occurrences, parse_variable


class TooFewColumnsError(ValueError):
    """The pattern has fewer columns than rows; full row rank is impossible."""


class CrossingStuckError(AssertionError):
    """No legal crossing move remains although uncrossed rows do.

    The counting argument behind the block-crossing method rules this out
    whenever the preconditions hold, so reaching it signals a bug; the
    message carries a state dump.
    """


@dataclass(frozen=True)
class Step:
    """One crossing step: a variable and the rows/columns it crossed."""

    variable: Variable
    rows: tuple[tuple[int, ...], ...]
    cols: tuple[tuple[int, int, int], ...]

    @property
    def multiplicity(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class Certificate:
    """Ordered crossing steps plus the resulting row monomial."""

    r: int
    dims: tuple[int, ...]
    steps: tuple[Step, ...]
    monomial: tuple[tuple[Variable, int], ...]

    @property
    def degree(self) -> int:
        return sum(power for _, power in self.monomial)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a check; `detail` explains any failure."""

    ok: bool
    detail: str = ""
    first_failing_step: int | None = None


def _cross_block(
    r: int, block: Block, slots: list[int], crossed: set[tuple[int, ...]]
) -> list[Step]:
    """Cross out exactly the rows of the maximal uncrossed `block` and the
    columns (t, m, s) with m in [r], s in `slots`, one variable at a time,
    then add the block's orbits to `crossed`.

    Slots are processed in ascending order.  Within a slot, the variables
    of w_a, the shifts by a = 0..r-1 of the block's smallest canonical
    representative w0, are swept in order of a; this reproduces the row
    monomial of the worked square example.  The row w_a with m at position
    t is the shift by a of w0 with x = (m - 1 - a) mod r + 1 at position t,
    so it is in the block iff x is in X, the set of x for which the orbit
    of w0[t:=x] is in the block.  Every other such row is crossed, since
    the block is maximal uncrossed, so in slot s the variable of w_a crosses
    each m with x in X, with that row not yet crossed in this block and with
    column (t, m, s) not yet used.
    """
    t = block.direction
    w = block.orbits[0].members
    # X: coordinate t of the member of each block orbit that agrees with w0
    # off t, that is, of the shift of its name that matches w0 at u != t.
    u = 1 if t == 1 else 0
    xs = [act(w[0][u] - o.canonical[u], o.canonical, r)[t - 1] for o in block.orbits]
    # live[a]: the m whose row w_a[t:=m] is in the block and not yet crossed.
    live = [{(x - 1 + a) % r + 1 for x in xs} for a in range(r)]
    steps: list[Step] = []
    for s in sorted(slots):
        unused = set(range(1, r + 1))
        for rep, left in zip(w, live):
            ms = sorted(left & unused)
            if not ms:
                continue
            left.difference_update(ms)
            unused.difference_update(ms)
            head, tail = rep[: t - 1], rep[t:]
            steps.append(Step(
                variable=Variable(t=t, s=s, reduced=head + tail),
                rows=tuple((*head, m, *tail) for m in ms),
                cols=tuple((t, m, s) for m in ms),
            ))
        if unused:
            raise CrossingStuckError(
                f"slot {s} of direction {t} left columns uncrossed: "
                f"{[(t, m, s) for m in sorted(unused)]}; orbits crossed: {sorted(crossed)}"
            )
    leftover = [(*rep[: t - 1], m, *rep[t:]) for rep, left in zip(w, live) for m in sorted(left)]
    if leftover:
        raise CrossingStuckError(
            f"block rows left uncrossed: {leftover}; orbits crossed: {sorted(crossed)}"
        )
    crossed.update(o.canonical for o in block.orbits)
    return steps


def _assemble(pm: PatternMatrix, steps: list[Step]) -> Certificate:
    powers: dict[Variable, int] = {}
    for st in steps:
        if st.variable in powers:
            raise CrossingStuckError(f"variable {st.variable} crossed twice")
        powers[st.variable] = st.multiplicity
    monomial = tuple(sorted(powers.items()))
    return Certificate(r=pm.r, dims=pm.dims, steps=tuple(steps), monomial=monomial)


# Most rows a certificate search takes on.  Finding, validating and writing
# a certificate peaks at about 0.8 KB per row (`certificate --out` peaks at
# 139 MB for 148,824 rows and 350 MB for the 438,900 of (2000,2000,2000) at
# r=77), so this is about 0.4 GiB.
_CERTIFICATE_LIMIT = 1 << 19


def check_certificate_size(r: int, dims: tuple[int, ...]) -> None:
    """Refuse a certificate for the (r, dims) pattern over _CERTIFICATE_LIMIT
    rows.  The count is the closed form, so callers can refuse a shape
    before building its pattern."""
    n_rows = count_rows(r, len(dims))
    if n_rows > _CERTIFICATE_LIMIT:
        raise ValueError(
            f"pattern has {n_rows} rows, over the {_CERTIFICATE_LIMIT} "
            f"that a certificate search holds in memory"
        )


def find_certificate(pm: PatternMatrix) -> Certificate:
    """Search for a unique-row-monomial certificate by block crossing.

    Requires at least as many columns as rows.  Deterministic: uncrossed
    orbits are seeded in canonical order, the direction is the smallest
    one whose maximal block fits its unused slots, and the slots used are
    the smallest remaining ones.
    """
    if pm.n_cols < pm.n_rows:
        raise TooFewColumnsError(
            f"{pm.n_cols} columns < {pm.n_rows} rows: full row rank is "
            f"impossible for r={pm.r}, dims={pm.dims}"
        )
    crossed: set[tuple[int, ...]] = set()
    free = {t: list(range(1, pm.dims[t - 1] - pm.r + 1)) for t in range(1, pm.k + 1)}
    steps: list[Step] = []
    # Crossed orbits stay crossed, so one pass meets each seed in turn.
    for seed in all_orbits(pm.r, pm.k):
        if seed.canonical in crossed:
            continue
        sizes = {}
        for t in range(1, pm.k + 1):
            block = maximal_uncrossed_block(seed, t, crossed, pm.r, pm.k)
            sizes[t] = block.size
            if block.size <= len(free[t]):
                break
        else:
            raise CrossingStuckError(
                f"no direction can absorb the blocks through {seed.canonical} "
                f"(block sizes {sizes}); crossed {len(crossed) * pm.r}/{pm.n_rows} rows, "
                f"orbits crossed: {sorted(crossed)}, free slots: {free}"
            )
        slots, free[t] = free[t][: block.size], free[t][block.size :]
        steps.extend(_cross_block(pm.r, block, slots, crossed))
    return _assemble(pm, steps)


def validate(pm: PatternMatrix, cert: Certificate) -> Verdict:
    """Re-simulate the inductive submatrix construction, independently of
    the search: each step's declared multiplicity, rows and columns must
    match the live occurrences of its variable at that point, and at the
    end every row must be crossed with total degree equal to the row count.
    Occurrences come from the entry rule alone: of the pattern only r, k,
    dims and the closed-form row count are read.
    """
    if cert.r != pm.r or cert.dims != pm.dims:
        return Verdict(False, f"certificate is for r={cert.r}, dims={cert.dims}, "
                              f"not r={pm.r}, dims={pm.dims}")
    crossed_rows: set[tuple[int, ...]] = set()
    crossed_cols: set[tuple[int, int, int]] = set()
    seen: set[Variable] = set()
    for idx, step in enumerate(cert.steps):
        v = step.variable
        if v in seen:
            return Verdict(False, f"variable {v} appears in two steps", idx)
        seen.add(v)
        occ = occurrences(pm, v)
        if not occ:
            return Verdict(False, f"unknown variable {v}", idx)
        live = [(p, c) for p, c in occ if p not in crossed_rows and c not in crossed_cols]
        if not live:
            return Verdict(False, f"variable {v} has no live occurrence", idx)
        if step.multiplicity != len(live):
            return Verdict(
                False,
                f"step declares multiplicity {step.multiplicity} for {v}, "
                f"but {len(live)} occurrences are live",
                idx,
            )
        live_rows = {p for p, _ in live}
        live_cols = {c for _, c in live}
        if set(step.rows) != live_rows:
            return Verdict(False, f"declared rows of step {idx} do not match", idx)
        if set(step.cols) != live_cols:
            return Verdict(False, f"declared columns of step {idx} do not match", idx)
        crossed_rows |= live_rows
        crossed_cols |= live_cols
    if len(crossed_rows) != pm.n_rows:
        return Verdict(
            False,
            f"only {len(crossed_rows)} of {pm.n_rows} rows crossed",
            len(cert.steps) - 1 if cert.steps else None,
        )
    if cert.degree != pm.n_rows:
        return Verdict(False, f"monomial degree {cert.degree} != row count {pm.n_rows}")
    from_steps = sorted((st.variable, st.multiplicity) for st in cert.steps)
    if from_steps != sorted(cert.monomial):
        return Verdict(False, "monomial field disagrees with the steps")
    return Verdict(True, f"unique row monomial of degree {cert.degree}")


# -- serialization ---------------------------------------------------------


def certificate_doc(cert: Certificate) -> dict:
    """JSON document of `cert`, with stable key order."""
    return {
        "r": cert.r,
        "dims": list(cert.dims),
        "steps": [
            {
                "var": st.variable.label,
                "rows": [list(p) for p in st.rows],
                "cols": [list(c) for c in st.cols],
            }
            for st in cert.steps
        ],
        "monomial": [
            {"var": v.label, "power": power} for v, power in cert.monomial
        ],
    }


def certificate_to_json(cert: Certificate) -> str:
    return json.dumps(certificate_doc(cert), indent=2)


def _popped(items: object) -> Iterator[object]:
    """The items of a parsed JSON value in order; a list gives up each item
    as it is yielded, so the caller holds only what it has built from it."""
    if isinstance(items, list):
        items.reverse()
        while items:
            yield items.pop()
    else:
        yield from items


def certificate_from_json(text: str) -> Certificate:
    doc = json.loads(text)
    del text  # not needed past here, and the steps built below set the peak
    try:
        steps = tuple(
            Step(
                variable=parse_variable(st["var"]),
                rows=tuple(tuple(p) for p in st["rows"]),
                cols=tuple(tuple(c) for c in st["cols"]),
            )
            for st in _popped(doc["steps"])
        )
        monomial = tuple(
            (parse_variable(m["var"]), int(m["power"])) for m in doc["monomial"]
        )
        return Certificate(
            r=int(doc["r"]),
            dims=tuple(int(n) for n in doc["dims"]),
            steps=steps,
            monomial=monomial,
        )
    except (KeyError, TypeError) as e:
        raise ValueError(f"malformed certificate JSON: {e!r}") from e
