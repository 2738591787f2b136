"""Crossing-out certificates of generic full row rank.

A certificate is an ordered sequence of variable-crossing steps whose
product is a unique row monomial: step i crosses all still-live
occurrences of its variable, and those occurrences sit in pairwise
distinct rows and columns.  A matrix admitting such a monomial of degree
equal to its row count has generically full row rank.

The search crosses whole blocks of orbits at a time: it repeatedly picks
the uncrossed orbit with the smallest canonical representative, finds the
maximal uncrossed t-block through it for each direction t, and crosses the
first block that still fits into the unused column slots of its direction.
A counting argument guarantees such a direction exists whenever the matrix
has at least as many columns as rows, so running out of choices indicates
an implementation bug, not a bad input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .combinatorics import Block, act, all_orbits, maximal_uncrossed_block, orbit_of
from .pattern import PatternMatrix, Variable, parse_variable


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


@dataclass
class CrossState:
    """Mutable crossing state shared by the block-crossing steps."""

    pm: PatternMatrix
    crossed_row_idx: set[int] = field(default_factory=set)
    crossed_col_idx: set[int] = field(default_factory=set)
    crossed_orbits: set[tuple[int, ...]] = field(default_factory=set)
    remaining_slots: dict[int, list[int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.remaining_slots:
            self.remaining_slots = {
                t: list(range(1, self.pm.dims[t - 1] - self.pm.r + 1))
                for t in range(1, self.pm.k + 1)
            }

    def dump(self) -> str:
        return (
            f"crossed {len(self.crossed_row_idx)}/{self.pm.n_rows} rows, "
            f"{len(self.crossed_col_idx)}/{self.pm.n_cols} cols, "
            f"orbits crossed: {sorted(self.crossed_orbits)}, "
            f"remaining slots: {self.remaining_slots}"
        )


def cross_block(
    pm: PatternMatrix,
    state: CrossState,
    block: Block,
    slots: list[int],
) -> list[Step]:
    """Cross out exactly the rows of `block` and the columns (t, m, s) with
    m in [r], s in `slots`, one variable at a time.

    Within the block, slots are processed in ascending order; within a
    slot, candidate variables are swept in cyclic-shift order starting from
    the block's smallest canonical representative.  This sweep reproduces
    the row monomial of the worked square example when replayed on it.
    """
    t = block.direction
    r = pm.r
    slots = sorted(slots)
    if len(slots) != block.size:
        raise ValueError(f"need exactly {block.size} slots, got {len(slots)}")
    for o in block.orbits:
        if o.canonical in state.crossed_orbits:
            raise ValueError(f"orbit of {o.canonical} is already crossed")
    if block.size and block.orbits != maximal_uncrossed_block(
        block.orbits[0], t, state.crossed_orbits, r, pm.k
    ).orbits:
        raise ValueError(f"{t}-block through {block.orbits[0].canonical} is not maximal uncrossed")
    col_set = set()
    for s in slots:
        for m in range(1, r + 1):
            j = pm.col_pos.get((t, m, s))
            if j is None:
                raise ValueError(f"column ({t},{m},{s}) does not exist")
            if j in state.crossed_col_idx:
                raise ValueError(f"column ({t},{m},{s}) is already crossed")
            col_set.add(j)
    if not block.size:
        return []

    block_rows = {pm.row_pos[p] for p in block.rows}
    base = block.orbits[0].canonical
    steps: list[Step] = []
    for s in slots:
        for shift in range(r):
            rep = act(shift, base, r)
            v = Variable(t=t, s=s, reduced=rep[: t - 1] + rep[t:])
            vi = pm.var_pos.get(v)
            if vi is None:
                continue
            live = [
                (i, j)
                for i, j in pm.var_occ(vi)
                if i not in state.crossed_row_idx and j not in state.crossed_col_idx
            ]
            if not live:
                continue
            bad = [(i, j) for i, j in live if i not in block_rows or j not in col_set]
            if bad:
                raise CrossingStuckError(
                    f"occurrences of {v} escape the block: {bad}; " + state.dump()
                )
            state.crossed_row_idx.update(i for i, _ in live)
            state.crossed_col_idx.update(j for _, j in live)
            steps.append(
                Step(
                    variable=v,
                    rows=tuple(sorted(pm.rows[i] for i, _ in live)),
                    cols=tuple(sorted(pm.cols[j] for _, j in live)),
                )
            )
        uncrossed_cols = [
            pm.cols[j] for j in col_set
            if pm.cols[j][2] == s and j not in state.crossed_col_idx
        ]
        if uncrossed_cols:
            raise CrossingStuckError(
                f"slot {s} of direction {t} left columns uncrossed: "
                f"{uncrossed_cols}; " + state.dump()
            )

    leftover = [p for p in block.rows if pm.row_pos[p] not in state.crossed_row_idx]
    if leftover:
        raise CrossingStuckError(f"block rows left uncrossed: {leftover}; " + state.dump())
    for o in block.orbits:
        state.crossed_orbits.add(o.canonical)
    state.remaining_slots[t] = [s for s in state.remaining_slots[t] if s not in slots]
    return steps


def _assemble(pm: PatternMatrix, steps: list[Step]) -> Certificate:
    powers: dict[Variable, int] = {}
    for st in steps:
        if st.variable in powers:
            raise CrossingStuckError(f"variable {st.variable} crossed twice")
        powers[st.variable] = st.multiplicity
    monomial = tuple(sorted(powers.items()))
    return Certificate(r=pm.r, dims=pm.dims, steps=tuple(steps), monomial=monomial)


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
    state = CrossState(pm)
    orbits = all_orbits(pm.r, pm.k)
    steps: list[Step] = []
    while True:
        uncrossed = [o for o in orbits if o.canonical not in state.crossed_orbits]
        if not uncrossed:
            break
        seed = uncrossed[0]
        chosen: tuple[int, Block] | None = None
        sizes = {}
        for t in range(1, pm.k + 1):
            b = maximal_uncrossed_block(seed, t, state.crossed_orbits, pm.r, pm.k)
            sizes[t] = b.size
            if b.size <= len(state.remaining_slots[t]):
                chosen = (t, b)
                break
        if chosen is None:
            raise CrossingStuckError(
                f"no direction can absorb the blocks through {seed.canonical} "
                f"(block sizes {sizes}); " + state.dump()
            )
        t, block = chosen
        slots = state.remaining_slots[t][: block.size]
        steps.extend(cross_block(pm, state, block, slots))
    return _assemble(pm, steps)


def scripted_certificate(
    pm: PatternMatrix,
    script: list[tuple[int, tuple[int, ...], list[int]]],
) -> Certificate:
    """Replay a prescribed block order instead of the default policy.

    Each script entry is (direction, any member of the seed orbit, slots).
    Precondition failures report the offending step index.
    """
    state = CrossState(pm)
    steps: list[Step] = []
    for idx, (t, member, slots) in enumerate(script):
        try:
            o = orbit_of(tuple(member), pm.r)
            if o.canonical in state.crossed_orbits:
                raise ValueError(f"orbit of {o.canonical} is already crossed")
            block = maximal_uncrossed_block(o, t, state.crossed_orbits, pm.r, pm.k)
            steps.extend(cross_block(pm, state, block, list(slots)))
        except (ValueError, KeyError) as exc:
            raise ValueError(f"script step {idx}: {exc}") from exc
    return _assemble(pm, steps)


def validate(pm: PatternMatrix, cert: Certificate) -> Verdict:
    """Re-simulate the inductive submatrix construction, independently of
    the search: each step's declared multiplicity, rows and columns must
    match the live occurrences of its variable at that point, and at the
    end every row must be crossed with total degree equal to the row count.
    """
    if cert.r != pm.r or cert.dims != pm.dims:
        return Verdict(False, f"certificate is for r={cert.r}, dims={cert.dims}, "
                              f"not r={pm.r}, dims={pm.dims}")
    crossed_rows: set[int] = set()
    crossed_cols: set[int] = set()
    seen: set[Variable] = set()
    for idx, step in enumerate(cert.steps):
        v = step.variable
        if v in seen:
            return Verdict(False, f"variable {v} appears in two steps", idx)
        seen.add(v)
        vi = pm.var_pos.get(v)
        if vi is None:
            return Verdict(False, f"unknown variable {v}", idx)
        live = [
            (i, j)
            for i, j in pm.var_occ(vi)
            if i not in crossed_rows and j not in crossed_cols
        ]
        if not live:
            return Verdict(False, f"variable {v} has no live occurrence", idx)
        live_rows = [i for i, _ in live]
        live_cols = [j for _, j in live]
        if len(set(live_rows)) != len(live) or len(set(live_cols)) != len(live):
            return Verdict(False, f"occurrences of {v} collide in a row or column", idx)
        if step.multiplicity != len(live):
            return Verdict(
                False,
                f"step declares multiplicity {step.multiplicity} for {v}, "
                f"but {len(live)} occurrences are live",
                idx,
            )
        if set(step.rows) != {pm.rows[i] for i in live_rows}:
            return Verdict(False, f"declared rows of step {idx} do not match", idx)
        if set(step.cols) != {pm.cols[j] for j in live_cols}:
            return Verdict(False, f"declared columns of step {idx} do not match", idx)
        crossed_rows.update(live_rows)
        crossed_cols.update(live_cols)
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


def certificate_to_json(cert: Certificate) -> str:
    doc = {
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
    return json.dumps(doc, indent=2, sort_keys=False)


def certificate_from_json(text: str) -> Certificate:
    doc = json.loads(text)
    try:
        steps = tuple(
            Step(
                variable=parse_variable(st["var"]),
                rows=tuple(tuple(p) for p in st["rows"]),
                cols=tuple(tuple(c) for c in st["cols"]),
            )
            for st in doc["steps"]
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
