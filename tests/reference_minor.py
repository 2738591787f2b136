"""The certificate's square minor, checked densely and by expansion.

A certificate crosses as many columns as the pattern has rows; the minor on
those columns has the certificate monomial as a term.  The package proves
the rank by `validate` and ranks whole patterns by `verify_generic_rank`.
The tests keep two checks of the minor itself as references: its rank at a
seeded point, from the densified pattern, and, at micro scale, the
expansion of its determinant over all permutations, which reads each entry
by `reference_entry`, the entry rule stated for one position.
"""

from itertools import permutations

import numpy as np

from subrank.certificate import Verdict
from subrank.modular import (
    DEFAULT_PRIME,
    ModularMatrix,
    instantiate,
    random_assignment,
    rank_mod_p,
)
from subrank.pattern import Variable


def reference_entry(pm, p, c):
    """Variable at row p, column c = (t, m, s); None where the matrix is zero."""
    r, k = pm.r, pm.k
    t, m, s = c
    if not (
        1 <= t <= k and 1 <= m <= r and 1 <= s <= pm.dims[t - 1] - r
        and len(p) == k and all(1 <= x <= r for x in p) and max(map(p.count, p)) <= k - 2
    ):
        raise KeyError(f"position ({p}, {c}) outside the matrix")
    if p[t - 1] != m:
        return None
    return Variable(t=t, s=s, reduced=p[: t - 1] + p[t:])


def certificate_columns(pm, cert):
    """Positions of the certificate's crossed columns, sorted."""
    col_pos = {c: j for j, c in enumerate(pm.cols)}
    return sorted(col_pos[c] for st in cert.steps for c in st.cols)


def minor_determinant_check(pm, cert, p=DEFAULT_PRIME, seed=0, assignment=None):
    """Evaluate the square minor on all rows and the certificate's crossed
    columns at a seeded random point; ok iff it has full rank, that is, a
    nonzero determinant.

    `assignment` overrides the seeded values (negative controls); its
    prime and seed then replace `p` and `seed`."""
    cols = certificate_columns(pm, cert)
    if len(cols) != pm.n_rows:
        return Verdict(
            False,
            f"certificate crosses {len(cols)} columns but the pattern has "
            f"{pm.n_rows} rows; minor is not square",
        )
    if len(set(cols)) != len(cols):
        return Verdict(False, "certificate columns are not pairwise distinct")
    if assignment is None:
        assignment = random_assignment(pm, seed, p)
    p, seed = assignment.p, assignment.seed
    # `take` copies the columns into a C-ordered array of their own, and the
    # full matrix is dropped before the minor is eliminated in place.
    minor = np.take(instantiate(pm, assignment).data, cols, axis=1)
    rank = rank_mod_p(ModularMatrix(p, minor), overwrite=True)
    if rank < pm.n_rows:
        return Verdict(
            False, f"minor is singular mod {p} at seed {seed}: rank {rank} < {pm.n_rows}"
        )
    return Verdict(True, f"minor has full rank {rank} mod {p}")


def count_monomial_terms(entries, monomial):
    """Number of permutation terms of the symbolic determinant equal to the
    given monomial (a multiset of variable names with powers)."""
    size = len(entries)
    if any(len(row) != size for row in entries):
        raise ValueError("matrix must be square")
    target = sorted(
        name for name, power in monomial.items() for _ in range(power)
    )
    if len(target) != size:
        return 0
    count = 0
    for perm in permutations(range(size)):
        names = []
        for i, j in enumerate(perm):
            e = entries[i][j]
            if e is None:
                break
            names.append(e)
        else:
            if sorted(names) == target:
                count += 1
    return count


def brute_force_uniqueness(pm, cert):
    """Expand the certificate's square minor over all permutations and check
    the certificate monomial arises from exactly one of them (coefficient
    +-1, no cancellation).  Factorial cost; bounded at 8 rows."""
    if pm.n_rows > 8:
        raise ValueError(f"{pm.n_rows} rows exceed the factorial expansion bound of 8")
    cols = certificate_columns(pm, cert)
    if len(cols) != pm.n_rows:
        return Verdict(False, "certificate minor is not square")
    entries = []
    col_triples = pm.cols
    for p_row in pm.rows:
        row = []
        for j in cols:
            v = reference_entry(pm, p_row, col_triples[j])
            row.append(None if v is None else v.label)
        entries.append(row)
    monomial = {v.label: power for v, power in cert.monomial}
    count = count_monomial_terms(entries, monomial)
    if count == 1:
        return Verdict(True, "monomial appears in exactly one permutation term")
    return Verdict(False, f"monomial appears in {count} permutation terms, want 1")
