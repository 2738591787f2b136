"""Row and column indexes of a pattern, and the validator that used them.

`PatternMatrix` keeps only (r, dims), and `validate` replays a certificate
on the positions the entry rule gives.  Both once went through stored
indexes: a dict from row tuple to row index, one from column triple to
column index, and `var_occ`, which looked each occurrence up in them.  The
tests keep that code as the reference the derived forms are held to.
"""

from subrank.certificate import Verdict


class PatternIndex:
    """The row and column tuples of `pm` and their positions."""

    def __init__(self, pm):
        self.pm = pm
        self.rows = pm.rows
        self.cols = pm.cols
        self.row_pos = {p: i for i, p in enumerate(self.rows)}
        self.col_pos = {c: j for j, c in enumerate(self.cols)}

    def var_occ(self, v):
        """(row index, column index) of every occurrence of v, by row.

        By the entry rule, v = a^{t,s}_w sits at row w with m inserted at
        position t and column (t, m, s), for each m in [r] that makes the
        row admissible.  Empty when v is not a variable of this matrix.
        """
        t, s, w = v.t, v.s, v.reduced
        j = self.col_pos.get((t, 1, s))  # None unless t in [k], s in [n_t - r]
        if j is None:
            return []
        stride = self.pm.dims[t - 1] - self.pm.r
        head, tail, get = w[: t - 1], w[t - 1 :], self.row_pos.get
        occ = []
        for m in range(1, self.pm.r + 1):
            i = get((*head, m, *tail))
            if i is not None:
                occ.append((i, j + (m - 1) * stride))
        return occ


def reference_validate(pm, cert):
    """`validate` as it replayed certificates through the row and column
    indexes, collision check included."""
    if cert.r != pm.r or cert.dims != pm.dims:
        return Verdict(False, f"certificate is for r={cert.r}, dims={cert.dims}, "
                              f"not r={pm.r}, dims={pm.dims}")
    index = PatternIndex(pm)
    crossed_rows = set()
    crossed_cols = set()
    seen = set()
    for idx, step in enumerate(cert.steps):
        v = step.variable
        if v in seen:
            return Verdict(False, f"variable {v} appears in two steps", idx)
        seen.add(v)
        occ = index.var_occ(v)
        if not occ:
            return Verdict(False, f"unknown variable {v}", idx)
        live = [(i, j) for i, j in occ if i not in crossed_rows and j not in crossed_cols]
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
        if set(step.rows) != {index.rows[i] for i in live_rows}:
            return Verdict(False, f"declared rows of step {idx} do not match", idx)
        if set(step.cols) != {index.cols[j] for j in live_cols}:
            return Verdict(False, f"declared columns of step {idx} do not match", idx)
        crossed_rows.update(live_rows)
        crossed_cols.update(live_cols)
    if len(crossed_rows) != len(index.rows):
        return Verdict(
            False,
            f"only {len(crossed_rows)} of {len(index.rows)} rows crossed",
            len(cert.steps) - 1 if cert.steps else None,
        )
    if cert.degree != len(index.rows):
        return Verdict(False, f"monomial degree {cert.degree} != row count {len(index.rows)}")
    from_steps = sorted((st.variable, st.multiplicity) for st in cert.steps)
    if from_steps != sorted(cert.monomial):
        return Verdict(False, "monomial field disagrees with the steps")
    return Verdict(True, f"unique row monomial of degree {cert.degree}")
