"""Parsers for the pattern's text forms, which no command reads.

`subrank export` writes a pattern as JSON (`pattern_doc`) or as a
coordinate list (`pattern_to_coordinate_list`).  The tests read both back
here, so each export is held to the entry rule it claims to list.
"""

import json

from subrank.pattern import _entries, build_pattern, parse_variable, pattern_doc


def pattern_to_json(pm):
    """Lossless JSON form with stable key order, as `export` writes it."""
    return json.dumps(pattern_doc(pm), indent=2)


def pattern_from_json(text):
    """Rebuild a pattern from its JSON form, cross-checking every entry."""
    doc = json.loads(text)
    try:
        r, dims = int(doc["r"]), tuple(int(n) for n in doc["dims"])
        rows = [tuple(p) for p in doc["rows"]]
        cols = [tuple(c) for c in doc["cols"]]
        entries = [((int(e["row"]), int(e["col"])), parse_variable(e["var"]))
                   for e in doc["entries"]]
    except (KeyError, TypeError) as e:
        raise ValueError(f"malformed pattern JSON: {e!r}") from e
    pm = build_pattern(r, dims)
    if rows != list(pm.rows) or cols != list(pm.cols):
        raise ValueError("row/column labels disagree with the stated r and dims")
    if len(entries) != pm.nnz:
        raise ValueError(f"entry list has {len(entries)} entries, expected {pm.nnz}")
    listed = dict(entries)
    actual = {(i, j): v for i, j, v in _entries(pm)}
    if listed != actual:
        raise ValueError("entry list disagrees with the stated r and dims")
    return pm


def parse_coordinate_list(text):
    """Parse the coordinate-list form back into (nRows, nCols, entries)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("missing header")
    n_rows, n_cols, nnz = (int(x) for x in lines[0].split())
    entries = []
    for ln in lines[1:]:
        si, sj, label = ln.split(" ", 2)
        i, j = int(si), int(sj)
        if not (1 <= i <= n_rows and 1 <= j <= n_cols):
            raise ValueError(f"entry ({i}, {j}) outside the {n_rows} x {n_cols} matrix")
        entries.append((i - 1, j - 1, parse_variable(label)))
    if len(entries) != nnz:
        raise ValueError(f"header declares {nnz} entries, found {len(entries)}")
    return n_rows, n_cols, entries
