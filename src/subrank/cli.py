"""Command-line front end.

Subcommands: q (closed-form generic subrank), certificate (find and write a
crossing certificate), verify (modular rank trials), dim (locus dimension,
optionally cross-checked against the pattern-rank oracle), table (Q table
as CSV, optionally verified), export (pattern or instantiated matrix).

Exit codes: 0 success/verified, 1 verification failure, 2 usage or regime
error.  All output is deterministic given the flags; SUBRANK_SEED provides
the fallback default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import AbstractContextManager, nullcontext
from typing import TextIO

from .certificate import certificate_doc, check_certificate_size, find_certificate, validate
from .combinatorics import count_rows
from .formulas import classify, dim_C_r, generic_subrank, pattern_col_count
from .modular import (
    DEFAULT_PRIME,
    check_dense_size,
    instantiate,
    is_prime,
    modular_to_coordinate_list,
    random_assignment,
    subspace_dimension_oracle,
    verify_generic_rank,
)
from .pattern import build_pattern, check_export_size, pattern_doc, pattern_to_coordinate_list


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed dims {text!r}; want e.g. 6,6,6")
    if len(dims) < 3:
        raise argparse.ArgumentTypeError("need at least 3 dimensions")
    if any(n < 1 for n in dims):
        raise argparse.ArgumentTypeError("dimensions must be positive")
    return dims


def _default_seed() -> int:
    text = os.environ.get("SUBRANK_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"SUBRANK_SEED must be an integer, got {text!r}") from None


def _open_out(out: str | None) -> AbstractContextManager[TextIO]:
    """The file `out` opened for writing, or stdout when `out` is None.
    Commands open it before any work, so a path that cannot be written
    fails before a result is printed."""
    return nullcontext(sys.stdout) if out is None else open(out, "w", encoding="ascii")


def _write(content: str | dict, fh: TextIO) -> None:
    """Write text as is, or stream a dict as indented JSON, to `fh`; on
    stdout JSON ends with a newline."""
    if isinstance(content, str):
        fh.write(content)
    else:
        json.dump(content, fh, indent=2)
        if fh is sys.stdout:
            fh.write("\n")


def _check_prime(p: int) -> None:
    # is_prime and the uint64 residue storage are exact only below 2^64.
    if p >= 1 << 64:
        raise ValueError(f"modulus {p} is not below 2^64")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")


def _check_r(r: int, dims: tuple[int, ...]) -> None:
    if r > min(dims):
        raise ValueError(f"r={r} exceeds min dimension {min(dims)}")


def cmd_q(args: argparse.Namespace) -> int:
    res = generic_subrank(args.dims)
    rows = count_rows(res.q, len(args.dims))
    cols = pattern_col_count(args.dims, res.q)
    if args.json:
        doc = {
            "dims": list(args.dims),
            "q": res.q,
            "binding_constraint": res.binding_constraint,
            "root_argument": res.root_argument,
            "rows_at_q": rows,
            "cols_at_q": cols,
        }
        print(json.dumps(doc, indent=2))
    else:
        dims_s = ",".join(str(n) for n in args.dims)
        print(f"Q({dims_s}) = {res.q}")
        print(f"binding constraint: {res.binding_constraint}")
        print(f"pattern at r={res.q}: {rows} rows x {cols} columns")
    return 0


def cmd_certificate(args: argparse.Namespace) -> int:
    report = classify(args.dims, args.r)
    if not report.certificate_regime:
        _check_r(args.r, args.dims)
        raise ValueError(
            f"{report.n_cols} columns < {report.n_rows} rows; "
            f"full row rank is impossible at r={args.r}"
        )
    check_certificate_size(args.r, args.dims)
    with _open_out(args.out or None) as fh:
        pm = build_pattern(args.r, args.dims)
        cert = find_certificate(pm)
        verdict = validate(pm, cert)
        print(f"certificate: degree {cert.degree}, {len(cert.steps)} steps")
        print(f"validation: {'ok' if verdict.ok else 'FAILED'} ({verdict.detail})")
        _write(certificate_doc(cert), fh)
    if args.out:
        print(f"wrote {args.out}")
    return 0 if verdict.ok else 1


def cmd_verify(args: argparse.Namespace) -> int:
    _check_prime(args.prime)
    _check_r(args.r, args.dims)
    check_dense_size(args.r, args.dims)
    pm = build_pattern(args.r, args.dims)
    expected = count_rows(args.r, len(args.dims))
    verdict = verify_generic_rank(pm, expected, args.trials, args.prime, args.seed)
    print(f"pattern: {pm.n_rows} rows x {pm.n_cols} columns, expecting rank {expected}")
    print(verdict.detail)
    print("ok" if verdict.ok else "NOT ok")
    return 0 if verdict.ok else 1


def cmd_dim(args: argparse.Namespace) -> int:
    res = dim_C_r(args.dims, args.r)
    # The oracle runs first, so a run it refuses prints no result.
    if args.oracle:
        _check_prime(args.prime)
        got = subspace_dimension_oracle(args.dims, args.r, args.prime, args.seed)
    print(f"regime: {res.regime}")
    print(f"dim = {res.dim}")
    if not args.oracle:
        return 0
    if got != res.dim:
        print(f"oracle disagrees: formula {res.dim}, oracle {got}", file=sys.stderr)
        return 1
    print(f"oracle agrees: {got}")
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    _check_prime(args.prime)
    if args.max < 1:
        raise ValueError(f"--max must be at least 1, got {args.max}")
    if args.verify:
        # Refuse a too-large row before ranking any, so no verified row is lost.
        for n in range(1, args.max + 1):
            check_dense_size(generic_subrank((n, n, n)).q, (n, n, n))
    header = "n,q,rows,cols"
    if args.verify:
        header += ",certificate_ok,rank_ok"
    lines = [header]
    all_ok = True
    with _open_out(args.out) as fh:
        for n in range(1, args.max + 1):
            q = generic_subrank((n, n, n)).q
            rows = count_rows(q, 3)
            cols = pattern_col_count((n, n, n), q)
            line = f"{n},{q},{rows},{cols}"
            if args.verify:
                pm = build_pattern(q, (n, n, n))
                cert = find_certificate(pm)
                cert_ok = validate(pm, cert).ok
                rank_ok = verify_generic_rank(pm, rows, args.trials, args.prime, args.seed).ok
                all_ok = all_ok and cert_ok and rank_ok
                line += f",{str(cert_ok).lower()},{str(rank_ok).lower()}"
            lines.append(line)
        _write("\n".join(lines) + "\n", fh)
    return 0 if all_ok else 1


def cmd_export(args: argparse.Namespace) -> int:
    _check_r(args.r, args.dims)
    if args.format == "values":
        _check_prime(args.prime)
        check_dense_size(args.r, args.dims)
    else:
        check_export_size(args.r, args.dims)
    with _open_out(args.out) as fh:
        pm = build_pattern(args.r, args.dims)
        if args.format == "json":
            content = pattern_doc(pm)
        elif args.format == "coord":
            content = pattern_to_coordinate_list(pm)
        else:
            mm = instantiate(pm, random_assignment(pm, args.seed, args.prime))
            content = modular_to_coordinate_list(mm)
        _write(content, fh)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subrank",
        description="Constructive generic-subrank certificates for tensors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_r: bool = True) -> None:
        p.add_argument("--dims", type=_parse_dims, required=True,
                       help="comma-separated dimensions, e.g. 6,6,6")
        if with_r:
            p.add_argument("--r", type=int, required=True, help="target subrank r")

    p = sub.add_parser("q", help="closed-form generic subrank")
    add_common(p, with_r=False)
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.set_defaults(func=cmd_q)

    p = sub.add_parser("certificate", help="find and validate a crossing certificate")
    add_common(p)
    p.add_argument("--out", help="write certificate JSON here")
    p.set_defaults(func=cmd_certificate)

    p = sub.add_parser("verify", help="modular rank verification")
    add_common(p)
    p.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int, default=3)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dim", help="dimension of the subrank->=r locus")
    add_common(p)
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the pattern-rank oracle")
    p.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("table", help="CSV table of Q(n) for n = 1..max")
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--verify", action="store_true",
                   help="also run certificate and modular rank checks")
    p.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("export", help="export the pattern or an instantiation")
    add_common(p)
    p.add_argument("--format", choices=["json", "coord", "values"], default="json")
    p.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="write here instead of stdout")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) is None:  # --seed omitted: use SUBRANK_SEED
            args.seed = _default_seed()
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
