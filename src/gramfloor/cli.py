"""Command-line interface: verification runs, extremal objects, bounds tables.

Reports go to standard output (or --out); progress lines go to standard
error, so the two streams never mix.  Exit codes: 0 success, 1 a verified
claim came back false, 2 invalid flags, 3 checkpoint rejection, 130 a scan
stopped by Ctrl-C.  Exact integer matrix entries are serialized as decimal
strings in JSON, since entries grow past what a JSON double can hold
losslessly.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from typing import Optional, Sequence

from .bounds import (
    bounds_table,
    hong_loewy_check,
    smith_determinant_check,
)
from .charpoly import smallest_eigenvalue
from .core import gram, to_dense, y0
from .extremal import (
    sign_pattern_check,
    trace_equality_check,
    y0_inverse_closed,
    z0_inverse_closed,
)
from .inverse import gram_inverse
from .search import (
    DEFAULT_BLOCK_SIZE,
    SEARCH_N_MAX,
    CheckpointError,
    exhaustive_min,
)

_EXTREMAL_N_MAX = 64


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _int_set(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        print(text)
    else:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _str_matrix(entries) -> list[list[str]]:
    return [[str(v) for v in row] for row in entries]


def _text_matrix(name: str, entries) -> str:
    width = max(len(str(v)) for row in entries for v in row)
    lines = [name]
    for row in entries:
        lines.append("  " + " ".join(str(v).rjust(width) for v in row))
    return "\n".join(lines)


# -- subcommands -------------------------------------------------------------


def _run_scan(args: argparse.Namespace, require_unique: bool) -> int:
    if not 1 <= args.n <= SEARCH_N_MAX:
        print(f"error: --n must be in 1..{SEARCH_N_MAX}", file=sys.stderr)
        return 2
    if args.n == SEARCH_N_MAX and args.checkpoint is None:
        print("error: --n 9 requires --checkpoint", file=sys.stderr)
        return 2

    def progress(done: int, total: int) -> None:
        print(f"blocks {done}/{total}", file=sys.stderr)

    try:
        report = exhaustive_min(
            args.n,
            workers=args.workers,
            block_size=args.block_size,
            checkpoint_path=args.checkpoint,
            progress=progress,
        )
    except CheckpointError as exc:
        print(f"checkpoint rejected: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        # exhaustive_min has already saved the finished blocks
        saved = f"; finished blocks saved to {args.checkpoint}" if args.checkpoint else ""
        print(f"scan interrupted{saved}", file=sys.stderr)
        return 130
    if args.format == "text":
        lines = [
            f"n = {report.n}",
            f"matrices scanned = {report.total_scanned}",
            f"minimum eigenvalue = {report.c_n_estimate!r}",
            f"argmin indices = {list(report.argmin_indices)}",
            f"alternating-pattern value = {report.z0_value!r}",
            f"conjecture holds = {report.conjecture_holds}",
            f"unique argmin = {report.unique_argmin}",
            f"elapsed = {report.elapsed:.2f}s over {report.blocks_completed} blocks",
        ]
        _emit("\n".join(lines), args.out)
    else:
        _emit(report.to_json(indent=2), args.out)
    ok = report.conjecture_holds and (report.unique_argmin or not require_unique)
    return 0 if ok else 1


def cmd_verify(args: argparse.Namespace) -> int:
    return _run_scan(args, require_unique=False)


def cmd_uniqueness(args: argparse.Namespace) -> int:
    return _run_scan(args, require_unique=True)


def cmd_extremal(args: argparse.Namespace) -> int:
    if not 1 <= args.n <= _EXTREMAL_N_MAX:
        print(f"error: --n must be in 1..{_EXTREMAL_N_MAX}", file=sys.stderr)
        return 2
    n = args.n
    y = y0(n)
    z = gram(y)
    y_inv = y0_inverse_closed(n)
    z_inv = z0_inverse_closed(n)
    lam = smallest_eigenvalue(z)
    sign_ok = bool(sign_pattern_check(gram_inverse(y)))
    trace_ok = bool(trace_equality_check(n))
    if args.format == "text":
        parts = [
            _text_matrix("Y0", to_dense(y).entries),
            _text_matrix("Y0 inverse", y_inv.entries),
            _text_matrix("Z0", z.entries),
            _text_matrix("Z0 inverse", z_inv.entries),
            f"lambda_min(Z0) = {lam!r}",
            f"sign pattern check = {sign_ok}",
            f"trace equality check = {trace_ok}",
        ]
        _emit("\n".join(parts), args.out)
    else:
        payload = {
            "n": n,
            "y0": _str_matrix(to_dense(y).entries),
            "y0_inverse": _str_matrix(y_inv.entries),
            "z0": _str_matrix(z.entries),
            "z0_inverse": _str_matrix(z_inv.entries),
            "lambda_min": lam,
            "sign_pattern_ok": sign_ok,
            "trace_equality_ok": trace_ok,
        }
        _emit(json.dumps(payload, indent=2), args.out)
    return 0 if sign_ok and trace_ok else 1


def cmd_bounds(args: argparse.Namespace) -> int:
    if args.n_max < 2:
        print("error: --n-max must be at least 2", file=sys.stderr)
        return 2
    rows = bounds_table(args.n_max)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["n", "c_n", "mattila_general", "mattila_parity", "holds"])
        for r in rows:
            writer.writerow([r.n, repr(r.c_n), repr(r.mattila_general),
                             repr(r.mattila_parity), r.holds])
        _emit(buf.getvalue().rstrip("\n"), args.out)
    elif args.format == "text":
        lines = [f"{'n':>3} {'c_n':>22} {'general':>13} {'parity':>13} holds"]
        for r in rows:
            lines.append(
                f"{r.n:>3} {r.c_n:>22.15g} {r.mattila_general:>13.6g} "
                f"{r.mattila_parity:>13.6g} {r.holds}"
            )
        _emit("\n".join(lines), args.out)
    else:
        payload = [
            {
                "n": r.n,
                "c_n": r.c_n,
                "mattila_general": r.mattila_general,
                "mattila_parity": r.mattila_parity,
                "holds": r.holds,
            }
            for r in rows
        ]
        _emit(json.dumps(payload, indent=2), args.out)
    return 0 if all(r.holds for r in rows) else 1


def cmd_gcd_check(args: argparse.Namespace) -> int:
    eps = int(args.eps) if float(args.eps).is_integer() else args.eps
    try:
        hl = hong_loewy_check(args.set, eps)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload: dict = {
        "set": list(args.set),
        "eps": eps,
        "hong_loewy": {
            "lambda_min": hl.lambda_min,
            "bound": hl.bound,
            "holds": hl.holds,
        },
    }
    ok = hl.holds
    try:
        sm = smith_determinant_check(args.set)
        payload["smith"] = {
            "determinant": str(sm.determinant),
            "phi_product": str(sm.phi_product),
            "equal": sm.equal,
        }
        ok = ok and sm.equal
    except ValueError as exc:
        # the eigenvalue bound needs no factor closure, so this is a note,
        # not a failure
        payload["smith"] = {"skipped": str(exc)}
    if args.format == "text":
        lines = [
            f"set = {list(args.set)}, eps = {eps}",
            f"least eigenvalue = {hl.lambda_min!r}",
            f"totient bound = {hl.bound!r}",
            f"bound holds = {hl.holds}",
        ]
        sm_part = payload["smith"]
        if "skipped" in sm_part:
            lines.append(f"determinant identity skipped: {sm_part['skipped']}")
        else:
            lines.append(
                f"determinant = {sm_part['determinant']} vs phi product = "
                f"{sm_part['phi_product']}, equal = {sm_part['equal']}"
            )
        _emit("\n".join(lines), args.out)
    else:
        _emit(json.dumps(payload, indent=2), args.out)
    return 0 if ok else 1


# -- parser ------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    sub.add_argument("--format", choices=formats, default="json",
                     help="report format (default json)")
    sub.add_argument("--out", default=None, metavar="PATH",
                     help="write the report to a file instead of stdout")


def _add_scan_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=_positive_int, required=True,
                     help=f"matrix size, 1..{SEARCH_N_MAX}")
    sub.add_argument("--workers", type=_positive_int, default=os.cpu_count() or 1,
                     help="worker processes (default: CPU count)")
    sub.add_argument("--block-size", type=_positive_int, default=DEFAULT_BLOCK_SIZE,
                     help="indices per scheduling block (default 2^20)")
    sub.add_argument("--checkpoint", default=None, metavar="PATH",
                     help="checkpoint file to create or resume from")
    _add_common(sub, ("json", "text"))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gramfloor",
        description="Exhaustive and exact checks on the least Gram eigenvalue "
                    "of unit lower triangular (0,1)-matrices.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("verify", help="exhaustively verify the floor at size n")
    _add_scan_flags(p)
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("uniqueness",
                        help="exhaustively verify the minimizer is unique")
    _add_scan_flags(p)
    p.set_defaults(func=cmd_uniqueness)

    p = subs.add_parser("extremal",
                        help="emit the alternating pattern and its exact inverses")
    p.add_argument("--n", type=_positive_int, required=True,
                   help=f"matrix size, 1..{_EXTREMAL_N_MAX}")
    _add_common(p, ("json", "text"))
    p.set_defaults(func=cmd_extremal)

    p = subs.add_parser("bounds", help="table of the floor against its lower bounds")
    p.add_argument("--n-max", type=_positive_int, required=True,
                   help="largest size in the table (>= 2)")
    _add_common(p, ("json", "csv", "text"))
    p.set_defaults(func=cmd_bounds)

    p = subs.add_parser("gcd-check",
                        help="eigenvalue bound and determinant identity for a "
                             "power GCD matrix")
    p.add_argument("--set", type=_int_set, required=True, metavar="A,B,C",
                   help="comma-separated distinct positive integers")
    p.add_argument("--eps", type=_positive_float, default=1.0,
                   help="gcd power exponent (default 1)")
    _add_common(p, ("json", "text"))
    p.set_defaults(func=cmd_gcd_check)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
