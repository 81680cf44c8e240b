"""Command-line front end.

Every command emits a single envelope {command, params, result, elapsed_ms}
as JSON (default), CSV, or text.  Exit codes: 0 success, 1 input error,
2 internal invariant failure (a checked theorem bound or witness failing
would be a bug in this package, not bad input).
"""
from __future__ import annotations

import argparse
import contextlib
import csv as _csv
import io
import json
import sys
import time

from .counting import (CountReport, Progression, count_poly_in_ap,
                       count_powers_in_ap)
from .errors import InternalInvariantError
from .modroots import kth_roots_mod
from .poly import Poly, parse_poly
from .search import DEFAULT_CELL_BUDGET, extremal_search, rudin_count
from .theorem import CSV_COLUMNS, extract_witness, verify_bound_sweep

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract reserves 2 for
    # internal failures, so remap usage errors to 1.
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_set(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="appowers",
                     description="Exact kth-power and polynomial-value counts "
                                 "in arithmetic progressions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("json", "csv", "text"),
                       default="json")

    def add_cell(p):
        which = p.add_mutually_exclusive_group(required=True)
        which.add_argument("--k", type=int)
        which.add_argument("--poly", type=parse_poly, help='coefficients '
                           '"c0,c1,...,ck", lowest degree first; write '
                           '--poly=-1,0,-1 when c0 is negative')
        for flag in ("--a", "--q", "--N"):
            p.add_argument(flag, type=int, required=True)

    p = sub.add_parser("count", help="count kth powers or polynomial values")
    add_cell(p)
    p.add_argument("--solutions", action="store_true")
    p.add_argument("--algorithm", choices=("interval", "residue", "auto"),
                   default="auto")
    add_common(p)

    p = sub.add_parser("roots", help="solve x^k = a (mod m)")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mod", type=int, required=True)
    add_common(p)

    p = sub.add_parser("verify", help="sweep a grid checking the upper bound")
    p.add_argument("--k-set", type=_int_set, required=True)
    p.add_argument("--q-max", type=int, required=True)
    p.add_argument("--a-mode", choices=("window", "residues"),
                   default="window")
    p.add_argument("--N-set", type=_int_set, required=True)
    p.add_argument("--csv", metavar="PATH",
                   help="also write one CSV row per cell to PATH")
    add_common(p)

    p = sub.add_parser("witness", help="extract a divisor-splitting witness")
    add_cell(p)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--t0", type=int, required=True)
    add_common(p)

    p = sub.add_parser("search", help="extremal search / refined-progression check")
    ssub = p.add_subparsers(dest="search_command", required=True)
    pe = ssub.add_parser("extremal")
    pe.add_argument("--k", type=int, required=True)
    pe.add_argument("--N", type=int, required=True)
    pe.add_argument("--q-max", type=int, required=True)
    pe.add_argument("--a-window", type=int, default=0)
    pe.add_argument("--budget", type=int, default=DEFAULT_CELL_BUDGET)
    add_common(pe)
    pr = ssub.add_parser("rudin")
    pr.add_argument("--N", type=int, required=True)
    pr.add_argument("--solutions", action="store_true")
    add_common(pr)
    return parser


def _report_payload(rep: CountReport) -> dict:
    out = {"count_t": rep.count_t, "count_values": rep.count_values}
    if rep.solutions is not None:
        out["solutions"] = [list(s) for s in rep.solutions]
    return out


def _run_count(args) -> dict:
    prog = Progression(args.a, args.q, args.N)
    opts = {"with_solutions": args.solutions, "algorithm": args.algorithm}
    if args.poly is None:
        # not through Poly.monomial: a dense t**k would hold k+1 coefficients
        rep = count_powers_in_ap(args.k, prog, **opts)
    else:
        rep = count_poly_in_ap(args.poly, prog, **opts)
    return _report_payload(rep)


def _run_roots(args) -> dict:
    return {"modulus": args.mod,
            "residues": list(kth_roots_mod(args.a, args.k, args.mod))}


def _write_csv(fh, header, rows) -> None:
    _csv.writer(fh).writerows([header, *rows])


def _run_verify(args) -> dict:
    collect = bool(args.csv) or args.format == "csv"
    # Open the CSV before the sweep, so an unwritable path fails at once.
    with (open(args.csv, "w", newline="") if args.csv
          else contextlib.nullcontext()) as fh:
        report = verify_bound_sweep(args.k_set, args.q_max, args.N_set,
                                    a_mode=args.a_mode, collect_rows=collect)
        if fh is not None:
            _write_csv(fh, CSV_COLUMNS, report.rows)
    payload = report.to_jsonable()
    if args.format == "csv":
        payload["rows"] = report.rows
    return payload


def _run_witness(args) -> dict:
    P = Poly.monomial(args.k) if args.poly is None else args.poly
    prog = Progression(args.a, args.q, args.N)
    w = extract_witness(P, prog, args.t, args.t0)
    return {
        "t": w.t, "t0": w.t0, "q1": w.q1, "q2": w.q2,
        "n1": w.n1, "n2": w.n2, "i": w.i, "i0": w.i0,
        "checks": {
            "q1_q2_product": w.q1 * w.q2 == args.q,
            "q1_divides_step": abs(w.t - w.t0) == w.n1 * w.q1,
            "index_product": w.n1 * w.n2 == abs(w.i - w.i0),
            "product_below_length": w.n1 * w.n2 <= args.N - 1,
        },
    }


def _run_search(args) -> dict:
    if args.search_command == "extremal":
        rec = extremal_search(args.k, args.N, args.q_max,
                              a_window=args.a_window, cell_budget=args.budget)
        return rec.to_jsonable()
    rep = rudin_count(args.N, with_solutions=args.solutions)
    return _report_payload(rep)


_RUNNERS = {
    "count": _run_count,
    "roots": _run_roots,
    "verify": _run_verify,
    "witness": _run_witness,
    "search": _run_search,
}


def _flatten(prefix: str, value, out: dict) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), sub, out)
    else:
        out[prefix] = value


def _emit(envelope: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(envelope, sort_keys=True)
    rows = envelope["result"].pop("rows", None)  # verify's, for csv only
    flat: dict = {}
    _flatten("", envelope, flat)
    keys = sorted(flat)
    if fmt == "text":
        return "\n".join(f"{key} = {flat[key]}" for key in keys)
    buf = io.StringIO()
    if rows is not None:  # per-cell output for verify
        _write_csv(buf, CSV_COLUMNS, rows)
    else:
        _write_csv(buf, keys, [[json.dumps(flat[k]) if isinstance(flat[k], list)
                                else flat[k] for k in keys]])
    return buf.getvalue().rstrip("\n")


def main(argv=None) -> int:
    # Python 3.10.7+ refuses to convert ints of over 4,300 digits to or from
    # str; the CLI promises arbitrary precision, in its flags and its output.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    params = {key: value for key, value in sorted(vars(args).items())
              if key not in ("command", "search_command", "format")}
    if "poly" in params and params["poly"] is not None:
        params["poly"] = list(params["poly"].coeffs)
    start = time.perf_counter()
    try:
        result = _RUNNERS[args.command](args)
    except InternalInvariantError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    command = args.command
    if command == "search":
        command = f"search {args.search_command}"
    envelope = {"command": command, "params": params, "result": result,
                "elapsed_ms": elapsed_ms}
    print(_emit(envelope, args.format))
    return 0


if __name__ == "__main__":
    sys.exit(main())
