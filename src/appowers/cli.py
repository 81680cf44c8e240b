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

from .counting import (DEFAULT_T_CAP, CountReport, Progression,
                       count_poly_in_ap)
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


def _int(text: str) -> int:
    """Arbitrary-precision integer; scientific notation is rejected."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")


def _int_set(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
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

    p = sub.add_parser("count", help="count kth powers or polynomial values")
    p.add_argument("--k", type=_int)
    p.add_argument("--poly", type=parse_poly,
                   help='coefficients "c0,c1,...,ck", lowest degree first')
    p.add_argument("--a", type=_int, required=True)
    p.add_argument("--q", type=_int, required=True)
    p.add_argument("--N", type=_int, required=True)
    p.add_argument("--solutions", action="store_true")
    p.add_argument("--algorithm", choices=("interval", "residue", "auto"),
                   default="auto")
    p.add_argument("--t-cap", type=_int, default=DEFAULT_T_CAP)
    add_common(p)

    p = sub.add_parser("roots", help="solve x^k = a (mod m)")
    p.add_argument("--a", type=_int, required=True)
    p.add_argument("--k", type=_int, required=True)
    p.add_argument("--mod", type=_int, required=True)
    add_common(p)

    p = sub.add_parser("verify", help="sweep a grid checking the upper bound")
    p.add_argument("--k-set", type=_int_set, required=True)
    p.add_argument("--q-max", type=_int, required=True)
    p.add_argument("--a-mode", choices=("window", "residues"),
                   default="window")
    p.add_argument("--N-set", type=_int_set, required=True)
    p.add_argument("--csv", metavar="PATH",
                   help="also write one CSV row per cell to PATH")
    add_common(p)

    p = sub.add_parser("witness", help="extract a divisor-splitting witness")
    p.add_argument("--k", type=_int)
    p.add_argument("--poly", type=parse_poly)
    p.add_argument("--a", type=_int, required=True)
    p.add_argument("--q", type=_int, required=True)
    p.add_argument("--N", type=_int, required=True)
    p.add_argument("--t", type=_int, required=True)
    p.add_argument("--t0", type=_int, required=True)
    add_common(p)

    p = sub.add_parser("search", help="extremal search / refined-progression check")
    ssub = p.add_subparsers(dest="search_command", required=True)
    pe = ssub.add_parser("extremal")
    pe.add_argument("--k", type=_int, required=True)
    pe.add_argument("--N", type=_int, required=True)
    pe.add_argument("--q-max", type=_int, required=True)
    pe.add_argument("--a-window", type=_int, default=0)
    pe.add_argument("--budget", type=_int, default=DEFAULT_CELL_BUDGET)
    add_common(pe)
    pr = ssub.add_parser("rudin")
    pr.add_argument("--N", type=_int, required=True)
    pr.add_argument("--solutions", action="store_true")
    add_common(pr)
    return parser


def _resolve_poly(args) -> Poly:
    if (args.k is None) == (args.poly is None):
        raise ValueError("exactly one of --k and --poly is required")
    return args.poly if args.poly is not None else Poly.monomial(args.k)


def _report_payload(rep: CountReport) -> dict:
    out = {"count_t": rep.count_t, "count_values": rep.count_values}
    if rep.solutions is not None:
        out["solutions"] = [list(s) for s in rep.solutions]
    return out


def _run_count(args) -> dict:
    rep = count_poly_in_ap(_resolve_poly(args),
                           Progression(args.a, args.q, args.N),
                           t_cap=args.t_cap, with_solutions=args.solutions,
                           algorithm=args.algorithm)
    return _report_payload(rep)


def _run_roots(args) -> dict:
    rs = kth_roots_mod(args.a, args.k, args.mod)
    return {"modulus": rs.modulus, "residues": list(rs.residues)}


def _run_verify(args) -> dict:
    collect = bool(args.csv) or args.format == "csv"
    # Open the CSV before the sweep, so an unwritable path fails at once.
    with (open(args.csv, "w", newline="") if args.csv
          else contextlib.nullcontext()) as fh:
        report = verify_bound_sweep(args.k_set, args.q_max, args.N_set,
                                    a_mode=args.a_mode, collect_rows=collect)
        if fh is not None:
            w = _csv.writer(fh)
            w.writerow(CSV_COLUMNS)
            w.writerows(report.rows)
    payload = report.to_jsonable()
    if args.format == "csv":
        payload["rows"] = report.rows
    return payload


def _run_witness(args) -> dict:
    P = _resolve_poly(args)
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
    if fmt == "csv":
        rows = envelope["result"].pop("rows", None)
        buf = io.StringIO()
        w = _csv.writer(buf)
        if rows is not None:  # per-cell output for verify
            w.writerow(CSV_COLUMNS)
            w.writerows(rows)
        else:
            flat: dict = {}
            _flatten("", envelope, flat)
            keys = sorted(flat)
            w.writerow(keys)
            w.writerow([json.dumps(flat[k]) if isinstance(flat[k], list)
                        else flat[k] for k in keys])
        return buf.getvalue().rstrip("\n")
    flat = {}
    _flatten("", envelope, flat)
    return "\n".join(f"{key} = {flat[key]}" for key in sorted(flat))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    params = {key: value for key, value in sorted(vars(args).items())
              if key not in ("command", "search_command", "format")}
    if "poly" in params and params["poly"] is not None:
        params["poly"] = list(params["poly"].coeffs)
    for key in ("k_set", "N_set"):
        if key in params:
            params[key] = list(params[key])
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
