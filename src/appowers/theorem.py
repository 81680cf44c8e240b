"""Explicit upper bound for the t-count, divisor-splitting witnesses, and the
sweep that checks the bound cell by cell.

The bound is count_t <= (2k-1) * d(q)**(k-1) * ceil(N**(1/k)); the constant
2k-1 comes from making the inductive accounting explicit, see
docs/bound_constant.md.  Any sweep cell violating it is an implementation
bug, never a property of the input.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .counting import Progression, count_powers_in_ap
from .errors import (BoundViolationError, CellBudgetError,
                     InternalInvariantError)
from .intkernel import divisor_count, ikth_root_ceil
from .poly import Poly, difference_quotient
from .search import DEFAULT_CELL_BUDGET

__all__ = [
    "Witness",
    "bound_constant",
    "theorem_bound",
    "extract_witness",
    "SweepReport",
    "verify_bound_sweep",
    "WITNESS_PAIR_CAP",
]

# Sweeps witness only cells with 2 <= count_t <= this: C(64, 2) pairs at most.
WITNESS_PAIR_CAP = 64


def bound_constant(k: int) -> int:
    """Explicit constant 2k - 1 (1 for linear, +2 per induction level)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return 2 * k - 1


def theorem_bound(k: int, q: int, N: int) -> int:
    """(2k-1) * d(q)**(k-1) * ceil(N**(1/k)), all exact."""
    if q < 1 or N < 1:
        raise ValueError("q and N must be >= 1")
    return bound_constant(k) * divisor_count(q) ** (k - 1) * ikth_root_ceil(N, k)


@dataclass(frozen=True)
class Witness:
    """Divisor-splitting certificate for a solution pair (t, t0).

    q1*q2 = q, |t - t0| = n1*q1, |Q(t)| = n2*q2 for the difference quotient
    Q, and n1*n2 = |i - i0| <= N - 1.
    """

    t: int
    t0: int
    q1: int
    q2: int
    n1: int
    n2: int
    i: int
    i0: int


def _split(Q: tuple[int, ...], q: int, N: int, t0: int, i0: int,
           partners) -> tuple[int, int, int, int]:
    """Check the certificate of each pair (t, t0) for (t, i) in partners,
    which must not be empty; return the last pair's (q1, q2, n1, n2).

    Q holds the coefficients of the difference quotient at t0, highest
    first, and i, i0 are the indices of P(t), P(t0) in the progression.
    Per pair: q1 = gcd(q, |t - t0|), q2 = q/q1 must divide Q(t) (Horner),
    and n1*n2 = |i - i0| <= N - 1 with n1 = |t - t0|/q1, n2 = |Q(t)|/q2.
    """
    gcd = math.gcd
    for t, i in partners:
        d = t - t0 if t > t0 else t0 - t
        if not d:
            raise ValueError("witness extraction needs two distinct solutions")
        q1 = gcd(q, d)
        q2 = q // q1
        Qt = 0
        for c in Q:
            Qt = Qt * t + c
        if Qt % q2:
            raise InternalInvariantError(
                f"q2={q2} does not divide Q(t)={Qt} for t={t}, t0={t0}, "
                f"q={q}, N={N}")
        n1 = d // q1
        n2 = (Qt if Qt >= 0 else -Qt) // q2
        di = i - i0 if i > i0 else i0 - i
        if n1 * n2 != di or di >= N:
            raise InternalInvariantError(
                f"witness product check failed: n1={n1}, n2={n2}, "
                f"i={i}, i0={i0}, N={N}")
    return q1, q2, n1, n2


def extract_witness(P: Poly, prog: Progression, t: int, t0: int) -> Witness:
    """Canonical witness with q1 = gcd(q, |t - t0|).

    That choice makes q2 = q/q1 coprime to (t - t0)/q1, so q2 | Q(t) follows
    from q | (t - t0) * Q(t); the divisibility is still verified exactly and
    a failure raises InternalInvariantError (it would falsify the
    implementation, not the input).
    """
    i = prog.index_of(P(t))
    i0 = prog.index_of(P(t0))
    if i is None or i0 is None:
        raise ValueError("both P(t) and P(t0) must lie in the progression")
    Q = difference_quotient(P, t0).coeffs[::-1]
    q1, q2, n1, n2 = _split(Q, prog.q, prog.N, t0, i0, ((t, i),))
    return Witness(t=t, t0=t0, q1=q1, q2=q2, n1=n1, n2=n2, i=i, i0=i0)


def _check_witnesses(P: Poly, prog: Progression,
                     sols: tuple[tuple[int, int], ...], tops: dict[int, int],
                     quotients: dict[int, tuple[int, ...]]) -> int:
    """Check one cell's (t, i) solutions, sorted by t, and certify through
    _split, as extract_witness would, each pair that no earlier witnessed
    cell of the same (P, q) certified; return the number of pairs.  The
    pairs go to _split one t0 at a time, with all of that t0's partners.

    Every (t, i) is checked against P, and the t must increase strictly.
    Then i - i0 = (P(t) - P(t0)) / q and |i - i0| <= N - 1 hold whatever a
    is, so a pair's certificate depends only on (P, q, t, t0), and a pair
    that lies in an earlier witnessed cell of its class a mod q has nothing
    left to check.  Cells must arrive in nondecreasing a: then every earlier
    cell of the class starts at or below this one, and a pair lies in one of
    them iff both its values are at most ``tops[a % q]``, the largest upper
    end a+N*q among them, which this call then raises to this cell's.
    ``quotients`` holds the difference quotient at each t0, built on first
    use; the partners t of a t0 are the t < t0 still to certify.
    """
    for t, i in sols:
        if prog.index_of(P(t)) != i:
            raise InternalInvariantError(
                f"P({t}) is not term {i} of {prog}")
    if any(t >= u for (t, _), (u, _) in zip(sols, sols[1:])):
        raise InternalInvariantError(
            f"solutions of {prog} are not strictly increasing in t")
    a, q, N = prog.a, prog.q, prog.N
    top = tops.get(a % q, a)
    seen = (top - a) // q  # terms i <= seen were in an earlier cell
    fresh = []  # the solutions so far with i > seen
    for j, (t0, i0) in enumerate(sols):
        new = i0 > seen
        partners = sols[:j] if new else fresh
        if partners:
            Q = quotients.get(t0)
            if Q is None:
                Q = quotients[t0] = difference_quotient(P, t0).coeffs[::-1]
            _split(Q, q, N, t0, i0, partners)
        if new:
            fresh.append((t0, i0))
    tops[a % q] = max(top, a + N * q)
    return math.comb(len(sols), 2)


@dataclass
class SweepReport:
    """Result of a bound-verification sweep over a (k, q, a, N) grid."""

    k_set: tuple[int, ...]
    q_max: int
    a_mode: str
    N_set: tuple[int, ...]
    cells: int = 0
    violations: int = 0
    witness_pairs: int = 0
    # max of count_t / (d(q)**(k-1) * ceil(N**(1/k))), exact
    max_ratio: Fraction = Fraction(0)
    max_ratio_cell: tuple[int, int, int, int] | None = None
    max_ratio_float: float = 0.0
    # max of count_values / ceil(N**(1/k)) (conjectured-growth diagnostic)
    max_value_ratio: Fraction = Fraction(0)
    max_value_ratio_cell: tuple[int, int, int, int] | None = None
    max_value_ratio_float: float = 0.0
    rows: list[tuple] | None = None

    def to_jsonable(self) -> dict:
        return {
            "k_set": list(self.k_set),
            "q_max": self.q_max,
            "a_mode": self.a_mode,
            "N_set": list(self.N_set),
            "cells": self.cells,
            "violations": self.violations,
            "witness_pairs": self.witness_pairs,
            "max_ratio": [self.max_ratio.numerator, self.max_ratio.denominator],
            "max_ratio_cell": list(self.max_ratio_cell) if self.max_ratio_cell else None,
            "max_ratio_float": self.max_ratio_float,
            "max_value_ratio": [self.max_value_ratio.numerator,
                                self.max_value_ratio.denominator],
            "max_value_ratio_cell": (list(self.max_value_ratio_cell)
                                     if self.max_value_ratio_cell else None),
            "max_value_ratio_float": self.max_value_ratio_float,
        }


CSV_COLUMNS = ("k", "q", "a", "N", "count_t", "count_values", "bound",
               "ratio_num", "ratio_den")


def _a_values(q: int, a_mode: str) -> range:
    return range(-q, q + 1) if a_mode == "window" else range(q)


def _float_ratio(c: int, d: int, N: int, k: int) -> float:
    """c / (d * N**(1/k)) as a float, through logarithms when N is past
    float range (the direct form raises OverflowError there)."""
    try:
        return c / (d * N ** (1.0 / k))
    except OverflowError:
        return math.exp(math.log(c) - math.log(d) - math.log(N) / k) if c else 0.0


def _sweep_task(report: SweepReport, k: int, q: int) -> None:
    """Check the cells of one (k, q) pair, folding them into report.

    The first pass counts every cell in increasing (a, N), checks its bound,
    folds its ratios and appends its row.  The ratios are compared with the
    running maxima by cross-multiplication; a Fraction is built only for a
    new maximum.  The second pass witnesses the cells with
    2 <= count_t <= WITNESS_PAIR_CAP, one class a mod q at a time: one
    solution list covers the hull of the class's witnessed cells, and each
    such cell, in increasing (a, N) as _check_witnesses needs, gets the
    solutions whose index falls in its own [1, N].  The hull of a class's
    witnessed cells is at most two terms longer than the longest of them,
    because in window mode the cells of a class start within 2q of each
    other, so a large cell that is not witnessed is never listed.
    """
    dk = divisor_count(q) ** (k - 1)
    roots = {N: ikth_root_ceil(N, k) for N in report.N_set}
    witnessed: dict[int, list[tuple[Progression, int]]] = {}  # by a % q
    for a in _a_values(q, report.a_mode):
        for N in report.N_set:
            prog = Progression(a, q, N)
            rep = count_powers_in_ap(k, prog)
            report.cells += 1
            root = roots[N]
            den = dk * root
            bound = bound_constant(k) * den
            if rep.count_t > bound:
                raise BoundViolationError(
                    f"count_t={rep.count_t} exceeds bound {bound} at "
                    f"cell k={k}, q={q}, a={a}, N={N}")
            cell = (k, q, a, N)
            best = report.max_ratio
            if rep.count_t * best.denominator > best.numerator * den:
                report.max_ratio = Fraction(rep.count_t, den)
                report.max_ratio_cell = cell
            report.max_ratio_float = max(report.max_ratio_float,
                                         _float_ratio(rep.count_t, dk, N, k))
            best = report.max_value_ratio
            if rep.count_values * best.denominator > best.numerator * root:
                report.max_value_ratio = Fraction(rep.count_values, root)
                report.max_value_ratio_cell = cell
            report.max_value_ratio_float = max(
                report.max_value_ratio_float,
                _float_ratio(rep.count_values, 1, N, k))
            if 2 <= rep.count_t <= WITNESS_PAIR_CAP:
                witnessed.setdefault(a % q, []).append((prog, rep.count_t))
            if report.rows is not None:
                g = math.gcd(rep.count_t, den)
                report.rows.append((k, q, a, N, rep.count_t, rep.count_values,
                                    bound, rep.count_t // g, den // g))
    P = Poly.monomial(k)
    tops: dict[int, int] = {}
    quotients: dict[int, tuple[int, ...]] = {}
    for cells in witnessed.values():
        a0 = cells[0][0].a  # the least a of the class
        hi = max(prog.hi for prog, _ in cells)
        sols = count_powers_in_ap(k, Progression(a0, q, (hi - a0) // q),
                                  with_solutions=True).solutions
        for prog, count_t in cells:
            shift = (prog.a - a0) // q
            mine = tuple((t, i - shift) for t, i in sols
                         if shift < i <= shift + prog.N)
            if len(mine) != count_t:
                raise InternalInvariantError(
                    f"{len(mine)} solutions of {prog} in the list of its "
                    f"class, count_t is {count_t}")
            report.witness_pairs += _check_witnesses(P, prog, mine, tops,
                                                     quotients)


def verify_bound_sweep(k_set, q_max: int, N_set, a_mode: str = "window",
                       threads: int = 1,
                       collect_rows: bool = False) -> SweepReport:
    """Check count_t <= theorem_bound on every cell of the grid.

    Cells are visited serially in (k, q, a, N) order, so argmax ties go to
    the lexicographically first cell.  A grid of more than
    search.DEFAULT_CELL_BUDGET cells raises CellBudgetError before any cell
    runs, and so does a k or an N below 1 (ValueError).  A bound violation
    raises as soon as its cell is counted; the witnesses of a (k, q) are
    checked after all its cells are counted (see _sweep_task), so a witness
    failure raises after any bound violation of the same (k, q).  Every
    solution pair of a cell with 2 <= count_t <= WITNESS_PAIR_CAP gets its
    witness checked, once per (k, q): see _check_witnesses.  witness_pairs
    counts each pair in every such cell that contains it.  ``threads`` is
    accepted and ignored.
    """
    k_set = tuple(sorted(set(int(k) for k in k_set)))
    N_set = tuple(sorted(set(int(N) for N in N_set)))
    if not k_set or not N_set or q_max < 1:
        raise ValueError("empty sweep grid")
    if k_set[0] < 1:
        raise ValueError(f"k_set entries must be >= 1, got {k_set[0]}")
    if N_set[0] < 1:
        raise ValueError(f"N_set entries must be >= 1, got {N_set[0]}")
    if a_mode == "window":  # sum of 2q + 1 over q <= q_max
        per_k_N = q_max * (q_max + 2)
    elif a_mode == "residues":
        per_k_N = q_max * (q_max + 1) // 2
    else:
        raise ValueError(f"unknown a_mode {a_mode!r}")
    total = len(k_set) * len(N_set) * per_k_N
    if total > DEFAULT_CELL_BUDGET:
        raise CellBudgetError(f"sweep would evaluate {total} cells, "
                              f"budget is {DEFAULT_CELL_BUDGET}")
    report = SweepReport(k_set=k_set, q_max=q_max, a_mode=a_mode, N_set=N_set,
                         rows=[] if collect_rows else None)
    for k in k_set:
        for q in range(1, q_max + 1):
            _sweep_task(report, k, q)
    return report
