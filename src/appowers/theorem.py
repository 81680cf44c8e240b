"""Explicit upper bound for the t-count, divisor-splitting witnesses, and the
sweep that checks the bound cell by cell.

The bound is count_t <= (2k-1) * d(q)**(k-1) * ceil(N**(1/k)); the constant
2k-1 comes from making the inductive accounting explicit, see
docs/bound_constant.md.  Any sweep cell violating it is an implementation
bug, never a property of the input.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .counting import Progression, count_power_cells, count_powers_in_ap
from .errors import (BoundViolationError, CellBudgetError,
                     InternalInvariantError)
from .intkernel import divisor_count, ikth_root_ceil
from .poly import Poly, _synthetic_division, difference_quotient
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
                     sols: tuple[tuple[int, int], ...]) -> None:
    """Check a class's (t, i) solutions, sorted by t, and certify every pair
    through _split, as extract_witness would: one call per t0, with all the
    t < t0 as its partners.

    Each solution costs one synthetic division of P at t0
    (poly._synthetic_division): its last entry is P(t0), which must be term
    i0 of prog, and the others are the difference quotient that _split
    takes.  The t must increase strictly, and a solution is checked before
    any _split call names it.  A pair's certificate depends only on
    (P, q, t, t0), and each t lies in one class a mod q, so certifying each
    class's list once certifies each pair once.
    """
    high = P.coeffs[::-1]
    a, q, N = prog.a, prog.q, prog.N
    for j, (t0, i0) in enumerate(sols):
        Q = _synthetic_division(high, t0)
        if Q.pop() != a + i0 * q or not 1 <= i0 <= N:
            raise InternalInvariantError(
                f"P({t0}) is not term {i0} of {prog}")
        if j:
            if sols[j - 1][0] >= t0:
                raise InternalInvariantError(
                    f"solutions of {prog} are not strictly increasing in t")
            _split(Q, q, N, t0, i0, sols[:j])


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

    The first pass counts every cell with one counting.count_power_cells
    call, from one walk or one table of x**k mod q for the whole (k, q),
    then in increasing (a, N) checks each cell's bound, appends its row and
    keeps each N's largest count_t and count_values with the first a that
    reaches each.  Both ratios grow with the count over a divisor set by N
    alone, so those fold into the report's maxima once, ties going to the
    least a, then the least N.  The second pass witnesses the cells with
    2 <= count_t <= WITNESS_PAIR_CAP, one class a mod q at a time: one
    solution list covers the hull of the class's witnessed cells, and
    _check_witnesses certifies every pair of it, from one synthetic division
    per solution; each such cell then checks that the list has count_t
    solutions with index in its own [1, N], by two bisections of the list's
    sorted indices, which holds the first pass's count against a listing
    made apart from it.  The hull of a class's witnessed cells is at most
    two terms longer than the longest of them, because in window mode the
    cells of a class start within 2q of each other, so a large cell that is
    not witnessed is never listed.
    """
    dk = divisor_count(q) ** (k - 1)
    roots = {N: ikth_root_ceil(N, k) for N in report.N_set}
    bounds = {N: bound_constant(k) * dk * root for N, root in roots.items()}
    # N -> (largest count, first a with it); 0 never beats the maxima
    tops_t = dict.fromkeys(report.N_set, (0, 0))
    tops_v = dict.fromkeys(report.N_set, (0, 0))
    witnessed: dict[int, list[tuple[Progression, int]]] = {}  # by a % q
    grid = [(a, N) for a in _a_values(q, report.a_mode) for N in report.N_set]
    for (a, N), (count_t, count_values) in zip(
            grid, count_power_cells(k, q, grid)):
        if count_t > bounds[N]:
            raise BoundViolationError(
                f"count_t={count_t} exceeds bound {bounds[N]} at "
                f"cell k={k}, q={q}, a={a}, N={N}")
        if count_t > tops_t[N][0]:
            tops_t[N] = (count_t, a)
        if count_values > tops_v[N][0]:
            tops_v[N] = (count_values, a)
        if 2 <= count_t <= WITNESS_PAIR_CAP:
            witnessed.setdefault(a % q, []).append(
                (Progression(a, q, N), count_t))
        if report.rows is not None:
            den = dk * roots[N]
            g = math.gcd(count_t, den)
            report.rows.append((k, q, a, N, count_t, count_values,
                                bounds[N], count_t // g, den // g))
    report.cells += len(grid)
    report.max_ratio_float = max(report.max_ratio_float, *(
        _float_ratio(c, dk, N, k) for N, (c, _) in tops_t.items()))
    report.max_value_ratio_float = max(report.max_value_ratio_float, *(
        _float_ratio(c, 1, N, k) for N, (c, _) in tops_v.items()))
    ratio, a, N = max((Fraction(c, dk * roots[N]), -a, -N)
                      for N, (c, a) in tops_t.items())
    if ratio > report.max_ratio:
        report.max_ratio, report.max_ratio_cell = ratio, (k, q, -a, -N)
    ratio, a, N = max((Fraction(c, roots[N]), -a, -N)
                      for N, (c, a) in tops_v.items())
    if ratio > report.max_value_ratio:
        report.max_value_ratio, report.max_value_ratio_cell = (
            ratio, (k, q, -a, -N))
    P = Poly.monomial(k)
    for cells in witnessed.values():
        a0 = cells[0][0].a  # the least a of the class
        hi = max(prog.hi for prog, _ in cells)
        hull = Progression(a0, q, (hi - a0) // q)
        sols = count_powers_in_ap(k, hull, with_solutions=True).solutions
        _check_witnesses(P, hull, sols)
        index = sorted(i for _, i in sols)
        for prog, count_t in cells:
            shift = (prog.a - a0) // q
            n = (bisect_right(index, shift + prog.N)
                 - bisect_right(index, shift))
            if n != count_t:
                raise InternalInvariantError(
                    f"{n} solutions of {prog} in the list of its class, "
                    f"count_t is {count_t}")
            report.witness_pairs += math.comb(count_t, 2)


def verify_bound_sweep(k_set, q_max: int, N_set, a_mode: str = "window",
                       threads: int = 1,
                       collect_rows: bool = False) -> SweepReport:
    """Check count_t <= theorem_bound on every cell of the grid.

    The bound is checked cell by cell in (k, q, a, N) order, and argmax
    ties go to the lexicographically first cell (see _sweep_task).  A grid
    of more than search.DEFAULT_CELL_BUDGET cells raises CellBudgetError
    before any cell runs, and so does a k or an N below 1 (ValueError).
    The cells of a (k, q) are counted together, by one shared walk where it
    is short and else one table of x**k mod q (counting.count_power_cells);
    a bound violation raises at the first violating cell of its (k, q),
    before any witness of that (k, q) is checked.  Every solution pair of a
    cell with 2 <= count_t <= WITNESS_PAIR_CAP gets its witness checked
    once, as a pair of the one solution list of its class a mod q: see
    _sweep_task.  witness_pairs counts each pair in every such cell that
    contains it.  ``threads`` is accepted and ignored.
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
