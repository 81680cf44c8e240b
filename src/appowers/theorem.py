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


def _split(Q: tuple[int, ...], q: int, N: int, t: int, t0: int, i: int,
           i0: int) -> tuple[int, int, int, int]:
    """Check the certificate of one solution pair; return (q1, q2, n1, n2).

    Q holds the coefficients of the difference quotient at t0, highest
    first, and i, i0 are the indices of P(t), P(t0) in the progression.
    """
    if t == t0:
        raise ValueError("witness extraction needs two distinct solutions")
    q1 = math.gcd(q, abs(t - t0))
    q2 = q // q1
    n1 = abs(t - t0) // q1
    Qt = 0
    for c in Q:
        Qt = Qt * t + c
    if Qt % q2:
        raise InternalInvariantError(
            f"q2={q2} does not divide Q(t)={Qt} for t={t}, t0={t0}, "
            f"q={q}, N={N}")
    n2 = abs(Qt) // q2
    if n1 * n2 != abs(i - i0) or abs(i - i0) > N - 1:
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
    q1, q2, n1, n2 = _split(Q, prog.q, prog.N, t, t0, i, i0)
    return Witness(t=t, t0=t0, q1=q1, q2=q2, n1=n1, n2=n2, i=i, i0=i0)


def _check_witnesses(P: Poly, prog: Progression,
                     sols: tuple[tuple[int, int], ...]) -> int:
    """Check every pair of one cell's sorted (t, i) solutions, exactly as
    extract_witness would; return the number of pairs.

    Each (t, i) is checked against P once and each difference quotient is
    built once per t0; pairs run in itertools.combinations order, t the
    earlier solution and t0 the later one.
    """
    for t, i in sols:
        if prog.index_of(P(t)) != i:
            raise InternalInvariantError(
                f"P({t}) is not term {i} of {prog}")
    Qs = [difference_quotient(P, t0).coeffs[::-1] for t0, _ in sols[1:]]
    q, N = prog.q, prog.N
    for j, (t, i) in enumerate(sols):
        for Q, (t0, i0) in zip(Qs[j:], sols[j + 1:]):
            _split(Q, q, N, t, t0, i, i0)
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
    """Check the cells of one (k, q) pair, folding them into report."""
    dk = divisor_count(q) ** (k - 1)
    P = Poly.monomial(k)
    for a in _a_values(q, report.a_mode):
        for N in report.N_set:
            prog = Progression(a, q, N)
            rep = count_powers_in_ap(k, prog)
            report.cells += 1
            root = ikth_root_ceil(N, k)
            bound = bound_constant(k) * dk * root
            if rep.count_t > bound:
                raise BoundViolationError(
                    f"count_t={rep.count_t} exceeds bound {bound} at "
                    f"cell k={k}, q={q}, a={a}, N={N}")
            cell = (k, q, a, N)
            ratio = Fraction(rep.count_t, dk * root)
            if ratio > report.max_ratio:
                report.max_ratio, report.max_ratio_cell = ratio, cell
            report.max_ratio_float = max(report.max_ratio_float,
                                         _float_ratio(rep.count_t, dk, N, k))
            vratio = Fraction(rep.count_values, root)
            if vratio > report.max_value_ratio:
                report.max_value_ratio, report.max_value_ratio_cell = vratio, cell
            report.max_value_ratio_float = max(
                report.max_value_ratio_float,
                _float_ratio(rep.count_values, 1, N, k))
            if 2 <= rep.count_t <= WITNESS_PAIR_CAP:
                sols = count_powers_in_ap(k, prog, with_solutions=True).solutions
                report.witness_pairs += _check_witnesses(P, prog, sols)
            if report.rows is not None:
                report.rows.append((k, q, a, N, rep.count_t, rep.count_values,
                                    bound, ratio.numerator, ratio.denominator))


def verify_bound_sweep(k_set, q_max: int, N_set, a_mode: str = "window",
                       threads: int = 1,
                       collect_rows: bool = False) -> SweepReport:
    """Check count_t <= theorem_bound on every cell of the grid.

    Cells are visited serially in (k, q, a, N) order, so argmax ties go to
    the lexicographically first cell.  A grid of more than
    search.DEFAULT_CELL_BUDGET cells raises CellBudgetError before any cell
    runs; a bound violation or witness failure raises immediately.  Every
    solution pair of a cell with 2 <= count_t <= WITNESS_PAIR_CAP gets its
    witness checked.  ``threads`` is accepted and ignored.
    """
    k_set = tuple(sorted(set(int(k) for k in k_set)))
    N_set = tuple(sorted(set(int(N) for N in N_set)))
    if not k_set or not N_set or q_max < 1:
        raise ValueError("empty sweep grid")
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
