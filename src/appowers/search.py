"""Bounded extremal search over (q, a) cells and the {24n+1} progression checker.

The supremum over offsets is genuinely unbounded, but the count depends on a
only through a mod q and the interval position, so the search sweeps residues
r in [0, q) plus an optional window of whole-step shifts s, i.e.
a = r + s*q with s in [-a_window, a_window].  A q is first bounded by the
most roots any class mod q has, from one sieve that factors no q
(modroots.max_root_counts), times the most t one root can have in a window
that the q = 1 and q = q_max hulls bound, so no root of q's own is taken;
a q whose largest class cannot reach the best count, by that bound or then
by its own window, is skipped, neither tabled nor walked.  Each other q's
cells are counted by counting._power_classes, from one shared walk of t**k
or, where that walk would be longer than q, from one table of x**k mod q;
neither lifts a root or combines roots by the CRT.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import counting
from .counting import (CountReport, Progression, _power_classes,
                       count_powers_in_ap)
from .errors import CellBudgetError
from .modroots import max_root_counts

__all__ = ["SearchRecord", "extremal_search", "rudin_count",
           "rudin_progression"]

RUDIN_STEP = 24
DEFAULT_CELL_BUDGET = 2_000_000


@dataclass(frozen=True)
class SearchRecord:
    """Best value count found over the searched slice of (q, a) cells."""

    k: int
    N: int
    q_max: int
    a_window: int
    best_count_values: int
    best_cells: tuple[tuple[int, int], ...]  # all (q, a) attaining the best
    cells_evaluated: int

    def to_jsonable(self) -> dict:
        return {
            "k": self.k,
            "N": self.N,
            "q_max": self.q_max,
            "a_window": self.a_window,
            "best_count_values": self.best_count_values,
            "best_cells": [list(c) for c in self.best_cells],
            "cells_evaluated": self.cells_evaluated,
        }


def extremal_search(k: int, N: int, q_max: int, a_window: int = 0,
                    threads: int = 1,
                    cell_budget: int = DEFAULT_CELL_BUDGET) -> SearchRecord:
    """Exact maximum of count_values over the parametrized cell grid, by
    branch and bound, with every tying cell, sorted by (q, a).

    Each q's grid lies in one hull, whose counted window [A, B] of t
    (intkernel.kth_power_t_window, called through counting, where
    perfbench's tracer wraps that layer) serves all of its cells.
    counting._power_classes walks a window of at most q t, listing the kth
    powers there by class mod q; a longer window costs more than q pow
    calls, so one table of x**k mod q for x in [0, q) lists every class's
    roots instead.  A cell a = r + s*q holds only values of class r in the
    hull, so a class with fewer t in [A, B] than the best count so far is
    skipped whole.  Before that, a q whose largest class (one sieve,
    max_root_counts(k, q_max), bounds every q and factors none) times the
    most t one member has in [A, B] is below the best is skipped: it is
    neither tabled nor walked, so its table is never refused by the walk
    budget, and its cells cannot reach or tie the best.  That test first
    runs on a wider window, with no root of q's own: the hull's ends,
    q(1 - a_window) and q(1 + a_window + N) - 1, are monotone in q, so
    every [A, B] lies in [min(A_1, A_qmax), B_qmax], from the windows of
    the q = 1 and q = q_max hulls.  cells_evaluated
    is the grid's size.  Exceeds the cell budget -> CellBudgetError before
    the sieve or any evaluation.  ``threads`` is accepted and ignored.
    """
    if k < 2:
        raise ValueError(f"extremal search needs k >= 2, got {k}")
    if N < 1 or q_max < 1 or a_window < 0:
        raise ValueError("N, q_max must be >= 1 and a_window >= 0")
    total = (2 * a_window + 1) * (q_max * (q_max + 1) // 2)
    if total > cell_budget:
        raise CellBudgetError(
            f"search would evaluate {total} cells, budget is {cell_budget}")
    bounds = max_root_counts(k, q_max)
    # the hull's ends are monotone in q, so every q's window [A, B] lies in
    # [min(A_1, A_qmax), B_qmax], the ends of the q = 1 and q_max windows;
    # the loop takes q = 1's window again, and q_max's if it is not skipped
    A1, _ = counting.kth_power_t_window(k, 1 - a_window, a_window + N)
    Am, Bm = counting.kth_power_t_window(k, q_max * (1 - a_window),
                                         q_max * (1 + a_window + N) - 1)
    span = Bm - min(A1, Am)
    best = -1
    cells: list[tuple[int, int]] = []
    for q in range(1, q_max + 1):
        # span // q + 1 >= most below, so this skips a q with no root taken
        if bounds[q] * (span // q + 1) < best:
            continue
        A, B = counting.kth_power_t_window(k, q - a_window * q,
                                           q - 1 + a_window * q + N * q)
        # no member has more than `most` t in [A, B] (one, on a walk; none,
        # in an empty window), and no class more than bounds[q] members, so
        # a q or a class whose members times `most` is below the best is
        # skipped before it is tabled or in_window counts it
        most = (B - A) // q + 1
        if bounds[q] * most < best:
            continue
        classes, in_window, count = _power_classes(k, q, A, B, q)
        # A class with no value in the hull, or no root mod q, is not listed:
        # its cells count 0, and the cell (1, 0), whose terms 1..N hold
        # 1 = 1**k, counts at least 1.
        for r, members in classes.items():
            # each cell's count <= in_window < best <= the final best
            if len(members) * most < best or in_window(members) < best:
                continue
            for a in range(r - a_window * q, r + a_window * q + 1, q):
                cv = count(members, a + q, a + N * q)
                if cv > best:
                    best, cells = cv, [(q, a)]
                elif cv == best:
                    cells.append((q, a))
    cells.sort()
    return SearchRecord(k=k, N=N, q_max=q_max, a_window=a_window,
                        best_count_values=best, best_cells=tuple(cells),
                        cells_evaluated=total)


def rudin_progression(N: int) -> Progression:
    """The progression whose value set is {24n+1 : 0 <= n <= N-1}.

    Our terms are a + i*q for i in [1, N], so a = 1 - q places the first
    term at 1.
    """
    return Progression(1 - RUDIN_STEP, RUDIN_STEP, N)


def rudin_count(N: int, with_solutions: bool = False) -> CountReport:
    """Square count in {24n+1 : 0 <= n <= N-1}, via residue-stride counting."""
    return count_powers_in_ap(2, rudin_progression(N),
                              with_solutions=with_solutions,
                              algorithm="residue")

