"""Bounded extremal search over (q, a) cells and the {24n+1} progression checker.

The supremum over offsets is genuinely unbounded, but the count depends on a
only through a mod q and the interval position, so the search sweeps residues
r in [0, q) plus an optional window of whole-step shifts s, i.e.
a = r + s*q with s in [-a_window, a_window].  Each q's cells are counted
from one shared walk of t**k, or, where that walk would be longer than q,
from one table of x**k mod q; neither factors q.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .counting import (CountReport, Progression, _counted_window,
                       _power_table, _residue_stride_counts, _shared_walk,
                       count_powers_in_ap)
from .errors import CellBudgetError

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
    (counting._counted_window) serves all of its cells.  A window of at most
    q t is walked once (counting._shared_walk), listing the kth powers there
    by class mod q, and a cell costs two bisects in its class's list.  A
    longer window costs more than q pow calls, so it is not walked: one
    table of x**k mod q for x in [0, q) (counting._power_table) lists every
    class's roots, and a cell is counted by residue stride over its own
    window.  A cell a = r + s*q holds only
    values of class r in the hull, so a class with fewer t in [A, B] than
    the best count so far is skipped whole.  cells_evaluated is the grid's
    size.  Exceeds the cell budget -> CellBudgetError before any
    evaluation.  ``threads`` is accepted and ignored.
    """
    if k < 2:
        raise ValueError(f"extremal search needs k >= 2, got {k}")
    if N < 1 or q_max < 1 or a_window < 0:
        raise ValueError("N, q_max must be >= 1 and a_window >= 0")
    total = (2 * a_window + 1) * (q_max * (q_max + 1) // 2)
    if total > cell_budget:
        raise CellBudgetError(
            f"search would evaluate {total} cells, budget is {cell_budget}")
    best = -1
    cells: list[tuple[int, int]] = []
    for q in range(1, q_max + 1):
        A, B = _counted_window(k, q - a_window * q,
                               q - 1 + a_window * q + N * q)
        if B - A + 1 <= q:
            walked = _shared_walk(k, q, A, B)
            classes = ((r, len(values), values)
                       for r, values in walked.items())

            def count(values, a):
                return (bisect_right(values, a + N * q)
                        - bisect_left(values, a + q))
        else:
            table = _power_table(k, q)
            # no root has more than `most` t in [A, B], so a class whose
            # roots times that is below the best is skipped before its stride
            most = (B - A) // q + 1
            classes = ((r, _residue_stride_counts(roots, q, A, B), roots)
                       for r, roots in table.items()
                       if len(roots) * most >= best)

            def count(roots, a):
                return _residue_stride_counts(
                    roots, q, *_counted_window(k, a + q, a + N * q))
        # A class with no value in the hull, or no root mod q, is not listed:
        # its cells count 0, and the cell (1, 0), whose terms 1..N hold
        # 1 = 1**k, counts at least 1.
        for r, in_hull, members in classes:
            # each cell's count <= in_hull < best <= the final best
            if in_hull < best:
                continue
            for a in range(r - a_window * q, r + a_window * q + 1, q):
                cv = count(members, a)
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

