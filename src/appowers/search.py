"""Bounded extremal search over (q, a) cells and the {24n+1} progression checker.

The supremum over offsets is genuinely unbounded, but the count depends on a
only through a mod q and the interval position, so the search sweeps residues
r in [0, q) plus an optional window of whole-step shifts s, i.e.
a = r + s*q with s in [-a_window, a_window].
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .counting import (CountReport, Progression, _shared_walk,
                       count_power_cells, count_powers_in_ap)
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

    Each q's grid is served by one shared walk (counting._shared_walk) over
    its hull, which lists the kth powers there by class mod q.  A cell
    a = r + s*q holds only values of class r in that hull, so a class whose
    list is shorter than the best count so far is skipped whole; the other
    cells cost two bisects each.  Where that walk would be long, the q's
    cells are counted by counting.count_power_cells instead.
    cells_evaluated is the grid's size.  Exceeds the cell budget ->
    CellBudgetError before any evaluation.  ``threads`` is accepted and
    ignored.
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
    shifts = range(-a_window, a_window + 1)
    for q in range(1, q_max + 1):
        classes = _shared_walk(k, q, q - a_window * q,
                               q - 1 + a_window * q + N * q, q * len(shifts))
        if classes is None:
            grid = [(r + s * q, N) for r in range(q) for s in shifts]
            counts = iter(count_power_cells(k, q, grid))
        for r in range(q):
            if classes is None:
                found = [(r + s * q, next(counts)[1]) for s in shifts]
            else:
                values = classes.get(r, ())
                # each cell's count <= len(values) < best <= the final best
                if len(values) < best:
                    continue
                found = [(a, bisect_right(values, a + N * q)
                          - bisect_left(values, a + q))
                         for a in (r + s * q for s in shifts)]
            for a, cv in found:
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

