"""Exact counting of kth powers and polynomial values in arithmetic progressions.

Two independent algorithms back the monomial count: an interval walk over the
kth-root window of the value interval, and residue-stride counting that solves
t**k = a (mod q) and counts lattice points per residue class arithmetically.
They cross-check each other in the test suite.  ``auto`` (_auto_roots) weighs
the walk's length in t against modroots.root_count, read without listing a
root, and walks within WALK_BUDGET where the roots are over a budget.  A
strided call lists its roots once, for both its count and its solutions.
count_power_cells and search.extremal_search count every cell of one (k, q)
through _power_classes, which bins the kth powers of the hull's window by
class mod q: from one interval walk where the caller's limit allows it, and
elsewhere from one table of x**k mod q for x in [0, q), which lists the
roots of every class at once without factoring q.
"""
from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from . import kernels
from .errors import CellBudgetError, InternalInvariantError
from .intkernel import kth_power_t_window
from .modroots import kth_roots_mod, root_count
from .poly import Poly, preimage_range

__all__ = [
    "Progression",
    "CountReport",
    "count_powers_in_ap",
    "count_power_cells",
    "count_poly_in_ap",
]

# Longest interval walk, in values of t visited.  10**6 t take 0.15, 0.3,
# 0.6 and 1.1 s at k = 2, 8, 20 and 32 (one x86-64 core, Python 3.11), so
# the whole budget is about 1.5 s at k = 2 and 11 s at k = 32.
WALK_BUDGET = 10 ** 7
# Largest count_t whose solution list is built.
SOLUTION_CAP = 10 ** 6
# Longest shared walk of count_power_cells, in walked t per cell counted.
# A walked t costs about 0.3 us and keeps one list entry; a cell counted
# from the table of x**k mod q costs 3-7 us (k = 2..4), mostly the integer
# roots of its own window.  So the walk stays no dearer than the table, and
# its lists within a few times the size of the result.
SHARED_WALK_PER_CELL = 8


@dataclass(frozen=True)
class Progression:
    """The progression a+q, a+2q, ..., a+Nq.

    The step must be positive; a progression with negative step is the same
    value set as one with step |q| and offset a + (N+1)q - |q|, so callers
    normalize before constructing.
    """

    a: int
    q: int
    N: int

    def __post_init__(self):
        if self.q < 1:
            raise ValueError(f"step q must be >= 1, got {self.q}")
        if self.N < 1:
            raise ValueError(f"length N must be >= 1, got {self.N}")

    @property
    def lo(self) -> int:
        return self.a + self.q

    @property
    def hi(self) -> int:
        return self.a + self.N * self.q

    def index_of(self, value: int) -> int | None:
        """The i in [1, N] with value = a + i*q, or None."""
        if (value - self.a) % self.q:
            return None
        i = (value - self.a) // self.q
        return i if 1 <= i <= self.N else None


@dataclass(frozen=True)
class CountReport:
    """count_t: integers t with P(t) in the progression;
    count_values: distinct progression terms attained;
    solutions: optional sorted (t, i) pairs with P(t) = a + i*q."""

    count_t: int
    count_values: int
    solutions: tuple[tuple[int, int], ...] | None = None


def _residue_stride_counts(roots: tuple[int, ...], q: int, A: int,
                           B: int) -> int:
    """Number of t in [A, B] with t mod q in roots, the sorted roots of
    t**k = a (mod q).

    The congruence alone is necessary but not sufficient; restricting each
    class to [A, B], an interval of the exact kth-root window of [lo, hi],
    is what pins the index i into [1, N].  For n roots R, sum over r in R of
    floor((x - r) / q) is n*(x//q) + bisect_right(R, x % q) - n, so [A, B]
    is counted by rank with two bisects, not root by root.
    """
    if B < A:
        return 0
    return (len(roots) * (B // q - (A - 1) // q)
            + bisect_right(roots, B % q) - bisect_right(roots, (A - 1) % q))


def _auto_roots(k: int, prog: Progression, A: int,
                walk: int) -> tuple[int, ...] | None:
    """The sorted roots of t**k = a (mod q) that auto strides with, or None
    for the walk.  Walk windows of at most 64 t; stride windows wider than
    q.  The window's span is the walk for odd k, and for even k both signs
    of the walk's t >= 0, t = 0 once.  In between, factor q only when
    q <= span**2 (so factoring costs at most about the walk) or the walk
    exceeds WALK_BUDGET (so it would be refused; factoring then stops at
    intkernel.RHO_STEP_BUDGET), and stride when twice modroots.root_count is
    below the walk.  A CellBudgetError from counting or listing the roots
    (modroots.ROOT_BUDGET, unit-root lifting, Brent-rho) falls back to a
    walk within WALK_BUDGET, and is raised otherwise."""
    span = walk if k % 2 or not walk else 2 * walk - (A == 0)
    if span <= 64 or (prog.q > span * span and walk <= WALK_BUDGET):
        return None
    try:
        # A root costs the stride 0.07-0.44 us (repeating a class, or the
        # CRT and the sort), about 0.5-3.5 walked t at 0.1-0.14 us per t.
        if span > prog.q or 2 * root_count(prog.a, k, prog.q) < walk:
            return kth_roots_mod(prog.a, k, prog.q)
    except CellBudgetError:
        if walk > WALK_BUDGET:
            raise
    return None


def _check_walk(walk: int) -> None:
    if walk > WALK_BUDGET:
        raise CellBudgetError(f"interval walk over {walk} values of t "
                              f"exceeds budget {WALK_BUDGET}")


def _check_solution_cap(count_t: int) -> None:
    if count_t > SOLUTION_CAP:
        raise CellBudgetError(f"solution list of {count_t} pairs exceeds "
                              f"cap {SOLUTION_CAP}")


def _power_solutions(k: int, prog: Progression, A: int, B: int,
                     roots: tuple[int, ...] | None
                     ) -> tuple[tuple[int, int], ...]:
    """All (t, i) with t**k = a + i*q, sorted by t.  The hits of [A, B] are
    listed by the algorithm that counted them: by walking [A, B] if roots is
    None, else from the stride's roots of t**k = a (mod q); for even k they
    are mirrored to -t, as count_powers_in_ap counts them."""
    a, q = prog.a, prog.q
    if roots is None:
        ts = [t for t in range(A, B + 1) if (t ** k - a) % q == 0]
    else:
        ts = sorted(t for r in roots for t in range(A + (r - A) % q, B + 1, q))
    if k % 2 == 0:
        ts = [-t for t in reversed(ts) if t] + ts
    return tuple((t, (t ** k - a) // q) for t in ts)


def count_powers_in_ap(k: int, prog: Progression, with_solutions: bool = False,
                       algorithm: str = "auto") -> CountReport:
    """Exact counts of kth powers t**k among the progression's terms.

    algorithm is "interval", "residue", or "auto", which takes the roots
    _auto_roots returns, or the walk when it returns None.  A walk longer
    than WALK_BUDGET, a solution list longer than SOLUTION_CAP, and a root
    list that modroots.kth_roots_mod refuses raise CellBudgetError before
    any of it is done.  Solutions are listed by the algorithm that counted
    them (the stride's from its roots), so a countable cell is listed up to
    the cap.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    A, B = kth_power_t_window(k, prog.lo, prog.hi)
    even = k % 2 == 0
    walk = max(B - A + 1, 0)
    if algorithm == "auto":
        roots = _auto_roots(k, prog, A, walk)
    elif algorithm == "residue":
        roots = kth_roots_mod(prog.a, k, prog.q)
    elif algorithm == "interval":
        roots = None
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if roots is None:
        _check_walk(walk)
        cv = kernels.interval_walk(k, prog.a, prog.q, A, B)
    else:
        cv = _residue_stride_counts(roots, prog.q, A, B)
    # t = 0 is its own mirror
    ct = 2 * cv - (A == 0 <= B and prog.a % prog.q == 0) if even else cv
    solutions = None
    if with_solutions:
        _check_solution_cap(ct)
        solutions = _power_solutions(k, prog, A, B, roots)
        if len(solutions) != ct:
            raise InternalInvariantError(
                f"solution list length {len(solutions)} != count_t {ct} "
                f"for k={k}, {prog}")
    return CountReport(ct, cv, solutions)


def _power_classes(k: int, q: int, A: int, B: int, limit: int):
    """(classes, in_window, count) for the kth powers of the t in [A, B], a
    counted window (t >= 0 for even k, so t**k ascends with t).

    classes maps each class mod q that holds a kth power to its members:
    with B - A + 1 <= limit, the ascending t**k of a walk over [A, B];
    otherwise the ascending x in [0, q) with x**k in the class, from one
    table of q pow calls charged against WALK_BUDGET, so that no q is
    factored, lifted or combined by the CRT.  in_window(members) is the
    number of t in [A, B] that a class holds, and count(members, lo, hi)
    the number of t in the counted window of [lo, hi], a value range within
    the one [A, B] came from: two bisects by value on a walk, a residue
    stride over the cell's own window on a table.
    """
    classes: dict[int, list[int]] = {}
    if B - A + 1 <= limit:
        for t in range(A, B + 1):
            v = t ** k
            classes.setdefault(v % q, []).append(v)
        return classes, len, (lambda values, lo, hi:
                              bisect_right(values, hi) - bisect_left(values, lo))
    _check_walk(q)
    for x in range(q):
        classes.setdefault(pow(x, k, q), []).append(x)
    return (classes, lambda roots: _residue_stride_counts(roots, q, A, B),
            lambda roots, lo, hi: _residue_stride_counts(
                roots, q, *kth_power_t_window(k, lo, hi)))


def count_power_cells(k: int, q: int,
                      cells: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """(count_t, count_values) of t**k in each progression
    Progression(a, q, N) for (a, N) in cells, in order, as
    count_powers_in_ap would count them one by one.

    Every cell's values lie in [min a + q, max a + N*q], whose counted
    window is walked once where it is at most SHARED_WALK_PER_CELL t per
    cell and within WALK_BUDGET, and is otherwise replaced by one table of
    x**k mod q (_power_classes); a cell's count_values is then counted in
    the list of its class a mod q, and count_t follows by
    count_powers_in_ap's even-k mirror.  A table for q > WALK_BUDGET raises
    CellBudgetError before any cell is counted.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not cells:
        return []
    if q < 1 or min(N for _, N in cells) < 1:
        raise ValueError("step q and every length N must be >= 1")
    A, B = kth_power_t_window(k, min(a for a, _ in cells) + q,
                              max(a + N * q for a, N in cells))
    classes, _, count = _power_classes(
        k, q, A, B, min(SHARED_WALK_PER_CELL * len(cells), WALK_BUDGET))
    even = k % 2 == 0
    out = []
    for a, N in cells:
        r = a % q
        lo, hi = a + q, a + N * q
        members = classes.get(r)
        cv = count(members, lo, hi) if members else 0
        # t = 0 is its own mirror
        out.append((2 * cv - (lo <= 0 <= hi and r == 0) if even else cv, cv))
    return out


def _segment_hits(P: Poly, a: int, q: int, A: int, B: int):
    """(P(t), t) for the t in [A, B] with P(t) = a (mod q), by increasing
    P(t).  P is strictly monotone on [A, B], so its values at the endpoints
    give the direction of the walk."""
    ts = range(A, B + 1) if P(A) <= P(B) else range(B, A - 1, -1)
    return ((v, t) for v, t in ((P(t), t) for t in ts) if (v - a) % q == 0)


def count_poly_in_ap(P: Poly, prog: Progression, with_solutions: bool = False,
                     algorithm: str = "auto") -> CountReport:
    """Exact counts for a general integer polynomial P of degree >= 1.

    P = t**k goes to count_powers_in_ap with ``algorithm``; any other P is
    counted by walking preimage_range's exact segments, and then
    ``algorithm`` must be "auto".  That walk is charged against WALK_BUDGET
    like the monomial one.  Its state is one generator per segment, never a
    set or list as long as the count: the segments' hits are merged by
    value, so a value hit from several segments is counted once.
    Solutions are sorted by t; more than SOLUTION_CAP of them raise
    CellBudgetError as soon as the list grows past it.
    """
    if P.degree < 1:
        raise ValueError("count_poly_in_ap requires degree >= 1")
    if P.is_monic_monomial:
        return count_powers_in_ap(P.degree, prog, with_solutions=with_solutions,
                                  algorithm=algorithm)
    if algorithm != "auto":
        raise ValueError(f"algorithm {algorithm!r} applies only to P = t**k")
    segments = preimage_range(P, prog.lo, prog.hi)
    _check_walk(sum(B - A + 1 for A, B in segments))
    ct = cv = 0
    last = None
    sols = [] if with_solutions else None
    for v, t in heapq.merge(*(_segment_hits(P, prog.a, prog.q, A, B)
                              for A, B in segments)):
        ct += 1
        if v != last:
            cv += 1
            last = v
        if sols is not None:
            sols.append((t, (v - prog.a) // prog.q))
            _check_solution_cap(len(sols))
    return CountReport(ct, cv, tuple(sorted(sols)) if with_solutions else None)
