"""Exact counting of kth powers and polynomial values in arithmetic progressions.

Two independent algorithms back the monomial count: an interval walk over the
kth-root window of the value interval, and residue-stride counting that solves
t**k = a (mod q) and counts lattice points per residue class arithmetically.
They cross-check each other in the test suite.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .errors import InternalInvariantError
from .intkernel import kth_power_t_window
from .modroots import kth_roots_mod
from .poly import Poly, preimage_range

__all__ = [
    "Progression",
    "CountReport",
    "count_powers_in_ap",
    "count_poly_in_ap",
]

DEFAULT_T_CAP = 10 ** 6


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


def _count_congruent(A: int, B: int, r: int, q: int) -> int:
    """Number of t = r (mod q) in [A, B]."""
    if B < A:
        return 0
    return (B - r) // q - (A - 1 - r) // q


def _residue_stride_counts(k: int, prog: Progression,
                           segments: list[tuple[int, int]]) -> tuple[int, int]:
    """Counts via residue classes of t**k = a (mod q).

    The congruence alone is necessary but not sufficient; restricting each
    class to segments, the exact kth-root window of [lo, hi], is what pins
    the index i into [1, N].
    """
    roots = kth_roots_mod(prog.a % prog.q, k, prog.q).residues
    if not roots:
        return 0, 0
    ct = sum(_count_congruent(A, B, r, prog.q)
             for A, B in segments for r in roots)
    if k % 2 == 1:
        return ct, ct
    if not segments:
        return 0, 0
    A, B = segments[-1]  # the nonnegative side; values repeat under t -> -t
    cv = sum(_count_congruent(max(A, 0), B, r, prog.q) for r in roots)
    return ct, cv


def _choose_algorithm(prog: Progression, segments: list[tuple[int, int]]) -> str:
    span = sum(B - A + 1 for A, B in segments)
    return "interval" if span <= max(64, prog.q) else "residue"


def _power_solutions(k: int, prog: Progression,
                     segments: list[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """All (t, i) with t**k = a + i*q, sorted by t; segments is the t-window."""
    roots = kth_roots_mod(prog.a % prog.q, k, prog.q).residues
    out = []
    for A, B in segments:
        for r in roots:
            first = A + (r - A) % prog.q
            for t in range(first, B + 1, prog.q):
                out.append((t, (t ** k - prog.a) // prog.q))
    out.sort()
    return tuple(out)


def count_powers_in_ap(k: int, prog: Progression, with_solutions: bool = False,
                       algorithm: str = "auto") -> CountReport:
    """Exact counts of kth powers t**k among the progression's terms.

    algorithm is "interval", "residue", or "auto" (pick the cheaper by a
    window-width vs. root-solving cost estimate).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    segments = kth_power_t_window(k, prog.lo, prog.hi)
    if algorithm == "auto":
        algorithm = _choose_algorithm(prog, segments)
    if algorithm == "interval":
        ct, cv = kernels.interval_walk(k, prog.a, prog.q, segments)
    elif algorithm == "residue":
        ct, cv = _residue_stride_counts(k, prog, segments)
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    solutions = None
    if with_solutions:
        solutions = _power_solutions(k, prog, segments)
        if len(solutions) != ct:
            raise InternalInvariantError(
                f"solution list length {len(solutions)} != count_t {ct} "
                f"for k={k}, {prog}")
    return CountReport(ct, cv, solutions)


def count_poly_in_ap(P: Poly, prog: Progression, t_cap: int = DEFAULT_T_CAP,
                     with_solutions: bool = False,
                     algorithm: str = "auto") -> CountReport:
    """Exact counts for a general integer polynomial P of degree >= 1.

    P = t**k goes to count_powers_in_ap with ``algorithm``; any other P is
    counted by scanning preimage_range's window [-B, B], whose root bound B
    must not exceed ``t_cap``; then ``algorithm`` must be "auto".  Solutions
    are sorted by t.
    """
    if P.degree < 1:
        raise ValueError("count_poly_in_ap requires degree >= 1")
    if P.is_monic_monomial:
        return count_powers_in_ap(P.degree, prog, with_solutions=with_solutions,
                                  algorithm=algorithm)
    if algorithm != "auto":
        raise ValueError(f"algorithm {algorithm!r} applies only to P = t**k")
    sols = []
    values = set()
    for t in preimage_range(P, prog.lo, prog.hi, t_cap):
        v = P(t)
        i = prog.index_of(v)
        if i is None:
            continue
        sols.append((t, i))
        values.add(v)
    return CountReport(len(sols), len(values),
                       tuple(sols) if with_solutions else None)
