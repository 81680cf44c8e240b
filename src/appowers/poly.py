"""Integer-coefficient univariate polynomials.

Covers exact evaluation, the difference-quotient factorization
P(t) - P(t0) = (t - t0) * Q(t), and inversion of a value interval to the
complete set of integer preimages.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import WindowCapError
from .intkernel import ikth_root_ceil

__all__ = ["Poly", "parse_poly", "difference_quotient", "preimage_range"]


@dataclass(frozen=True)
class Poly:
    """coeffs[i] multiplies t**i; the empty tuple is the zero polynomial."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = tuple(int(x) for x in self.coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_monic_monomial(self) -> bool:
        """True exactly for t**k with k >= 1."""
        return self.degree >= 1 and self.coeffs == (0,) * self.degree + (1,)

    @classmethod
    def monomial(cls, k: int) -> "Poly":
        if k < 0:
            raise ValueError(f"monomial degree must be >= 0, got {k}")
        return cls((0,) * k + (1,))

    def __call__(self, t: int) -> int:
        """Exact Horner evaluation."""
        v = 0
        for c in reversed(self.coeffs):
            v = v * t + c
        return v


def parse_poly(text: str) -> Poly:
    """Parse the CLI coefficient format "c0,c1,...,ck" (lowest degree first)."""
    try:
        coeffs = tuple(int(part.strip()) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"malformed polynomial string {text!r}") from exc
    if not coeffs:
        raise ValueError("empty polynomial string")
    return Poly(coeffs)


def difference_quotient(P: Poly, t0: int) -> Poly:
    """Q with P(t) - P(t0) = (t - t0) * Q(t), by synthetic division at t0.

    deg(Q) = deg(P) - 1; constant P is rejected.
    """
    if P.degree < 1:
        raise ValueError("difference_quotient requires degree >= 1")
    row = []
    acc = 0
    for c in reversed(P.coeffs):
        acc = acc * t0 + c
        row.append(acc)
    # row is the synthetic-division tableau top-down; last entry is P(t0).
    return Poly(tuple(reversed(row[:-1])))


def _root_bound(coeffs: tuple[int, ...], shift: int) -> int:
    """Integer B >= every |root| of the polynomial with c0 shifted by -shift.

    B is the smaller of Cauchy's bound 1 + max |c_i / c_n| and Fujiwara's
    2 * max |c_i / c_n|**(1/(n-i)), with c0 halved in Fujiwara's term; each
    ratio and root is rounded up exactly, so B grows like |shift|**(1/n).
    """
    lead = abs(coeffs[-1])
    n = len(coeffs) - 1
    top = fuji = 0
    for i, c in enumerate(coeffs[:-1]):
        c, den = (abs(c - shift), 2 * lead) if i == 0 else (abs(c), lead)
        top = max(top, c)
        fuji = max(fuji, ikth_root_ceil(-(-c // den), n - i))
    return min(1 + -(-top // lead), 2 * fuji)


def preimage_range(P: Poly, lo: int, hi: int, t_cap: int) -> list[int]:
    """All integers t with P(t) in [lo, hi], sorted ascending.

    The scan window [-B, B] uses the root bound of both P - lo and P - hi
    (see _root_bound), so it provably contains every solution; B grows like
    (max(|lo|, |hi|) / |c_n|)**(1/n).  Raises WindowCapError when B exceeds
    t_cap.
    """
    if lo > hi:
        raise ValueError(f"empty value interval [{lo}, {hi}]")
    if P.degree < 1:
        raise ValueError("preimage_range requires degree >= 1")
    if t_cap < 0:
        raise ValueError(f"t_cap must be >= 0, got {t_cap}")
    bound = max(_root_bound(P.coeffs, lo), _root_bound(P.coeffs, hi))
    if bound > t_cap:
        raise WindowCapError(bound, t_cap)
    return [t for t in range(-bound, bound + 1) if lo <= P(t) <= hi]
