"""Integer-coefficient univariate polynomials.

Covers exact evaluation, the difference-quotient factorization
P(t) - P(t0) = (t - t0) * Q(t), and inversion of a value interval to exact
segments of integer preimages.
"""
from __future__ import annotations

from dataclasses import dataclass

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
    def _trimmed(cls, coeffs: tuple[int, ...]) -> "Poly":
        """A Poly of a tuple of ints whose last entry is nonzero, without
        __post_init__'s re-normalisation."""
        P = object.__new__(cls)
        object.__setattr__(P, "coeffs", coeffs)
        return P

    @classmethod
    def monomial(cls, k: int) -> "Poly":
        if k < 0:
            raise ValueError(f"monomial degree must be >= 0, got {k}")
        return cls._trimmed((0,) * k + (1,))

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
    return Poly(coeffs)


def difference_quotient(P: Poly, t0: int) -> Poly:
    """Q with P(t) - P(t0) = (t - t0) * Q(t), by synthetic division at t0.

    deg(Q) = deg(P) - 1; constant P is rejected.
    """
    if P.degree < 1:
        raise ValueError("difference_quotient requires degree >= 1")
    row = _synthetic_division(reversed(P.coeffs), t0)
    # row's first entry is P's nonzero leading coefficient, so Q is trimmed.
    return Poly._trimmed(tuple(reversed(row[:-1])))


def _synthetic_division(high, t0: int) -> list[int]:
    """The synthetic-division tableau of P at t0, for P's coefficients high,
    highest degree first: Horner's partial sums, so the last entry is P(t0)
    and the others are the coefficients of the difference quotient Q,
    highest first."""
    acc = 0
    return [acc := acc * t0 + c for c in high]


def _root_bound(coeffs: tuple[int, ...], shift: int) -> int:
    """Integer B >= every |root| of the polynomial with c0 shifted by -shift.

    B is Fujiwara's bound 2 * max |c_i / c_n|**(1/(n-i)), with c0 halved;
    each ratio and root is rounded up exactly, so B grows like
    |shift|**(1/n).
    """
    lead = abs(coeffs[-1])
    n = len(coeffs) - 1
    fuji = 0
    for i, c in enumerate(coeffs[:-1]):
        c, den = (abs(c - shift), 2 * lead) if i == 0 else (abs(c), lead)
        fuji = max(fuji, ikth_root_ceil(-(-c // den), n - i))
    return 2 * fuji


def _last(pred, x: int, y: int) -> int:
    """Largest t in [x, y] with pred(t), or x - 1; pred holds on a prefix."""
    while x <= y:
        m = (x + y) // 2
        if pred(m):
            x = m + 1
        else:
            y = m - 1
    return x - 1


def _monotone_pieces(P: Poly, left: int, right: int) -> list[tuple[int, int]]:
    """Integer intervals partitioning [left, right], ascending, on each of
    which P is strictly monotone over the reals.

    A linear P is one piece.  Otherwise P' is strictly monotone on each of
    its own pieces, so it has at most one root there; where its sign changes
    inside a piece, P is cut after the last t before the root, found by
    bisection.  P is also cut wherever P' is, since a root of P' may lie
    between the two integers of such a cut.  The derivatives are listed
    first and cut from the linear one up, so the degree sets no recursion
    depth.
    """
    chain = [P]
    while chain[-1].degree > 1:
        chain.append(Poly(tuple(i * c for i, c in
                                enumerate(chain[-1].coeffs))[1:]))
    pieces = [(left, right)]
    for D in reversed(chain[1:]):
        cuts = []
        for x, y in pieces:
            dx = D(x)
            if dx * D(y) < 0:
                cuts.append(_last(lambda t: (D(t) > 0) == (dx > 0), x, y))
            cuts.append(y)
        cuts.pop()  # right
        pieces = list(zip([left] + [c + 1 for c in cuts], cuts + [right]))
    return pieces


def preimage_range(P: Poly, lo: int, hi: int) -> list[tuple[int, int]]:
    """Closed intervals of t exactly covering {t : lo <= P(t) <= hi}.

    The intervals are ascending, disjoint and not merged, and P is strictly
    monotone on each; for P = t**k with even k they cover both signs of t,
    where intkernel.kth_power_t_window gives only the t >= 0.
    Every solution lies in [-B, B], B the larger of Fujiwara's bounds on
    the roots of P - lo and P - hi (see _root_bound); that bracket is cut
    into the pieces on which P is monotone (_monotone_pieces), or into
    single integers when it holds fewer than deg P of them, and each piece
    is bisected for its first and last t with P(t) in [lo, hi].  The cost
    is polynomial in the degree and in log B, whatever the width of
    [lo, hi].
    """
    if lo > hi:
        raise ValueError(f"empty value interval [{lo}, {hi}]")
    if P.degree < 1:
        raise ValueError("preimage_range requires degree >= 1")
    bound = max(_root_bound(P.coeffs, lo), _root_bound(P.coeffs, hi))
    pieces = ([(t, t) for t in range(-bound, bound + 1)] if 2 * bound < P.degree
              else _monotone_pieces(P, -bound, bound))
    segments = []
    for x, y in pieces:
        if P(x) <= P(y):
            A = _last(lambda t: P(t) < lo, x, y) + 1
            B = _last(lambda t: P(t) <= hi, A, y)
        else:
            A = _last(lambda t: P(t) > hi, x, y) + 1
            B = _last(lambda t: P(t) >= lo, A, y)
        if A <= B:
            segments.append((A, B))
    return segments
