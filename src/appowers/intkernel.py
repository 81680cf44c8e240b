"""Exact integer arithmetic: factorization, divisor counts, integer roots and
the kth-power t-window.

Every public function is pure and arbitrary precision throughout.
"""
from __future__ import annotations

import math
from functools import lru_cache

__all__ = [
    "is_prime",
    "factorize",
    "divisor_count",
    "ikth_root_floor",
    "ikth_root_ceil",
    "kth_power_t_window",
]

_TRIAL_LIMIT = 10 ** 6
# Deterministic Miller-Rabin witnesses; exact for n below ~3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic for n < 3.3e24.

    Above that limit a fixed extended witness set is used; no known
    composite passes it, but the guarantee is heuristic there.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    bases = _MR_BASES
    if n >= _MR_EXACT_LIMIT:
        bases = _MR_BASES + (41, 43, 47, 53, 59, 61, 67, 71, 73, 79)
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """Return a nontrivial factor of an odd composite n (Brent's cycle method).

    The polynomial increments are tried in a fixed order, so the result is
    deterministic for a given n.
    """
    if n % 2 == 0:
        return 2
    for c in range(1, 1000):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"could not find a factor of {n}")


def _factor_into(n: int, out: dict[int, int]) -> None:
    if n == 1:
        return
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _brent_rho(n)
    _factor_into(d, out)
    _factor_into(n // d, out)


@lru_cache(maxsize=1 << 16)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Factor n >= 1 into (prime, exponent) pairs, primes increasing; () for 1.

    Trial division up to 10^6, then Brent-rho with Miller-Rabin on the
    remaining cofactor, so a CLI call with a large step never silently fails.
    """
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    out: dict[int, int] = {}
    m = n
    while m % 2 == 0:
        out[2] = out.get(2, 0) + 1
        m //= 2
    p = 3
    while p * p <= m and p <= _TRIAL_LIMIT:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 2
    if m > 1:
        if p * p > m:
            out[m] = out.get(m, 0) + 1
        else:
            _factor_into(m, out)
    return tuple(sorted(out.items()))


def divisor_count(n: int) -> int:
    """d(n), the number of positive divisors."""
    out = 1
    for _, e in factorize(n):
        out *= e + 1
    return out


def ikth_root_floor(x: int, k: int) -> int:
    """Largest r >= 0 with r**k <= x, in exact integer arithmetic.

    Integer Newton iteration seeded from the bit length; the contract is
    exact, no floating point is involved.
    """
    if x < 0:
        raise ValueError(f"ikth_root_floor requires x >= 0, got {x}")
    if k < 1:
        raise ValueError(f"ikth_root_floor requires k >= 1, got {k}")
    if k == 1 or x < 2:
        return x
    if k == 2:
        return math.isqrt(x)
    if x.bit_length() <= k:
        return 1
    r = 1 << -(-x.bit_length() // k)
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r ** k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r


def ikth_root_ceil(x: int, k: int) -> int:
    """Smallest r >= 0 with r**k >= x (x >= 0)."""
    r = ikth_root_floor(x, k)
    return r if r ** k == x else r + 1


def kth_power_t_window(k: int, lo: int, hi: int) -> list[tuple[int, int]]:
    """Closed intervals of t exactly covering {t : lo <= t**k <= hi}.

    Odd k gives one interval; even k gives a symmetric pair that merges into
    one interval when lo <= 0.  Endpoints come from exact integer roots, so
    every t inside a returned interval satisfies the value constraint.
    """
    if lo > hi:
        raise ValueError(f"empty value interval [{lo}, {hi}]")
    if k % 2 == 1:
        a = ikth_root_ceil(lo, k) if lo >= 0 else -ikth_root_floor(-lo, k)
        b = ikth_root_floor(hi, k) if hi >= 0 else -ikth_root_ceil(-hi, k)
        return [(a, b)] if a <= b else []
    if hi < 0:
        return []
    rmin = ikth_root_ceil(max(lo, 0), k)
    rmax = ikth_root_floor(hi, k)
    if rmin > rmax:
        return []
    if rmin == 0:
        return [(-rmax, rmax)]
    return [(-rmax, -rmin), (rmin, rmax)]
