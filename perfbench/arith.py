"""Exact integer helpers the benchmark uses to build and check its inputs.

Written without appowers, and by other methods where there is a choice
(bisection instead of Newton roots, digit-by-digit lifting instead of Hensel
steps), so that the checks do not reuse the code they check.
"""
from __future__ import annotations

import math


def iroot_floor(x: int, k: int) -> int:
    """Largest r >= 0 with r**k <= x, for x >= 0, by bisection."""
    if x < 0:
        raise ValueError(f"iroot_floor needs x >= 0, got {x}")
    if k == 1:
        return x
    if k == 2:
        return math.isqrt(x)
    lo, hi = 0, 1 << (x.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid ** k <= x:
            lo = mid
        else:
            hi = mid - 1
    return lo


def iroot_ceil(x: int, k: int) -> int:
    """Smallest r >= 0 with r**k >= x, for x >= 0."""
    r = iroot_floor(x, k)
    return r if r ** k == x else r + 1


def t_window(k: int, lo: int, hi: int) -> list[tuple[int, int]]:
    """Disjoint closed intervals that together hold exactly {t : lo <= t**k <= hi}."""
    if k % 2:
        first = iroot_ceil(lo, k) if lo >= 0 else -iroot_floor(-lo, k)
        last = iroot_floor(hi, k) if hi >= 0 else -iroot_ceil(-hi, k)
        return [(first, last)] if first <= last else []
    if hi < 0:
        return []
    rmin, rmax = iroot_ceil(max(lo, 0), k), iroot_floor(hi, k)
    if rmin > rmax:
        return []
    if rmin == 0:
        return [(-rmax, rmax)]
    return [(-rmax, -rmin), (rmin, rmax)]


def span(k: int, a: int, q: int, N: int) -> int:
    """Number of integers t with t**k among a+q, ..., a+N*q by size alone."""
    return sum(B - A + 1 for A, B in t_window(k, a + q, a + N * q))


def factor_small(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of n >= 1 by trial division; for small n only."""
    out = []
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def divisor_count(factors) -> int:
    return math.prod(e + 1 for _, e in factors)


def theorem_bound(k: int, q_factors, N: int) -> int:
    """(2k-1) * d(q)**(k-1) * ceil(N**(1/k)) from the factorization of q."""
    return (2 * k - 1) * divisor_count(q_factors) ** (k - 1) * iroot_ceil(N, k)


def roots_mod_prime_power(a: int, k: int, p: int, e: int) -> list[int]:
    """All x in [0, p**e) with x**k = a (mod p**e), lifting one p-adic digit
    at a time by trying every digit."""
    roots = [x for x in range(p) if (pow(x, k, p) - a) % p == 0]
    mod = p
    for _ in range(e - 1):
        nxt = mod * p
        roots = [x + d * mod for x in roots for d in range(p)
                 if (pow(x + d * mod, k, nxt) - a) % nxt == 0]
        mod = nxt
    return sorted(roots)


def roots_mod(a: int, k: int, q_factors) -> list[int]:
    """All x in [0, q) with x**k = a (mod q), recombined by the Chinese
    remainder theorem from the prime-power parts of q."""
    roots, mod = [0], 1
    for p, e in q_factors:
        pe = p ** e
        part = roots_mod_prime_power(a, k, p, e)
        inv = pow(mod, -1, pe)
        roots = [x + mod * ((y - x) * inv % pe) for x in roots for y in part]
        mod *= pe
    return sorted(roots)


def _congruent_in(A: int, B: int, r: int, q: int) -> int:
    """Number of t = r (mod q) with A <= t <= B."""
    return (B - r) // q - (A - 1 - r) // q if A <= B else 0


def residue_counts(k: int, a: int, q: int, N: int, q_factors) -> tuple[int, int]:
    """(count_t, count_values) for t**k among a+q, ..., a+N*q, counted per
    residue class of t modulo q inside the kth-root window."""
    roots = roots_mod(a, k, q_factors)
    segments = t_window(k, a + q, a + N * q)
    ct = sum(_congruent_in(A, B, r, q) for A, B in segments for r in roots)
    if k % 2 or not segments:
        return ct, ct
    A, B = segments[-1]  # t and -t give one value: count t >= 0 only
    return ct, sum(_congruent_in(max(A, 0), B, r, q) for r in roots)


def brute_power_counts(k: int, a: int, q: int, N: int) -> tuple[int, int]:
    """(count_t, count_values) by trying every t of the kth-root window."""
    ct, values = 0, set()
    for A, B in t_window(k, a + q, a + N * q):
        for t in range(A, B + 1):
            v = t ** k
            if (v - a) % q == 0:
                ct += 1
                values.add(v)
    return ct, len(values)


def poly_value(coeffs, t: int) -> int:
    return sum(c * t ** i for i, c in enumerate(coeffs))


def brute_quadratic_counts(coeffs, a: int, q: int, N: int) -> tuple[int, int]:
    """(count_t, count_values) for c0 + c1*t + c2*t**2 with c2 >= 1.

    Past |t| = |c1| + s with s*s > |hi| + |c0|, the value exceeds hi, so that
    range holds every solution.
    """
    c0, c1, c2 = coeffs
    if c2 < 1:
        raise ValueError("brute_quadratic_counts needs a leading coefficient >= 1")
    lo, hi = a + q, a + N * q
    T = abs(c1) + math.isqrt(abs(hi) + abs(c0)) + 1
    ct, values = 0, set()
    for t in range(-T, T + 1):
        v = poly_value(coeffs, t)
        if lo <= v <= hi and (v - a) % q == 0:
            ct += 1
            values.add(v)
    return ct, len(values)
