"""Exact integer arithmetic: factorization, divisor counts, integer roots and
the kth-power t-window.

Every public function is pure and arbitrary precision throughout.
"""
from __future__ import annotations

import math
from functools import lru_cache

from .errors import CellBudgetError

__all__ = [
    "is_prime",
    "factorize",
    "divisor_count",
    "ikth_root_floor",
    "ikth_root_ceil",
    "kth_power_t_window",
]

# Most steps y -> y*y + c (mod n) one Brent-rho call may be charged, over all
# its increments.  Rounds double in length, so a refused call has run
# 1,048,574 steps: 0.6-0.7 s for a 101-bit n (2-vCPU sandbox, Python 3.11).
# Rho needs about sqrt(p) steps to find a prime factor p: this finds almost
# every one below 1e11 and refuses most above 1e12.
RHO_STEP_BUDGET = 1_500_000
# Deterministic Miller-Rabin witnesses: the primes 2..41 are exact below
# _MR_EXACT_LIMIT, the least strong pseudoprime to all of them (OEIS A014233).
# 2..37 alone pass 318665857834031151167461 = 399165290221 * 798330580441.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_LIMIT = 3_317_044_064_679_887_385_961_981


def _prime_table(limit: int) -> tuple[int, ...]:
    """The primes below limit, by a sieve of Eratosthenes."""
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit, p)))
    return tuple(p for p, flag in enumerate(sieve) if flag)


# factorize trial-divides by these; Brent-rho takes the cofactor.
_SMALL_PRIMES = _prime_table(1 << 12)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) of an odd n > 0, by quadratic reciprocity."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _half(x: int, n: int) -> int:
    """x/2 mod an odd n."""
    x %= n
    return (x + n if x % 2 else x) // 2


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of an odd n > 1 that is not a square.

    Selfridge's method A: D is the first of 5, -7, 9, -11, ... with
    (D/n) = -1, P = 1 and Q = (1 - D)/4.  With n + 1 = d * 2**s, d odd, n
    passes when U_d = 0 or V_(d * 2**r) = 0 (mod n) for some 0 <= r < s.
    """
    D = 5
    while (j := _jacobi(D, n)) == 1:
        D = -D - 2 if D > 0 else 2 - D
    if j == 0:  # D shares a factor with n
        return n == abs(D)
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    U, V, Qk = 1, 1, Q % n  # U_1, V_1 and Q**1, stepped to index d by bits
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = _half(U + V, n), _half(D * U + V, n), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic for n < 3.3e24 (the 13
    prime bases 2..41).

    Above that limit it is a Baillie-PSW test: Miller-Rabin to the 22 prime
    bases 2..79, which alone some composites pass (such as Arnault's (1995)
    strong pseudoprimes to every prime base below 200), then a perfect-square
    check and a strong Lucas test.  No composite is known to pass BPSW, but
    that none does is not proven.
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
        bases = _MR_BASES + (43, 47, 53, 59, 61, 67, 71, 73, 79)
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
    return (n < _MR_EXACT_LIMIT
            or math.isqrt(n) ** 2 != n and _strong_lucas(n))


def _brent_rho(n: int) -> int:
    """Return a nontrivial factor of an odd composite n (Brent's cycle method).

    The polynomial increments are tried in a fixed order, so the result is
    deterministic for a given n.  Raises CellBudgetError rather than take
    more than RHO_STEP_BUDGET steps (a round of 2*r steps is charged before
    it runs); factorize's lru_cache does not cache the refusal.
    """
    steps = 0
    for c in range(1, 1000):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            steps += 2 * r
            if steps > RHO_STEP_BUDGET:
                raise CellBudgetError(f"factoring {n} exceeds "
                                      f"{RHO_STEP_BUDGET} Brent-rho steps")
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


def _factor_into(n: int, out: dict[int, int], times: int = 1) -> None:
    """Add n**times to out, for an n with no prime factor below 2**12."""
    if n == 1:
        return
    if is_prime(n):
        out[n] = out.get(n, 0) + times
        return
    for j in range(2, n.bit_length() // 12 + 1):  # n = r**j has r > 2**12
        r = ikth_root_floor(n, j)
        if r ** j == n:
            _factor_into(r, out, times * j)
            return
    d = _brent_rho(n)
    _factor_into(d, out, times)
    _factor_into(n // d, out, times)


@lru_cache(maxsize=1 << 16)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Factor n >= 1 into (prime, exponent) pairs, primes increasing; () for 1.

    Trial division by the primes below 2**12, stopping once p*p exceeds the
    cofactor; a cofactor left after the whole table has no prime factor
    below 2**12 and goes to Miller-Rabin, then to a perfect-power test
    (r**j with j <= bits/12, whose root r is factored instead), then to
    Brent-rho, which finds a prime factor p in about sqrt(p) steps.  A
    Brent-rho call over RHO_STEP_BUDGET steps raises CellBudgetError.
    """
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    out: dict[int, int] = {}
    m = n
    for p in _SMALL_PRIMES:
        if p * p > m:
            if m > 1:
                out[m] = 1
            break
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
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
    # The seed exceeds x**(1/k).  From any r above the floor root s, the
    # step lands in [s, r) by AM-GM, and at r = s it does not decrease, so
    # the descent stops exactly on s.
    r = 1 << -(-x.bit_length() // k)
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            return r
        r = nr


def ikth_root_ceil(x: int, k: int) -> int:
    """Smallest r >= 0 with r**k >= x (x >= 0)."""
    r = ikth_root_floor(x, k)
    return r if r ** k == x else r + 1


def kth_power_t_window(k: int, lo: int, hi: int) -> tuple[int, int]:
    """The counted window (A, B) of t for the values [lo, hi]: every t with
    lo <= t**k <= hi for odd k, and for even k, where -t has the same value
    as t, only those with t >= 0.  The window is empty when B < A.

    Endpoints come from exact integer roots, so every t in [A, B] satisfies
    the value constraint.
    """
    if lo > hi:
        raise ValueError(f"empty value interval [{lo}, {hi}]")
    if k % 2 == 1:
        return (ikth_root_ceil(lo, k) if lo >= 0 else -ikth_root_floor(-lo, k),
                ikth_root_floor(hi, k) if hi >= 0 else -ikth_root_ceil(-hi, k))
    if hi < 0:
        return 0, -1
    return ikth_root_ceil(max(lo, 0), k), ikth_root_floor(hi, k)
