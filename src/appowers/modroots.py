"""Solve x**k = a (mod m) for all residue classes.

The roots are returned as a sorted tuple.  A composite modulus is split into
its prime powers p**e, whose roots are cached, by (a mod p**e, k, p, e), as
(ys, step): x is a root exactly when x mod step, a divisor of p**e, lies in
the sorted ys.  root_count multiplies len(ys) * p**e / step over the parts;
max_root_counts sieves the most roots any a has mod every m <= n, by a
closed form per prime power, which is gcd(k, p - 1) for each prime p above
isqrt(n), whose only power <= n is p itself; kth_roots_mod checks that
count against ROOT_BUDGET, joins the ys by the CRT modulo the product M of
the steps, sorts them, and adds every multiple of M below m.  Modulo p**e:

* a = 0: x**k = 0 exactly when p**ceil(e/k) divides x, so ys = (0,);
* p**v exactly divides a: x = p**(v/k) * y (no roots unless k | v), with y a
  unit root of y**k = a / p**v (mod p**(e-v)) and its next v - v/k p-adic
  digits free, so step = p**(e-v+v/k);
* unit roots mod p, for every prime p: an Euler-criterion test, one root of
  x**d = a**s with d = gcd(k, p-1) and s*k = d (mod p-1), found Sylow
  subgroup by Sylow subgroup (one prime r | d at a time, digit by digit as in
  Tonelli-Shanks and Adleman-Manders-Miller), and the other d - 1 roots from
  the d-th roots of unity, in time polynomial in log p;
* unit roots mod p**e: Newton (Hensel) steps when p does not divide k, and,
  when p | k (so p <= k), all p extensions of each root tried level by level.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache

from .errors import CellBudgetError
from .intkernel import _SMALL_PRIMES, _prime_table, factorize, is_prime

__all__ = ["kth_roots_mod_prime_power", "kth_roots_mod", "root_count",
           "max_root_counts"]

# Largest root list built; 2**18 unit roots take about 0.25 s through the CRT.
ROOT_BUDGET = 2 ** 18


def _check_root_count(n: int, what: str = "roots") -> None:
    if n > ROOT_BUDGET:
        raise CellBudgetError(f"{n} {what} exceed budget {ROOT_BUDGET}")


@lru_cache(maxsize=4096)
def _power_map(k: int, p: int) -> dict[int, tuple[int, ...]]:
    """Map a -> all x in [0, p) with x**k = a (mod p), by one O(p) pass.

    Nothing in the package calls it: _roots_mod_prime serves every prime.
    It stays only because perfbench/tracer.py reads its cache_info as the
    cache "modroots.power_map", and a test requires each such cache to exist.
    """
    table: dict[int, list[int]] = {}
    for x in range(p):
        table.setdefault(pow(x, k, p), []).append(x)
    return {a: tuple(xs) for a, xs in table.items()}


@lru_cache(maxsize=4096)
def _sylow_plan(p: int, d: int) -> tuple[tuple, int, int]:
    """What taking d-th roots mod p needs, for d > 1 dividing p-1.

    Per prime r | d: r, the r**f exactly dividing d, the order rt of the
    Sylow r-subgroup, its generator z (a power of the least r-th power
    non-residue, a prime) and z's inverse, the exponent projecting onto the
    subgroup, the inverse of d / r**f mod rt, and the map from z's elements
    of order r to their logs / (rt/r).  Then a generator of the d-th roots
    of unity, and the exponent taking d-th roots in the subgroup of order
    prime to d.
    """
    sylows, omega, w = [], 1, p - 1
    for r, f in factorize(d):
        rt = r
        while (p - 1) % (rt * r) == 0:
            rt *= r
        s = (p - 1) // rt
        n = 2
        while pow(n, (p - 1) // r, p) == 1:
            n += 1
        z = pow(n, s, p)
        rf = r ** f
        sylows.append((r, rf, rt, z, pow(z, -1, p), s * pow(s, -1, rt),
                       pow(d // rf, -1, rt),
                       {pow(z, j * (rt // r), p): j for j in range(r)}))
        omega = omega * pow(z, rt // rf, p) % p
        w //= rt
    return tuple(sylows), omega, (p - 1) // w * pow((p - 1) // w * d, -1, w)


def _roots_mod_prime(a: int, k: int, p: int) -> tuple[int, ...]:
    """Sorted x in [0, p) with x**k = a (mod p), for a unit a in [1, p)."""
    d = math.gcd(k, p - 1)
    if d == 1:  # a fast path: the Sylow steps find this root too
        return (pow(a, pow(k, -1, p - 1), p),)
    if pow(a, (p - 1) // d, p) != 1:
        return ()
    _check_root_count(d)
    b = pow(a, pow(k // d, -1, (p - 1) // d), p)  # x**k = a iff x**d = b
    # One root x of x**d = b: the product of d-th roots of b's components in
    # the subgroup of order prime to d and in each Sylow r-subgroup, where
    # the log m of the component c to base z is found one base-r digit at a
    # time (r**f divides m, since b is a d-th power).
    sylows, omega, w_exp = _sylow_plan(p, d)
    x = pow(b, w_exp, p)
    for r, rf, rt, z, z_inv, proj, inv, digit in sylows:
        c = pow(b, proj, p)
        m, ri = 0, 1
        while ri < rt:
            m += digit[pow(c * pow(z_inv, m, p) % p, rt // r // ri, p)] * ri
            ri *= r
        x = x * pow(z, m // rf * inv, p) % p
    roots = []
    for _ in range(d):
        roots.append(x)
        x = x * omega % p
    return tuple(sorted(roots))


def _unit_roots(b: int, k: int, p: int, e: int) -> tuple[int, ...]:
    """Sorted y in [0, p**e) with y**k = b (mod p**e), for b a unit mod p."""
    roots = _roots_mod_prime(b % p, k, p)
    if e == 1:  # a fast path: neither lifting loop runs
        return roots
    pe = p ** e
    if k % p:
        lifted = []
        for x in roots:  # Newton's step doubles the precision of a simple root
            mod = p
            while mod < pe:
                mod = min(mod * mod, pe)
                step = pow(k * pow(x, k - 1, mod), -1, mod)
                x = (x - (pow(x, k, mod) - b) * step) % mod
            lifted.append(x)
        return tuple(sorted(lifted))
    # p | k: every root is singular; try each of its p extensions a level up
    mod = p
    while mod < pe:
        _check_root_count(len(roots) * p, "candidate roots")
        nxt = mod * p
        roots = [c for x in roots for c in range(x, nxt, mod)
                 if pow(c, k, nxt) == b % nxt]
        mod = nxt
    return tuple(sorted(roots))


@lru_cache(maxsize=400_000)
def _roots_mod_cached(a: int, k: int, p: int, e: int) -> tuple[tuple, int]:
    """(ys, step) for x**k = a (mod p**e), for a prime p and a in [0, p**e):
    x is a root exactly when x mod step, a divisor of p**e, lies in ys."""
    if a == 0:
        return (0,), p ** -(-e // k)
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    if v == 0:  # a fast path: the valuation path at scale 1
        return _unit_roots(a, k, p, e), p ** e
    if v % k:
        return (), p ** e
    scale = p ** (v // k)
    return (tuple(scale * y for y in _unit_roots(a, k, p, e - v)),
            p ** (e - v) * scale)


def root_count(a: int, k: int, m: int) -> int:
    """The number of x in [0, m) with x**k = a (mod m), for m, k >= 1."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    count = 1
    for p, e in factorize(m):
        pe = p ** e
        ys, step = _roots_mod_cached(a % pe, k, p, e)
        count *= len(ys) * (pe // step)
        if not count:
            break
    return count


def _max_root_count_mod_prime_power(k: int, p: int, e: int) -> int:
    """The largest number of x in [0, p**e) that share one x**k mod p**e.

    a = 0 has p**(e - ceil(e/k)) roots.  An a = p**v * u, u a unit, has
    none unless k | v, and then p**(v - v/k) for each unit root of
    y**k = u (mod p**(e-v)).  Those are 0 or as many as the kth roots of 1,
    U of them: the unit group mod p**j is cyclic of order (p-1) p**(j-1)
    for odd p, and C2 x C(2**(j-2)) for p = 2 and j >= 3.  At e = 1 this
    is gcd(k, p - 1) for every p, p = 2 included, as max_root_counts uses.
    """
    most = p ** (e - (e + k - 1) // k)  # the roots of a = 0
    for v in range(0, e, k):
        j = e - v
        if p > 2:
            units = math.gcd(k, (p - 1) * p ** (j - 1))
        elif j < 3:
            units = math.gcd(k, j)  # 1 mod 2, and gcd(k, 2) mod 4
        else:
            units = math.gcd(k, 2) * math.gcd(k, 2 ** (j - 2))
        most = max(most, p ** (v - v // k) * units)
    return most


def max_root_counts(k: int, n: int) -> list[int]:
    """Entry m <= n is the most x in [0, m) that share one x**k mod m (the
    maximum over a of root_count(a, k, m)), for k >= 1 and n >= 0; entry 0
    is 0.  One sieve builds the list and factors no m: each prime power
    p**e <= n multiplies its own count into the multiples of p**e that
    p**(e+1) does not divide, since the count is multiplicative.  A prime
    p > isqrt(n) is its only power <= n, so it multiplies every multiple
    of p by gcd(k, p - 1), its count at e = 1.  The primes are a prefix of
    intkernel's import-time table for n below 2**12, and sieved otherwise."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    counts = [0] + [1] * n
    primes = _SMALL_PRIMES if n < 1 << 12 else _prime_table(n + 1)
    small = bisect_right(primes, math.isqrt(n))
    for p in primes[:small]:
        pe, e = p, 1
        while pe <= n:
            most, nxt = _max_root_count_mod_prime_power(k, p, e), pe * p
            if most > 1:
                for m in range(pe, n + 1, pe):
                    if m % nxt:
                        counts[m] *= most
            pe, e = nxt, e + 1
    for p in primes[small:bisect_right(primes, n)]:
        most = math.gcd(k, p - 1)
        if most > 1:
            for m in range(p, n + 1, p):
                counts[m] *= most
    return counts


def kth_roots_mod_prime_power(a: int, k: int, p: int,
                              e: int) -> tuple[int, ...]:
    """Sorted x in [0, p**e) with x**k = a (mod p**e), for a prime p.

    More than ROOT_BUDGET roots raise CellBudgetError before they are listed.
    """
    if e < 1:
        raise ValueError(f"e must be >= 1, got {e}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return kth_roots_mod(a, k, p ** e)  # factorize(p**e) is ((p, e),)


def kth_roots_mod(a: int, k: int, m: int) -> tuple[int, ...]:
    """Sorted x in [0, m) with x**k = a (mod m); m = 1 yields (0,).

    More than ROOT_BUDGET roots raise CellBudgetError before any is listed.
    """
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    parts, count = [], 1
    for p, e in factorize(m):  # primes already, so no primality test here
        pe = p ** e
        ys, step = _roots_mod_cached(a % pe, k, p, e)
        if not ys:
            return ()
        parts.append((ys, step))
        count *= len(ys) * (pe // step)
    _check_root_count(count)
    residues, mod = parts[0] if parts else ((0,), 1)
    for ys, step in parts[1:]:  # CRT: x = x1 (mod mod), x = x2 (mod step)
        inv = pow(mod, -1, step)
        residues = [x1 + mod * ((x2 - x1) * inv % step)
                    for x1 in residues for x2 in ys]
        mod *= step
    if len(parts) > 1:
        residues.sort()
    if mod < m:  # mod divides m, and each root class mod mod repeats
        residues = [x + j for j in range(0, m, mod) for x in residues]
    return tuple(residues)
