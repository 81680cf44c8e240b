"""Solve x**k = a (mod m) for all residue classes.

Prime-power moduli are handled by enumerating roots mod p and lifting them
level by level (a Hensel step when the derivative is a unit, exhaustive
branching otherwise); composite moduli are recombined with the Chinese
remainder theorem.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import PrimePowerCapError
from .intkernel import factorize, is_prime

__all__ = ["ResidueSet", "kth_roots_mod_prime_power", "kth_roots_mod",
           "PRIME_POWER_CAP"]

# Largest p**e whose roots are found; roots mod p are enumerated in O(p).
PRIME_POWER_CAP = 10 ** 7


@dataclass(frozen=True)
class ResidueSet:
    """Sorted residue classes in [0, modulus) satisfying some congruence."""

    modulus: int
    residues: tuple[int, ...]


@lru_cache(maxsize=4096)
def _power_map(k: int, p: int) -> dict[int, tuple[int, ...]]:
    """Map a -> all x in [0, p) with x**k = a (mod p), by one O(p) pass."""
    table: dict[int, list[int]] = {}
    for x in range(p):
        table.setdefault(pow(x, k, p), []).append(x)
    return {a: tuple(xs) for a, xs in table.items()}


def kth_roots_mod_prime_power(a: int, k: int, p: int, e: int) -> ResidueSet:
    """All x in [0, p**e) with x**k = a (mod p**e).

    Roots mod p come from direct enumeration; each level of lifting applies
    a unique Hensel step to nonsingular roots (k * x**(k-1) a unit mod p)
    and tries all p extensions for singular ones.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if e < 1:
        raise ValueError(f"e must be >= 1, got {e}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    pe = p ** e
    if pe > PRIME_POWER_CAP:
        raise PrimePowerCapError(
            f"prime power {p}^{e} exceeds cap {PRIME_POWER_CAP}")
    a %= pe
    roots = list(_power_map(k, p).get(a % p, ()))
    mod = p
    while mod < pe:
        nxt = mod * p
        lifted = []
        for x in roots:
            deriv = k * pow(x, k - 1, p) % p
            if deriv:
                # f(x) = x**k - a; unique lift x - f(x)/f'(x) mod nxt.
                fx = (pow(x, k, nxt) - a) % nxt
                inv = pow(k * pow(x, k - 1, nxt) % nxt, -1, nxt)
                lifted.append((x - fx * inv) % nxt)
            else:
                for j in range(p):
                    c = x + j * mod
                    if (pow(c, k, nxt) - a) % nxt == 0:
                        lifted.append(c)
        roots = sorted(set(lifted))
        mod = nxt
    return ResidueSet(pe, tuple(roots))


def _crt_combine(r1: tuple[int, ...], m1: int,
                 r2: tuple[int, ...], m2: int) -> tuple[tuple[int, ...], int]:
    """Merge residue lists modulo coprime m1, m2 into lists modulo m1*m2."""
    m = m1 * m2
    inv = pow(m1, -1, m2)
    out = []
    for x1 in r1:
        for x2 in r2:
            out.append((x1 + m1 * ((x2 - x1) * inv % m2)) % m)
    return tuple(sorted(out)), m


@lru_cache(maxsize=400_000)
def _roots_mod_cached(a: int, k: int, m: int) -> tuple[int, ...]:
    residues: tuple[int, ...] = (0,)
    mod = 1
    for p, e in factorize(m):
        part = kth_roots_mod_prime_power(a, k, p, e)
        if not part.residues:
            return ()
        residues, mod = _crt_combine(residues, mod, part.residues, part.modulus)
    return residues


def kth_roots_mod(a: int, k: int, m: int) -> ResidueSet:
    """All x in [0, m) with x**k = a (mod m); m = 1 yields {0}."""
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return ResidueSet(m, _roots_mod_cached(a % m, k, m))
