"""Brute-force oracles shared by the tests, independent of both production
counting algorithms (the interval walk and the residue stride), of the
polynomial preimage segments and of the package's integer roots: they
import nothing from appowers."""
import collections
import functools


def brute_report(k, prog):
    """(count_t, count_values) by testing every term a + i*q for a kth power.

    The kth powers are every t**k with |t**k| <= max(|lo|, |hi|), t of
    either sign, by plain exponentiation.
    """
    limit = max(abs(prog.lo), abs(prog.hi))
    powers = set()
    t = 0
    while t ** k <= limit:
        powers.add(t ** k)
        powers.add((-t) ** k)
        t += 1
    ct = cv = 0
    for i in range(1, prog.N + 1):
        v = prog.a + i * prog.q
        if v not in powers:
            continue
        cv += 1
        ct += 2 if k % 2 == 0 and v > 0 else 1
    return ct, cv


def max_class_size(k, m):
    """The largest number of x in [0, m) that share one x**k mod m, from a
    table of every pow(x, k, m)."""
    return max(collections.Counter(pow(x, k, m) for x in range(m)).values())


def classes_count(roots, q, A, B):
    """Number of t in [A, B] with t mod q in roots, one floor pair per root."""
    if B < A:
        return 0
    return sum((B - r) // q - (A - 1 - r) // q for r in roots)


@functools.lru_cache(maxsize=None)
def _preimages(coeffs, limit):
    """value -> ascending t in [-limit, limit] with sum c_i t**i = value."""
    table = {}
    for t in range(-limit, limit + 1):
        table.setdefault(sum(c * t ** i for i, c in enumerate(coeffs)),
                         []).append(t)
    return table


def brute_poly_report(coeffs, prog):
    """(count_t, count_values, solutions) for P = sum c_i t**i by looking up
    every term a + i*q among the values of P.

    coeffs is lowest degree first, with c_n != 0.  A t with P(t) = v is a
    root of P - v, so Cauchy's bound gives |t| <= 1 + max(|c_0 - v|,
    |c_1|, ..., |c_(n-1)|) <= 1 + M + max|c_i|, M = max(|lo|, |hi|); the
    value table covers that window, rounded up to a power of two so that
    few are built.  solutions are the (t, i) pairs sorted by t.
    """
    need = 1 + max(abs(prog.lo), abs(prog.hi)) + max(map(abs, coeffs[:-1]))
    table = _preimages(tuple(coeffs), 1 << need.bit_length())
    solutions = []
    cv = 0
    for i in range(1, prog.N + 1):
        ts = table.get(prog.a + i * prog.q, ())
        cv += bool(ts)
        solutions.extend((t, i) for t in ts)
    solutions.sort()
    return len(solutions), cv, solutions
